"""Every definition in `src/hvqm` has a caller outside the tests.

A def or class whose name no code in src/, scripts/, perfbench/ (its tests
aside) or the README's Python fences mentions is reachable only from
tests/, and belongs there as an oracle or nowhere.  Names are matched as
identifiers, attributes, import aliases and identifier-like strings (the
tracer's ("module", "function") pairs, __all__).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees():
    paths = [*ROOT.glob("src/**/*.py"), *ROOT.glob("scripts/**/*.py"),
             *(p for p in ROOT.glob("perfbench/**/*.py")
               if "tests" not in p.relative_to(ROOT).parts)]
    yield from (ast.parse(p.read_text(), str(p)) for p in paths)
    readme = (ROOT / "README.md").read_text()
    yield from map(ast.parse, re.findall(r"```python\n(.*?)```", readme, re.S))


def _used(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split(".") + [node.asname])
        elif isinstance(node, ast.Constant) and str(node.value).isidentifier():
            names.add(node.value)
    return names


def _defined(tree):
    for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("__"):
                yield node.name


def test_every_src_definition_has_a_non_test_caller():
    used = set().union(*map(_used, _trees()))
    defined = {name for p in ROOT.glob("src/hvqm/*.py")
               for name in _defined(ast.parse(p.read_text()))}
    orphans = sorted(defined - used)
    assert not orphans, f"called only from tests: {', '.join(orphans)}"
