"""Command line driver.

    hvqm run <config> [--seed N] [--trials N] [--out-dir DIR] [--workers N]
    hvqm replay <trial log> <config> [--seed N] [--trials N]
    hvqm validate <config>

Exit codes: 0 success / replay OK, 1 replay mismatch, 2 config parse or
command-line usage error, 3 validation error (a config number that is NaN
or infinite included), 4 runtime or solver error (an arithmetic overflow
included), 5 replay hash mismatch.  The last stdout line of every command
is a single JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .config import (ConfigParseError, ExperimentConfig, apply_overrides,
                     config_hash, parse_config)
from .errors import HvqmError, ValidationError
from .runner import replay_run, run_experiment

EXIT_OK = 0
EXIT_REPLAY_MISMATCH = 1
EXIT_PARSE = 2
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4
EXIT_HASH_MISMATCH = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error instead of exiting, so that `main` still
    ends stdout with a JSON line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; parsing does not change it."""
    parser = _Parser(
        prog="hvqm",
        description="Config-driven hidden-variable quantum statistics experiments")
    parser.add_argument("--version", action="version", version=f"hvqm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("config")
    run.add_argument("--seed", type=int)
    run.add_argument("--trials", type=int)
    run.add_argument("--out-dir")
    run.add_argument("--workers", type=int,
                     help="accepted for compatibility; changes nothing")

    replay = sub.add_parser("replay", help="verify a trial log against its report")
    replay.add_argument("log")
    replay.add_argument("config")
    replay.add_argument("--seed", type=int)
    replay.add_argument("--trials", type=int)

    validate = sub.add_parser("validate", help="check a config without running")
    validate.add_argument("config")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = parse_config(args.config)
    return apply_overrides(cfg,
                           seed=getattr(args, "seed", None),
                           trials=getattr(args, "trials", None),
                           out_dir=getattr(args, "out_dir", None),
                           workers=getattr(args, "workers", None))


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def _cmd_run(args) -> int:
    cfg = _load(args)
    out_dir = cfg.get("experiment", "out_dir", "runs/" + (cfg.kind or "run"))
    workers = cfg.get_int("experiment", "workers", 1)
    report = run_experiment(cfg, out_dir, workers=workers)
    print(f"kind: {report.kind}")
    print(f"config hash: {report.config_hash}")
    for name in report.outputs:
        print(f"wrote: {out_dir}/{name}")
    print(f"wrote: {out_dir}/report.json")
    _emit({"status": "ok", "kind": report.kind, "out_dir": str(out_dir),
           "config_hash": report.config_hash, "results": report.results})
    return EXIT_OK


def _cmd_replay(args) -> int:
    cfg = _load(args)
    verdict = replay_run(args.log, cfg)
    if not verdict.hash_ok:
        print(f"log header hash does not match the supplied config "
              f"(expected {config_hash(cfg)})")
        _emit({"status": "hash_mismatch", "verdict": verdict.verdict})
        return EXIT_HASH_MISMATCH
    if verdict.ok:
        print("replay verdict: OK")
        _emit({"status": "ok", "verdict": "OK"})
        return EXIT_OK
    if verdict.first_bad_line is not None:
        print(f"replay verdict: MISMATCH at line {verdict.first_bad_line}: {verdict.reason}")
    else:
        print("replay verdict: MISMATCH in " + ", ".join(verdict.mismatches))
    _emit({"status": "mismatch", "verdict": "MISMATCH",
           "statistics": list(verdict.mismatches),
           "first_bad_line": verdict.first_bad_line})
    return EXIT_REPLAY_MISMATCH


def _cmd_validate(args) -> int:
    from .runner import validate_experiment
    cfg = _load(args)
    notes = validate_experiment(cfg)
    print("OK")
    for note in notes:
        print(f"  {note}")
    _emit({"status": "ok", "diagnostics": notes})
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        _emit({"status": "usage_error", "error": str(exc)})
        return EXIT_USAGE
    handler = {"run": _cmd_run, "replay": _cmd_replay, "validate": _cmd_validate}
    try:
        return handler[args.command](args)
    except ConfigParseError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        _emit({"status": "parse_error", "error": str(exc)})
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        _emit({"status": "validation_error", "error": str(exc)})
        return EXIT_VALIDATION
    except HvqmError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        _emit({"status": "runtime_error", "error": str(exc)})
        return EXIT_RUNTIME
    # ValueError also covers a JSONDecodeError and math's "math domain
    # error" on an infinite argument; ArithmeticError a float overflow
    except (OSError, ArithmeticError, ValueError, KeyError) as exc:
        print(f"runtime error: {exc!r}", file=sys.stderr)
        _emit({"status": "runtime_error", "error": repr(exc)})
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
