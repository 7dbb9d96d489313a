"""Spans around the public functions of hvqm's layers, for the traced run.

`Tracer.install` replaces each named function with a wrapper, in the module
that defines it and in every hvqm module that imported it by name; nothing
outside this process changes.  A wrapper keeps a span (name, start, end,
parent) in memory.  Functions called once per log record are only counted
and timed in aggregate, so the trace stays small and its overhead low.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

# (module, function): spans with parents
SPANNED = (
    ("config", "parse_config"), ("config", "config_hash"),
    ("runner", "validate_experiment"), ("runner", "run_experiment"),
    ("runner", "replay_run"),
    ("rng", "uniforms"),
    ("epr", "sample_trials"),
    ("beamline", "monte_carlo_sequence"),
    ("quasiprob", "solve_weights"), ("quasiprob", "born_table"),
    ("quasiprob", "marginal"),
    ("spin", "marginal_amplitude"),
    ("pathint", "screen_pattern"), ("pathint", "four_hole_table"),
    ("phasespace", "lift"), ("phasespace", "project_r"), ("phasespace", "project_p"),
)
# called once per record: a count and a total time only
AGGREGATED = (("epr", "trial_record_json"), ("beamline", "event_json"))


def _log_outputs(a, report) -> dict:
    out = Path(a["out_dir"])
    return {"log_bytes_written": sum(os.path.getsize(out / name) for name in report.outputs
                                     if name.endswith(".jsonl"))}


def _log_read(a, _verdict) -> dict:
    records = -1   # the header line is not a record
    with open(a["log_path"], "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            records += chunk.count(b"\n")
    return {"records_read": records, "log_bytes_read": os.path.getsize(a["log_path"])}


# work counted at each spanned call, from its arguments and result; the
# byte and work counts of the kernels are computed from array sizes
WORK = {
    "runner.validate_experiment": lambda a, r: {"validate_calls": 1},
    "runner.run_experiment": _log_outputs,
    "runner.replay_run": _log_read,
    "rng.uniforms": lambda a, r: {"draws": int(r.size)},
    "epr.sample_trials": lambda a, r: {"trials_sampled": a["n_trials"]},
    "beamline.monte_carlo_sequence": lambda a, r: {"events": a["trials"]},
    "quasiprob.solve_weights": lambda a, r: {
        "solve_calls": 1,
        "solve_bytes": 8 * (1 + 2 * len(a["dirs"]) * (len(a["dirs"]) - 1)) << len(a["dirs"])},
    "spin.marginal_amplitude": lambda a, r: {
        "completions": 1 << (len(a["dirs"]) - len(a["fixed"]))},
    "pathint.screen_pattern": lambda a, r: {
        "phase_evals": 2 * a["g"].bins * a["g"].quadrature_points},
    "phasespace.lift": lambda a, r: {"grid_bytes": 16 * a["wf"].m ** 2},
    "phasespace.project_r": lambda a, r: {"grid_bytes": 16 * a["state"].m ** 2},
    "phasespace.project_p": lambda a, r: {"grid_bytes": 16 * a["state"].m ** 2},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []         # [name, start, end, parent index, work]
        self.aggregates: dict[str, list] = {}   # name -> [calls, seconds]
        self.enabled = False
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._agg_child: dict[int, float] = {}  # span index -> aggregated child time
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to the main thread's open span
        return self._main_stack[-1] if self._main_stack else None

    def _spanned(self, name: str, fn):
        signature = inspect.signature(fn)
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, self._parent(stack), {}])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = self.spans[index]
                span[1], span[2] = start, end
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = work(bound.arguments, result)
            return result
        return wrapper

    def _aggregated(self, name: str, fn):
        entry = self.aggregates.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            entry[0] += 1
            entry[1] += elapsed
            stack = self._stack()
            parent = self._parent(stack)
            if parent is not None:
                self._agg_child[parent] = self._agg_child.get(parent, 0.0) + elapsed
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever hvqm refers to it by name."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "hvqm" or key.startswith("hvqm.")]
        for targets, make in ((SPANNED, self._spanned), (AGGREGATED, self._aggregated)):
            for mod_name, fn_name in targets:
                original = getattr(sys.modules["hvqm." + mod_name], fn_name)
                wrapper = make(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_time(self, index: int, children: dict[int, list[int]]) -> float:
        """Span duration minus what its direct children cover."""
        _, start, end, *_ = self.spans[index]
        intervals = sorted((self.spans[c][1], self.spans[c][2]) for c in children.get(index, ()))
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (end - start) - covered - self._agg_child.get(index, 0.0)

    def write(self, path: Path) -> None:
        """Spans as [name, start, end, parent, work]; aggregates as [calls, seconds]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans": self.spans,
            "aggregates": self.aggregates,
        }), encoding="utf-8")
