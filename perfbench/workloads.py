"""The benchmark's three workloads: inputs made from a seed, and their rounds.

A round is the workload's whole set of operations; every round of a run
repeats the same operations on the same inputs.  Each operation is one call
sequence into hvqm's public functions and carries the check that is applied
to its result after timing ends.  Checks come from `checks`, which never
calls hvqm.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hvqm import cli, config, epr, pathint, phasespace, quasiprob, runner, spin
from hvqm.spin import Direction, DirectionSet

import checks
from checks import require


@dataclass
class Op:
    """One timed operation.

    kind "write" ops write `work` trials to logs (or, on kernels, draw them);
    kind "read" ops verify `work` log records (or, on kernels, scan `work`
    rows of weight tables).
    `failed(result)` is true when the operation did not do its job;
    `check(result)` raises CheckError when a result that did not fail is
    wrong.
    """

    label: str
    fn: Callable[[], object]
    kind: str = "other"
    work: int = 0
    check: Callable[[object], None] | None = None
    failed: Callable[[object], bool] | None = None


def write_config(path: Path, sections: dict[str, dict[str, str]]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) + "\n"
                   for name, kv in sections.items())
    path.write_text(text, encoding="utf-8")
    return path


def run_config(cfg_path: Path, out_dir: Path, workers: int = 1):
    return runner.run_experiment(config.parse_config(cfg_path), out_dir, workers=workers)


def replay_config(log: Path, cfg_path: Path):
    return runner.replay_run(log, config.parse_config(cfg_path))


# --- shipped sampling configs, with the seed and trials left open ----------

TSIRELSON = {"a1": "1.5707963267948966", "a2": "0.0",
             "b1": "0.7853981633974483", "b2": "2.356194490192345"}
SG_STAGES = {"stage1": "split x block -", "stage2": "split y block -",
             "stage3": "recombine -y", "stage4": "analyze x"}


def chsh_sections(mode: str, seed: int, trials: int) -> dict:
    sections = {"experiment": {"kind": "chsh", "mode": mode, "seed": str(seed),
                               "trials": str(trials)},
                "directions": dict(TSIRELSON)}
    if mode == "classical_lhv":
        sections["lhv"] = {f"w{k}": "0.0625" for k in range(16)}
    return sections


def epr_sections(seed: int, trials: int, theta_b: str = "1.0471975511965976") -> dict:
    return {"experiment": {"kind": "epr", "mode": "born_sampling", "seed": str(seed),
                           "trials": str(trials)},
            "directions": {"a": "0.0", "b": theta_b}}


def sg_sections(seed: int, trials: int) -> dict:
    return {"experiment": {"kind": "sterngerlach", "input": "+z", "seed": str(seed),
                           "trials": str(trials)},
            "sequence": dict(SG_STAGES)}


def sg_stage_tuples(sections) -> list[tuple]:
    stages = []
    for key in sorted(sections["sequence"], key=lambda k: int(k[5:])):
        tokens = sections["sequence"][key].split()
        block = None
        if len(tokens) == 4:
            block = 1 if tokens[3] == "+" else -1
        stages.append((tokens[0], tokens[1], block))
    return stages


class SamplingExperiment:
    """One sampling config on disk, with its run, replay and log checks."""

    def __init__(self, name: str, sections: dict, root: Path):
        self.name = name
        self.sections = sections
        self.kind = sections["experiment"]["kind"]
        self.trials = int(sections["experiment"]["trials"])
        self.cfg_path = write_config(root / f"{name}.cfg", sections)
        self.out_dir = root / name
        self.log = self.out_dir / ("events.jsonl" if self.kind == "sterngerlach"
                                   else "trials.jsonl")

    @property
    def records(self) -> int:
        return 4 * self.trials if self.kind == "chsh" else self.trials

    def run_op(self, workers: int = 1, out_dir: Path | None = None) -> Op:
        out = out_dir or self.out_dir
        label = f"run {self.name}" + (f" workers={workers}" if workers != 1 else "")
        return Op(label, lambda: run_config(self.cfg_path, out, workers), "write",
                  self.records, check=lambda _r: self.check_log(out))

    def replay_op(self) -> Op:
        def check(verdict):
            require(verdict.verdict == "OK",
                    f"clean replay of {self.name} returned {verdict.verdict} "
                    f"{list(verdict.mismatches)}")
        return Op(f"replay {self.name}", lambda: replay_config(self.log, self.cfg_path),
                  "read", self.records, check=check)

    def check_log(self, out_dir: Path) -> None:
        log = out_dir / self.log.name
        exp = self.sections["experiment"]
        if self.kind == "chsh":
            thetas = [float(self.sections["directions"][k]) for k in ("a1", "a2", "b1", "b2")]
            weights = None
            if exp["mode"] == "classical_lhv":
                weights = [float(self.sections["lhv"][f"w{k}"]) for k in range(16)]
            checks.check_chsh_log(log, self.sections, self.trials, exp["mode"], thetas,
                                  weights)
        elif self.kind == "epr":
            d = self.sections["directions"]
            checks.check_epr_log(log, self.sections, self.trials, float(d["a"]),
                                 float(d["b"]))
        else:
            checks.check_sterngerlach_log(log, self.sections, self.trials, exp["input"],
                                          sg_stage_tuples(self.sections))


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed pass, so lazy set-up inside numpy and hvqm is done."""
        for op in self.ops():
            op.fn()


# --- mc_logs -----------------------------------------------------------------

class McLogs(Workload):
    """The four sampling configs run then replayed, and chsh_mc run again
    with two workers.

    Trial counts are a fiftieth of the shipped ones (2 000 per block, 4 000
    for epr).  An operation then takes 5-70 ms and a round about 0.35 s, so
    each operation's fastest time is taken over some eighty tries spread
    across a 30 s run.  Per-record cost is the same as at full size, where
    one round takes 14-22 s and a run would be a single round, at the mercy
    of whatever slow spell the shared host is in.
    """

    name = "mc_logs"
    SIZES = (("chsh_mc", 2_000, lambda s, t: chsh_sections("born_sampling", s, t)),
             ("chsh_lhv", 2_000, lambda s, t: chsh_sections("classical_lhv", s, t)),
             ("epr_sampling", 4_000, epr_sections),
             ("sterngerlach", 2_000, sg_sections))

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        rnd = random.Random(seed)
        self.experiments = [SamplingExperiment(name, make(rnd.randrange(2 ** 32), trials), root)
                            for name, trials, make in self.SIZES]
        self.w2_dir = root / "chsh_mc_workers2"

    def ops(self) -> list[Op]:
        ops = []
        for exp in self.experiments:
            ops += [exp.run_op(), exp.replay_op()]
        chsh_mc = self.experiments[0]
        w2 = chsh_mc.run_op(workers=2, out_dir=self.w2_dir)

        def check_w2(_report):
            require(checks.same_bytes(chsh_mc.log, self.w2_dir / chsh_mc.log.name),
                    "the workers=2 chsh_mc log differs from the workers=1 log")
        w2.check = check_w2
        return ops + [w2]


# --- kernels -----------------------------------------------------------------

def _unit_vectors(rng: np.random.Generator, n: int) -> list[tuple[float, float, float]]:
    return [checks.unit(v) for v in rng.normal(size=(n, 3))]


def _direction_set(vectors) -> DirectionSet:
    return DirectionSet(tuple(Direction.normalized(*v) for v in vectors))


class Kernels(Workload):
    """The analytic kernels called directly, at sizes near their caps."""

    name = "kernels"

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        rng = np.random.default_rng(seed)
        # a seeded rotation and relabelling of evenly spaced angles: the
        # closed-form tables are then the same for every seed up to order
        self.thetas = {n: [float(rng.uniform(0.0, math.pi) + math.pi * k / n)
                           for k in rng.permutation(n)] for n in (10, 12)}
        self.born_vectors = _unit_vectors(rng, 20)
        self.born_rows = [int(k) for k in rng.integers(0, 1 << 20, 64)]
        self.marginal_sets = [tuple(int(i) for i in rng.choice(12, size=k, replace=False))
                              for k in (2,) * 10 + (4,) * 21]
        self.amplitude_cases = []
        for free in (20, 21):
            vectors = _unit_vectors(rng, free + 2)
            fixed = {int(i): int(rng.choice((1, -1)))
                     for i in rng.choice(free + 2, size=2, replace=False)}
            self.amplitude_cases.append((vectors, fixed))
        self.wavelength = float(rng.uniform(0.009, 0.011))
        self.twoslit = pathint.Geometry2Slit.from_wavelength(
            self.wavelength, bins=4096, quadrature_points=256)
        self.fourhole = pathint.GeometryFourHole(
            v=2.0 * math.pi / float(rng.uniform(0.009, 0.011)), region_grid=400)
        self.packet = dict(center=float(rng.uniform(-50, 50)), width=float(rng.uniform(20, 40)),
                           momentum=float(rng.uniform(-0.5, 0.5)))
        self.sample_seed = int(rng.integers(0, 2 ** 32))
        self.sample_thetas = [float(t) for t in rng.uniform(0.0, 2 * math.pi, 4)]

    def ops(self) -> list[Op]:
        ops: list[Op] = []
        tables = {}
        for n, thetas in self.thetas.items():
            dirs = DirectionSet.from_planar_angles(thetas)

            def solve(dirs=dirs, n=n):
                tables[n] = quasiprob.solve_weights(dirs)
                return tables[n]
            ops.append(Op(f"solve_weights N={n}", solve,
                          check=lambda t, th=thetas: checks.check_weight_table(t.weights, th)))
        # one operation runs every marginal (0.5-1 ms each): operations that
        # short slowed by up to 40 % for whole runs on a shared host, while
        # operations of 20 ms and more held still
        def scan_marginals():
            return [quasiprob.marginal(tables[12], idx) for idx in self.marginal_sets]
        ops.append(Op(f"marginal N=12 over {len(self.marginal_sets)} index sets",
                      scan_marginals, "read", len(self.marginal_sets) << 12,
                      check=self._check_marginals))
        born_dirs = _direction_set(self.born_vectors)
        ops.append(Op("born_table N=20", lambda: quasiprob.born_table(born_dirs),
                      check=lambda t: checks.check_born_table(
                          t.probabilities, self.born_vectors, self.born_rows)))
        for vectors, fixed in self.amplitude_cases:
            dirs = _direction_set(vectors)
            ops.append(Op(f"marginal_amplitude F={len(vectors) - len(fixed)}",
                          lambda d=dirs, f=fixed: spin.marginal_amplitude(f, d),
                          check=lambda q, v=vectors, f=fixed:
                          checks.check_marginal_amplitude(q, v, f)))
        g = self.twoslit
        ops.append(Op("screen_pattern coherent bins=4096 K=256",
                      lambda: pathint.screen_pattern(g, "coherent"), check=self._check_fringes))
        ops.append(Op("screen_pattern which-path bins=4096 K=256",
                      lambda: pathint.screen_pattern(g, "which-path"),
                      check=lambda p: checks.check_distribution(p.probabilities, "which-path")))
        for coherent in (True, False):
            ops.append(Op(f"four_hole_table y_coherent={coherent} grid=400",
                          lambda c=coherent: pathint.four_hole_table(self.fourhole, c),
                          check=lambda t: checks.check_distribution(t.values(), "four-hole table")))
        ops += self._phasespace_ops()
        e = epr.SingletEnsemble(DirectionSet.from_planar_angles(self.sample_thetas),
                                epr.Mode.BORN_SAMPLING)
        for block in range(8):
            ai, bi = checks.CHSH_PAIRS[block % 4]
            start = block * 1_000_000
            ops.append(Op(f"sample_trials block {block} 1M",
                          lambda ai=ai, bi=bi, start=start: epr.sample_trials(
                              e, ai, bi, self.sample_seed, 1_000_000, start=start),
                          "write", 1_000_000,
                          check=lambda r, ai=ai, bi=bi, start=start:
                          self._check_draws(r, ai, bi, start)))
        return ops

    def _phasespace_ops(self) -> list[Op]:
        wf = phasespace.gaussian_wavefunction(1024, 1.0, **self.packet)
        state = {}

        def lift():
            state["lifted"] = phasespace.lift(wf)
            return state["lifted"]

        def check_roundtrip(back):
            gap = float(np.max(np.abs(back.values - wf.values)))
            require(gap <= 1e-10, f"lift/project_r round trip is off by {gap:.3e}")

        def check_momentum(ray):
            want = checks.direct_momentum(wf.values, wf.dr)
            gap = checks.ray_gap(ray.values, want)
            require(gap <= 1e-10, f"project_p ray is {gap:.3e} from the direct transform")

        def check_parseval(xi):
            gap = abs(float(np.sum(np.abs(xi.values) ** 2)) * xi.dp
                      - float(np.sum(np.abs(wf.values) ** 2)) * wf.dr)
            require(gap <= 1e-10, f"Parseval gap {gap:.3e}")

        def check_lift(lifted):
            require(lifted.coefficients.shape == (1024, 1024), "lifted grid shape")

        return [Op("lift M=1024", lift, check=check_lift),
                Op("project_r M=1024", lambda: phasespace.project_r(state["lifted"]),
                   check=check_roundtrip),
                Op("project_p M=1024", lambda: phasespace.project_p(state["lifted"]),
                   check=check_momentum),
                Op("to_momentum M=1024", lambda: phasespace.to_momentum(wf),
                   check=check_parseval)]

    def _check_marginals(self, marginals) -> None:
        weights = checks.closed_form_weights(self.thetas[12])
        for idx, marg in zip(self.marginal_sets, marginals):
            checks.check_marginal(marg, weights, 12, idx)

    def _check_fringes(self, pattern) -> None:
        g = self.twoslit
        checks.check_distribution(pattern.probabilities, "coherent pattern")
        gap = checks.cos2_oracle_gap(g.bin_centers(), pattern.probabilities, g.slit_separation,
                                     g.slit_width, g.l1, g.l2, g.v, g.wavelength,
                                     g.quadrature_points)
        require(gap <= 0.02, f"coherent pattern is {gap:.3%} RMS from the cos^2 oracle")

    def _check_draws(self, result, ai, bi, start) -> None:
        a_out, b_out = result
        require(len(a_out) == 1_000_000 and len(b_out) == 1_000_000, "sample size")
        require(int(np.sum(np.abs(a_out) != 1) + np.sum(np.abs(b_out) != 1)) == 0,
                "outcomes other than +1 and -1")
        for k in range(0, 1_000_000, 15_625):
            want = checks.born_outcome(self.sample_seed, start + k, self.sample_thetas[ai],
                                       self.sample_thetas[bi])
            require((int(a_out[k]), int(b_out[k])) == want,
                    f"trial {start + k} is {(int(a_out[k]), int(b_out[k]))}, the draw gives {want}")


# --- scan ----------------------------------------------------------------------

def _lines_of(path: Path) -> tuple[str, list[str]]:
    text = path.read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    return header, body.splitlines()


def _flip(line: str, key: str) -> str:
    rec = json.loads(line)
    rec[key] = -rec[key]
    return json.dumps(rec, separators=(",", ":"))


def tampered_bodies(kind: str, body: list[str], trials: int) -> dict[str, list[str] | str]:
    """Each tamper class applied to one clean log body.

    A list is the new body, one record per line; a string is the new body
    text verbatim (used for a partial last line).
    """
    if kind == "chsh":
        renumbered = list(body)
        renumbered[7] = renumbered[7].replace('"trial":7,', '"trial":999999,', 1)
        respaced = list(body)
        respaced[5] = json.dumps(json.loads(respaced[5]))
        return {
            "drop (a2,b2) block": body[:3 * trials],
            "duplicate (a1,b1) block": body[:trials] + body,
            "swap two records": [body[1], body[0]] + body[2:],
            "reverse body": body[::-1],
            "empty body": [],
            "re-serialise one line with spaces": respaced,
            "renumber one trial": renumbered,
            "flip one outcome": body[:3] + [_flip(body[3], "a_out")] + body[4:],
            "trailing partial line": "\n".join(body) + '\n{"trial":' + str(4 * trials)
            + ',"a_sett',
        }
    if kind == "epr":
        return {
            "swap two records": [body[1], body[0]] + body[2:],
            "empty body": [],
            "drop last record": body[:-1],
            "duplicate body": body + body,
            "flip one outcome": body[:3] + [_flip(body[3], "b_out")] + body[4:],
        }
    survivor = next(i for i, line in enumerate(body) if '"outcome":null' not in line)
    return {
        "double every event": [line for line in body for _ in (0, 1)],
        "swap two records": [body[1], body[0]] + body[2:],
        "empty body": [],
        "flip one outcome": body[:survivor] + [_flip(body[survivor], "outcome")]
        + body[survivor + 1:],
    }


def cli_replay(log: Path, cfg_path: Path) -> tuple[int | None, str]:
    """(exit code, status of the last stdout line) of `hvqm replay`, run in
    this process; (None, exception name) if the CLI lets an error escape."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["replay", str(log), str(cfg_path)])
        except Exception as exc:   # an error the CLI does not map to an exit code
            return None, type(exc).__name__
    lines = out.getvalue().strip().splitlines()
    try:
        status = json.loads(lines[-1])["status"] if lines else "no JSON line"
    except (json.JSONDecodeError, KeyError, TypeError):
        status = "no JSON line"
    return code, status


def tamper_missed(result) -> bool:
    """A tampered log must be rejected: a non-zero exit with a JSON last line."""
    code, status = result
    return code is None or code == 0 or status == "no JSON line"


TAMPER_SEED = 1412
TAMPER_TRIALS = 1000


def make_tampers(root: Path) -> list[tuple[str, Path, Path]]:
    """Clean 1000-trial logs of fixed configs, then one tampered copy per class.

    These inputs do not depend on the workload seed.  Returns
    (label, log, config) per tampered copy.
    """
    made = []
    bases = (("chsh", chsh_sections("born_sampling", TAMPER_SEED, TAMPER_TRIALS)),
             ("epr", epr_sections(TAMPER_SEED, TAMPER_TRIALS)),
             ("sterngerlach", sg_sections(TAMPER_SEED, TAMPER_TRIALS)))
    for kind, sections in bases:
        base = SamplingExperiment(f"{kind}-clean", sections, root)
        run_config(base.cfg_path, base.out_dir)
        header, body = _lines_of(base.log)
        for i, (tamper, new_body) in enumerate(tampered_bodies(kind, body, TAMPER_TRIALS).items()):
            out = root / f"{kind}-tamper{i}"
            out.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(base.out_dir / "report.json", out / "report.json")
            text = new_body if isinstance(new_body, str) else "".join(
                line + "\n" for line in new_body)
            (out / base.log.name).write_text(header + "\n" + text, encoding="utf-8")
            made.append((f"{kind}: {tamper}", out / base.log.name, base.cfg_path))
    return made


class Scan(Workload):
    """Many small experiments: the study-script loops, small runs and
    replays of all eight shipped configs, and replays of tampered logs."""

    name = "scan"

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        rnd = random.Random(seed)
        # the seed varies angles, draws and the order of sizes, never the sizes
        sizes = [200 * (k + 1) for k in range(12)]
        rnd.shuffle(sizes)
        self.chsh_points = [(rnd.uniform(0.0, math.pi), trials, rnd.randrange(2 ** 32))
                            for trials in sizes]
        self.negativity_points = [math.pi / 3] + [rnd.uniform(0.0, math.pi) for _ in range(15)]
        self.fringe_points = [(bins, rnd.uniform(0.009, 0.011)) for bins in (512, 1024)]
        self.sampling = [
            SamplingExperiment("chsh_mc", chsh_sections(
                "born_sampling", rnd.randrange(2 ** 32), 1000), root),
            SamplingExperiment("chsh_lhv", chsh_sections(
                "classical_lhv", rnd.randrange(2 ** 32), 50), root),
            SamplingExperiment("epr_sampling", epr_sections(
                rnd.randrange(2 ** 32), 3000, repr(rnd.uniform(0.0, math.pi))), root),
            SamplingExperiment("sterngerlach", sg_sections(
                rnd.randrange(2 ** 32), 300), root),
        ]
        self.q3_thetas = [0.0] + sorted(rnd.uniform(0.0, math.pi) for _ in range(2))
        self.analytic = {
            "quasiprob3": {"experiment": {"kind": "quasiprob"},
                           "directions": {f"theta{k + 1}": repr(t)
                                          for k, t in enumerate(self.q3_thetas)}},
            "twoslit": {"experiment": {"kind": "twoslit", "dark_eps": "0.001"},
                        "geometry": {"d": "1.0", "w": "0.01", "l1": "400.0", "l2": "100.0",
                                     "wavelength": repr(rnd.uniform(0.009, 0.011)),
                                     "screen_half_width": "2.56", "bins": "512",
                                     "quadrature_points": "64"}},
            "fourhole": {"experiment": {"kind": "fourhole"},
                         "geometry": {"x0": "0.5", "y0": "0.5", "l1": "400.0", "l2": "100.0",
                                      "wavelength": repr(rnd.uniform(0.009, 0.011)),
                                      "region_plus": "1.0,2.0,0.25,1.25",
                                      "region_minus": "-2.0,-1.0,-0.55,0.45",
                                      "region_grid": "24"}},
            "phasespace": {"experiment": {"kind": "phasespace"},
                           "grid": {"m": "256", "dr": "1.0", "hbar": "1.0"},
                           "state": {"kind": "gaussian", "center": repr(rnd.uniform(-20, 20)),
                                     "width": "8.0", "momentum": repr(rnd.uniform(-0.5, 0.5))}},
        }
        self.analytic_cfgs = {name: write_config(root / f"{name}.cfg", sections)
                              for name, sections in self.analytic.items()}
        self.tampers = make_tampers(root / "tamper")

    def ops(self) -> list[Op]:
        ops = [self._chsh_point(*p) for p in self.chsh_points]
        ops += [self._negativity_point(theta) for theta in self.negativity_points]
        ops += [self._fringe_point(*p) for p in self.fringe_points]
        for exp in self.sampling:
            ops += [exp.run_op(), exp.replay_op()]
        checkers = {"quasiprob3": self._check_quasiprob3, "twoslit": self._check_twoslit,
                    "fourhole": self._check_fourhole, "phasespace": self._check_phasespace}
        for name, cfg_path in self.analytic_cfgs.items():
            ops.append(Op(f"run {name}",
                          lambda p=cfg_path, n=name: run_config(p, self.root / n),
                          check=checkers[name]))
        for label, log, cfg_path in self.tampers:
            ops.append(Op(f"replay tampered {label}",
                          lambda log=log, cfg_path=cfg_path: cli_replay(log, cfg_path),
                          failed=tamper_missed))
        return ops

    def _chsh_point(self, phi: float, trials: int, seed: int) -> Op:
        thetas = (math.pi / 2, 0.0, math.pi / 4 + phi, 3 * math.pi / 4 + phi)
        dirs = [Direction.from_planar_angle(t) for t in thetas]

        def point():
            analytic = epr.chsh(epr.chsh_ensemble(epr.Mode.BORN_ANALYTIC, *dirs))
            mc = epr.chsh(epr.chsh_ensemble(epr.Mode.BORN_SAMPLING, *dirs),
                          trials=trials, seed=seed)
            return analytic, mc

        def check(result):
            analytic, mc = result
            want = checks.chsh_analytic_s(thetas)
            require(abs(analytic.s - want) <= 1e-12,
                    f"analytic S({phi!r}) = {analytic.s!r}, expected {want!r}")
            require(abs(mc.s - want) <= 5 * mc.s_stderr + 1e-12,
                    f"Monte Carlo S({phi!r}) = {mc.s!r} is not within 5 standard errors "
                    f"of {want!r}")
        return Op(f"chsh scan phi={phi:.4f}", point, check=check)

    def _negativity_point(self, theta: float) -> Op:
        dirs = DirectionSet.from_planar_angles([0.0, theta, 2 * theta])

        def check(report):
            want = checks.min_weight_three(theta)
            require(abs(report.min_weight - want) <= 1e-12,
                    f"min weight at theta={theta!r} is {report.min_weight!r}, "
                    f"closed form {want!r}")
            if theta == math.pi / 3:
                require(abs(report.min_weight + 1 / 16) <= 1e-12,
                        f"min weight at pi/3 is {report.min_weight!r}, expected -1/16")
        return Op(f"negativity scan theta={theta:.4f}",
                  lambda: quasiprob.negativity_report(quasiprob.solve_weights(dirs)),
                  check=check)

    def _fringe_point(self, bins: int, wavelength: float) -> Op:
        g = pathint.Geometry2Slit.from_wavelength(wavelength, bins=bins)

        def point():
            coherent = pathint.screen_pattern(g, "coherent")
            whichpath = pathint.screen_pattern(g, "which-path")
            return coherent, whichpath, pathint.dark_region_finder(coherent, whichpath, 1e-3)

        def check(result):
            coherent, whichpath, dark = result
            checks.check_distribution(coherent.probabilities, "coherent pattern")
            checks.check_distribution(whichpath.probabilities, "which-path pattern")
            gap = checks.cos2_oracle_gap(g.bin_centers(), coherent.probabilities,
                                         g.slit_separation, g.slit_width, g.l1, g.l2, g.v,
                                         g.wavelength, g.quadrature_points)
            require(gap <= 0.02, f"fringes at bins={bins} are {gap:.3%} RMS from cos^2")
            require(len(dark) > 0, f"no dark bins at bins={bins}")
        return Op(f"fringe profile bins={bins}", point, check=check)

    def _check_quasiprob3(self, report) -> None:
        want = float(checks.closed_form_weights(self.q3_thetas).min())
        got = report.results["min_weight"]
        require(abs(got - want) <= 1e-12, f"quasiprob3 min weight {got!r}, closed form {want!r}")
        rows = (self.root / "quasiprob3" / "weights.csv").read_text().splitlines()[1:]
        weights = [float(r.rsplit(",", 1)[1]) for r in rows]
        checks.check_weight_table(weights, self.q3_thetas)
        born = (self.root / "quasiprob3" / "born.csv").read_text().splitlines()[1:]
        checks.check_distribution((float(r.rsplit(",", 1)[1]) for r in born), "born.csv")

    def _check_twoslit(self, report) -> None:
        g = self.analytic["twoslit"]["geometry"]
        d, l2, lam = float(g["d"]), float(g["l2"]), float(g["wavelength"])
        require(abs(report.results["fringe_spacing"] - lam * l2 / d) <= 1e-12 * l2,
                "fringe spacing is not lambda l2 / d")
        rows = (self.root / "twoslit" / "coherent.csv").read_text().splitlines()[1:]
        x = [float(r.split(",")[0]) for r in rows]
        p = [float(r.split(",")[1]) for r in rows]
        checks.check_distribution(p, "coherent.csv")
        gap = checks.cos2_oracle_gap(x, p, d, float(g["w"]), float(g["l1"]), l2,
                                     2 * math.pi / lam, lam, int(g["quadrature_points"]))
        require(gap <= 0.02, f"twoslit fringes are {gap:.3%} RMS from cos^2")
        require(report.results["n_dark_bins"] > 0, "twoslit found no dark bins")

    def _check_fourhole(self, report) -> None:
        for table in ("coherent", "whichpath"):
            checks.check_distribution(report.results[table].values(), f"four-hole {table}")

    def _check_phasespace(self, report) -> None:
        r = report.results
        require(r["roundtrip_error"] <= 1e-10, f"round trip error {r['roundtrip_error']!r}")
        require(r["parseval_gap"] <= 1e-10, f"Parseval gap {r['parseval_gap']!r}")
        require(r["momentum_ray_overlap"] >= 1 - 1e-10,
                f"momentum ray overlap {r['momentum_ray_overlap']!r}")


WORKLOADS = {w.name: w for w in (McLogs, Kernels, Scan)}
