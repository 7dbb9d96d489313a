"""Tests of the benchmark's own checkers.

    python3 -m pytest -q perfbench/tests

The checkers must accept clean outputs of the program and reject every
tampered log; the independent draw must reproduce vectors worked out step
by step from the documented mixing constants.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

# (seed, counter, substream) -> state after the counter offset, after one
# and two finalizer passes, and the resulting uniform (top 53 bits / 2^53)
DRAW_VECTORS = [
    ((0, 0, 0), 0x910D919FEE77D2BC, 0xB93B9EAA6F20725F, 0xC51383FD916666F3,
     6934003503475916 / 2 ** 53),
    ((42, 0, 0), 0x86278A0ED0B02E2E, 0x0FAF0434FDBDA13D, 0x80FE10E622BE0ACE,
     4538518194116545 / 2 ** 53),
    ((42, 1, 0), 0x457FD17BED9513E7, 0x3696C5A1E380A7C7, 0x491D8E0F5BCCC6BD,
     2572521160014232 / 2 ** 53),
    ((5, 7, 3), 0x58ACC4D3A9E74E3D, 0xE49FC148F15ED6CD, 0x7CDC666A69C448EC,
     4393153692776585 / 2 ** 53),
    ((2 ** 64 - 1, 123456789, 1), 0x878F25D5A33F40D7, 0x02A30A08A3304718,
     0xB5D3D265CFC1B343, 6397483923666998 / 2 ** 53),
]


@pytest.mark.parametrize("args, z0, z1, z2, u", DRAW_VECTORS)
def test_draw_reproduces_fixed_vectors(args, z0, z1, z2, u):
    seed, counter, substream = args
    start = (seed * 0x9E3779B97F4A7C15 + (substream + 1) * 0xD1B54A32D192ED03
             + (counter + 1) * 0xBF58476D1CE4E5B9) % 2 ** 64
    assert start == z0
    assert checks._splitmix_finalizer(z0) == z1
    assert checks._splitmix_finalizer(z1) == z2
    assert z2 >> 11 == int(u * 2 ** 53)
    assert checks.draw(seed, counter, substream) == u


def test_draw_agrees_with_the_program():
    from hvqm import rng
    counters = np.array([0, 1, 2, 1000, 2 ** 40], dtype=np.uint64)
    for seed, substream in ((0, 0), (7, 2), (2 ** 63 + 5, 0)):
        got = rng.uniforms(seed, counters, substream)
        assert list(got) == [checks.draw(seed, int(c), substream) for c in counters]


def test_inverse_cdf_boundaries():
    probs = [0.25, 0.0, 0.5, 0.25]
    assert checks.inverse_cdf(probs, 0.0) == 0
    assert checks.inverse_cdf(probs, 0.2499999) == 0
    assert checks.inverse_cdf(probs, 0.25) == 2       # the empty category is never hit
    assert checks.inverse_cdf(probs, 0.75) == 3
    assert checks.inverse_cdf(probs, 1.0 - 2 ** -53) == 3


def test_beamline_prediction_of_the_shipped_sequence():
    stages = workloads.sg_stage_tuples(workloads.sg_sections(1, 10))
    pred = checks.beamline_prediction("z", 1, stages)
    assert pred.keeps == ((0, pytest.approx(0.5)), (1, pytest.approx(0.5)))
    assert pred.survival == pytest.approx(0.25)
    assert pred.p_plus == pytest.approx(0.5)


def test_canonical_hash_matches_the_program(tmp_path):
    from hvqm import config
    sections = workloads.chsh_sections("classical_lhv", 9, 50)
    sections["experiment"]["out_dir"] = "elsewhere"
    path = workloads.write_config(tmp_path / "c.cfg", sections)
    assert checks.canonical_hash(sections) == config.config_hash(config.parse_config(path))


TRIALS = 200


@pytest.fixture(scope="module")
def clean_runs(tmp_path_factory):
    """Small clean runs of each sampling kind, made by the program."""
    root = tmp_path_factory.mktemp("clean")
    exps = [workloads.SamplingExperiment("chsh_mc", workloads.chsh_sections(
                "born_sampling", 3, TRIALS), root),
            workloads.SamplingExperiment("chsh_lhv", workloads.chsh_sections(
                "classical_lhv", 4, TRIALS), root),
            workloads.SamplingExperiment("epr", workloads.epr_sections(5, TRIALS), root),
            workloads.SamplingExperiment("sg", workloads.sg_sections(6, TRIALS), root)]
    for exp in exps:
        workloads.run_config(exp.cfg_path, exp.out_dir)
    return exps


def test_clean_logs_are_accepted(clean_runs):
    for exp in clean_runs:
        exp.check_log(exp.out_dir)


def _tamper_cases(clean_runs):
    for exp in clean_runs:
        kind = "sterngerlach" if exp.name == "sg" else exp.kind
        header, body = workloads._lines_of(exp.log)
        for name, new_body in workloads.tampered_bodies(kind, body, TRIALS).items():
            yield exp, f"{exp.name}: {name}", header, new_body


def test_every_tamper_class_is_rejected(clean_runs, tmp_path):
    seen = 0
    for exp, label, header, new_body in _tamper_cases(clean_runs):
        out = tmp_path / f"case{seen}"
        out.mkdir()
        (out / "report.json").write_bytes((exp.out_dir / "report.json").read_bytes())
        text = new_body if isinstance(new_body, str) else "".join(
            line + "\n" for line in new_body)
        (out / exp.log.name).write_text(header + "\n" + text, encoding="utf-8")
        with pytest.raises(CheckError):
            exp.check_log(out)
        seen += 1
    assert seen == 2 * 9 + 5 + 4   # two chsh modes, epr, sterngerlach


def test_flipped_draw_is_caught_even_when_the_report_agrees(clean_runs, tmp_path):
    """A log and report changed together still disagree with the draw."""
    exp = clean_runs[0]
    header, body = workloads._lines_of(exp.log)
    sampled = checks._sample(4 * TRIALS)[0]
    out = tmp_path / "both"
    out.mkdir()
    body[sampled] = workloads._flip(body[sampled], "a_out")
    (out / exp.log.name).write_text(header + "\n" + "".join(b + "\n" for b in body))
    summary = checks.read_pair_log(out / exp.log.name, "chsh", checks.CHSH_PAIRS, TRIALS,
                                   "born_sampling")
    report = (exp.out_dir / "report.json").read_text()
    import json
    data = json.loads(report)
    values = [checks.correlator(c) for c in summary.blocks]
    for name, v in zip(checks.CHSH_NAMES, values):
        data["results"]["correlators"][name] = v
        data["results"]["stderrs"][name] = math.sqrt((1 - v * v) / TRIALS)
    data["results"]["S"] = values[0] + values[1] + values[2] - values[3]
    data["results"]["S_stderr"] = math.sqrt(sum((1 - v * v) / TRIALS for v in values))
    (out / "report.json").write_text(json.dumps(data))
    with pytest.raises(CheckError, match="the draw gives"):
        exp.check_log(out)


@pytest.mark.parametrize("result, missed", [
    ((1, "mismatch"), False), ((5, "hash_mismatch"), False), ((4, "runtime_error"), False),
    ((0, "ok"), True), ((None, "IndexError"), True), ((1, "no JSON line"), True)])
def test_tamper_verdicts(result, missed):
    assert workloads.tamper_missed(result) is missed


def test_weight_table_check():
    thetas = [0.0, 0.4, 1.3, 2.0]
    good = checks.closed_form_weights(thetas)
    checks.check_weight_table(good, thetas)
    bad = good.copy()
    bad[[0, 3]] += [1e-9, -1e-9]       # keeps the sum, breaks the closed form
    with pytest.raises(CheckError):
        checks.check_weight_table(bad, thetas)
    assert checks.min_weight_three(math.pi / 3) == pytest.approx(-1 / 16, abs=1e-15)


def test_born_and_amplitude_checks():
    vectors = [(math.cos(t), math.sin(t), 0.0) for t in (0.1, 0.7, 2.0)]
    s = checks.sign_rows(3)
    intensity = np.sum((s @ np.array(vectors)) ** 2, axis=1)
    probs = intensity / intensity.sum()
    checks.check_born_table(probs, vectors, range(8))
    with pytest.raises(CheckError):
        checks.check_born_table(np.roll(probs, 1), vectors, range(8))

    class Q:
        w, x, y, z = 0.0, 2 * vectors[0][0], 2 * vectors[0][1], 0.0
    checks.check_marginal_amplitude(Q, vectors[:2], {0: 1})
    with pytest.raises(CheckError):
        checks.check_marginal_amplitude(Q, vectors[:2], {0: -1})


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(39))) == (38, "max")
    assert run.tail_percentile(list(range(100))) == (89, "p90")
    assert run.tail_percentile(list(range(1, 201))) == (190, "p95")
    assert run.tail_percentile(list(range(1, 1001))) == (990, "p99")


def test_best_round_takes_each_operation_at_its_fastest():
    ops = [workloads.Op("w", None, "write", 100), workloads.Op("r", None, "read", 50),
           workloads.Op("x", None)]
    rounds = []
    for latencies in ([0.2, 0.1, 0.4], [0.1, 0.3, 0.5], [0.4, 0.2, 0.3]):
        rnd = run.Round(traced=False)
        rnd.latencies, rnd.failed = latencies, [False] * 3
        rounds.append(rnd)
    assert run.best_latencies(rounds) == [0.1, 0.1, 0.3]
    metrics, _ = run.end_to_end(ops, rounds, setup_s=1.0, peak_rss_mb=64.0)
    assert metrics["wall_s"][0] == pytest.approx(0.5)
    assert metrics["trials_per_s"][0] == pytest.approx(1000.0)
    assert metrics["records_verified_per_s"][0] == pytest.approx(500.0)
    assert metrics["ops_per_s"][0] == pytest.approx(6.0)
    assert metrics["op_p50_ms"][0] == pytest.approx(100.0)
    assert metrics["op_tail_ms"][0] == pytest.approx(300.0)     # fewer than 40: the maximum
