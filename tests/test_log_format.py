"""The trial-log format is a contract: shipped logs are pinned by sha256.

The hashes were taken from the per-record `json.dumps` writer that the
block encoders replaced; any change to the bytes of a shipped sampling log,
for any worker count, fails here.  The block codecs are checked against the
per-record encoders, which stay the definition of a line.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvqm import beamline, epr, runner
from hvqm.beamline import TrialEvent, event_json
from hvqm.config import apply_overrides, parse_config
from hvqm.epr import TrialRecord, trial_record_json
from hvqm.runner import run_experiment
from hvqm.spin import Direction

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# shipped seed and trials of each sampling config
SHIPPED_LOG_SHA256 = {
    "chsh_mc": ("trials.jsonl",
                "eb4f5ce0a91a57f1bd388b2d0d522602b8da4bd7aaf286e6cd4f0c72832f5792"),
    "chsh_lhv": ("trials.jsonl",
                 "e959c8bd1145994a610d18da9a5e5b0c2502489b2055167a1c6aa8544d9c96e2"),
    "epr_sampling": ("trials.jsonl",
                     "40e9848fa3a3bec347942fd0b48f534fa8976c08476fe61966670fbafc69c5fe"),
    "sterngerlach": ("events.jsonl",
                     "00225b6c8b451417067f54fa07698a65d6b45437417963393be4654e7d579ef7"),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", sorted(SHIPPED_LOG_SHA256))
def test_shipped_log_sha256(tmp_path, name, workers):
    log_name, want = SHIPPED_LOG_SHA256[name]
    run_experiment(parse_config(CONFIG_DIR / f"{name}.cfg"), tmp_path, workers=workers)
    assert hashlib.sha256((tmp_path / log_name).read_bytes()).hexdigest() == want


# --- the block codecs against the per-record encoders ------------------------

starts = st.integers(min_value=0, max_value=10 ** 12)
modes = st.sampled_from([m.value for m in epr.Mode])
outcomes = st.lists(st.sampled_from([1, -1]), max_size=60)


@st.composite
def outcome_pairs(draw):
    a = draw(outcomes)
    b = draw(st.lists(st.sampled_from([1, -1]), min_size=len(a), max_size=len(a)))
    return np.array(a, dtype=np.int8), np.array(b, dtype=np.int8)


@st.composite
def event_arrays(draw):
    """(absorbed_at, outcome): -1 and 0 stand for no absorption, no outcome."""
    n = draw(st.integers(min_value=0, max_value=60))
    stages = draw(st.lists(st.integers(min_value=0, max_value=120), min_size=1, max_size=3))
    absorbed = draw(st.lists(st.sampled_from([-1] + stages), min_size=n, max_size=n))
    outcome = [draw(st.sampled_from([1, -1])) if x < 0 else 0 for x in absorbed]
    return np.array(absorbed, dtype=np.int64), np.array(outcome, dtype=np.int64)


@given(starts, outcome_pairs(), st.integers(0, 3), st.integers(0, 3), modes)
@example(9_995, (np.ones(10, np.int8), -np.ones(10, np.int8)), 0, 2, "born_sampling")
@example(0, (np.ones(0, np.int8), np.ones(0, np.int8)), 1, 3, "classical_lhv")
@settings(max_examples=200, deadline=None)
def test_encode_block_is_the_joined_records(start, pair, ai, bi, mode):
    a_out, b_out = pair
    want = "".join(trial_record_json(TrialRecord(start + i, ai, bi, int(a), int(b), mode)) + "\n"
                   for i, (a, b) in enumerate(zip(a_out, b_out)))
    got = epr.encode_block(start, a_out, b_out, ai, bi, mode)
    assert got == want
    assert max(map(len, got.splitlines(keepends=True)), default=0) <= epr.longest_record(
        start + len(a_out), ai, bi, mode)


@given(starts, outcome_pairs(), modes)
@settings(max_examples=200, deadline=None)
def test_decode_block_inverts_encode_block(start, pair, mode):
    a_out, b_out = pair
    a, b = epr.decode_block(epr.encode_block(start, a_out, b_out, 1, 2, mode).encode(), mode)
    assert a.tolist() == a_out.tolist() and b.tolist() == b_out.tolist()


@given(starts, event_arrays())
@example(99_990, (np.array([-1, 2, 13, -1] * 5), np.array([1, 0, 0, -1] * 5)))
@settings(max_examples=200, deadline=None)
def test_encode_events_is_the_joined_events(start, events):
    absorbed_at, outcome = events
    want = "".join(event_json(TrialEvent(start + i, int(x) if x >= 0 else None,
                                         int(o) if o else None)) + "\n"
                   for i, (x, o) in enumerate(zip(absorbed_at, outcome)))
    got = beamline.encode_events(start, absorbed_at, outcome)
    assert got == want
    widest = max(absorbed_at.max(initial=-1), 0)
    assert max(map(len, got.splitlines(keepends=True)), default=0) <= beamline.longest_event(
        start + len(absorbed_at), widest)


@given(starts, event_arrays())
@settings(max_examples=200, deadline=None)
def test_decode_events_inverts_encode_events(start, events):
    absorbed_at, outcome = events
    x, o = beamline.decode_events(beamline.encode_events(start, absorbed_at, outcome).encode())
    assert x.tolist() == absorbed_at.tolist() and o.tolist() == outcome.tolist()


def test_monte_carlo_events_match_the_record_list():
    seq = [beamline.split(Direction(1.0, 0.0, 0.0), block=-1),
           beamline.analyze(Direction(0.0, 1.0, 0.0))]
    _, _, events = beamline.monte_carlo_sequence(seq, beamline.BeamState.plus_z(), 500, seed=2,
                                                 start=40)
    assert events.encode() == "".join(event_json(e) + "\n" for e in events)
    assert [e.trial for e in events] == list(range(40, 540))


@pytest.mark.parametrize("name", sorted(SHIPPED_LOG_SHA256))
def test_log_does_not_depend_on_block_size(tmp_path, monkeypatch, name):
    """Blocks of 7 trials write the same bytes as the default, and replay."""
    log_name, _ = SHIPPED_LOG_SHA256[name]
    cfg = apply_overrides(parse_config(CONFIG_DIR / f"{name}.cfg"), trials=100)
    run_experiment(cfg, tmp_path / "default")
    monkeypatch.setattr(runner, "CHUNK", 7)
    run_experiment(cfg, tmp_path / "small")
    assert (tmp_path / "default" / log_name).read_bytes() == (
        tmp_path / "small" / log_name).read_bytes()
    assert runner.replay_run(tmp_path / "small" / log_name, cfg).verdict == "OK"
