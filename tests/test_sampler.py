import json
import os
import subprocess
import sys

from hypothesis import given, settings, strategies as st

import radograph
from radograph import bignat, oracle, sampler
from radograph.sampler import SAMPLING_RULE, report, sample


def test_sample_core_is_valid():
    o = sample(seed=7, depth=10)
    assert o.core().check() is None
    assert len(o.core()) == 10


def test_sample_deterministic_replay():
    a = sample(seed=42, depth=8).core().pairs()
    b = sample(seed=42, depth=8).core().pairs()
    assert a == b


def test_sample_seeds_differ():
    a = sample(seed=1, depth=8).core().pairs()
    b = sample(seed=2, depth=8).core().pairs()
    assert a != b


def test_no_cycles_by_default():
    for seed in range(6):
        o = sample(seed=seed, depth=12)
        rep = report(o, trials=0)
        assert rep.closed_cycle_count == 0
        assert all(p["kind"] == "path" for p in o.core().orbit_paths())


def test_allow_cycles_still_valid():
    for seed in range(4):
        o = sample(seed=seed, depth=12, allow_cycles=True)
        assert o.core().check() is None


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), depth=st.integers(0, 8))
def test_sample_valid_at_every_depth(seed, depth):
    o = sample(seed=seed, depth=depth)
    assert o.core().check() is None
    assert len(o.core()) == depth


def test_report_counts_match_orbit_paths():
    o = sample(seed=3, depth=14, allow_cycles=True)
    rep = report(o, trials=0)
    paths = o.core().orbit_paths()
    assert rep.orbit_chain_count == sum(1 for p in paths if p["kind"] == "path")
    assert rep.closed_cycle_count == sum(1 for p in paths if p["kind"] == "cycle")


def test_report_zero_trials_not_applicable():
    rep = report(sample(seed=0, depth=6), trials=0)
    assert rep.witness_success_rate == "not-applicable"


def test_report_rate_in_unit_interval():
    rep = report(sample(seed=5, depth=8), trials=10)
    assert 0.0 <= rep.witness_success_rate <= 1.0


def test_report_witness_rate_is_one():
    for seed in range(6):
        for depth in (0, 6, 10):
            rep = report(sample(seed=seed, depth=depth), trials=8, seed=seed)
            assert rep.witness_success_rate == 1.0


def test_realizers_walked_once(monkeypatch):
    # each fresh candidate costs about one min_with_bits_geq step
    calls = {"min": 0, "realize": 0}

    def count(module, name, key):
        inner = getattr(module, name)

        def counted(*args):
            calls[key] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)

    count(bignat, "min_with_bits_geq", "min")
    count(sampler, "realize", "realize")
    count(oracle, "realize", "realize")
    for s in range(4):
        report(sample(s, 8), 10, seed=s)
    assert calls["realize"] > 0
    assert calls["min"] <= 2 * calls["realize"]


def test_report_json_labeled_exploratory():
    rep = report(sample(seed=9, depth=6), trials=4)
    data = json.loads(json.dumps(rep.to_json()))
    assert data["exploratory"] is True
    assert data["sampling_rule"] == SAMPLING_RULE
    assert data["seed"] == 9
    assert data["depth"] == 6


# one line per sample seed: the sha256 of the sorted-key JSON of the core
# before and after report, and of the report
_SAMPLE_SCRIPT = """
import hashlib, json
from radograph.sampler import report, sample
for s in range(8):
    o = sample(s, 8)
    before = o.core().to_json()
    rep = report(o, 10, seed=s)
    text = json.dumps([before, o.core().to_json(), rep.to_json()], sort_keys=True)
    print(s, hashlib.sha256(text.encode()).hexdigest())
"""


def test_sample_and_report_ignore_hash_seed():
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(radograph.__file__))
        proc = subprocess.run([sys.executable, "-c", _SAMPLE_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout.splitlines())
    assert len(outs[0]) == 8
    assert outs[0] == outs[1]
