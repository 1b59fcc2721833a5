import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import radograph
from radograph import bignat, oracle, sampler
from radograph.graph import adjacent, realize
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

        def counted(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(bignat, "min_with_bits_geq", "min")
    count(sampler, "realize", "realize")
    count(oracle, "realize", "realize")
    for s in range(4):
        report(sample(s, 8), 10, seed=s)
    assert calls["realize"] > 0
    assert calls["min"] <= 2 * calls["realize"]


def reference_pick(rng, fwd, anchor, allow_cycles, forward):
    """The eager pick: enumerate every candidate, then draw."""
    if forward:
        tau = {fwd[u]: adjacent(anchor, u) for u in fwd}
        taken = set(fwd.values())
    else:
        tau = {u: adjacent(anchor, fwd[u]) for u in fwd}
        taken = set(fwd)
    rd = set(fwd) | set(fwd.values())
    cands = []
    if allow_cycles:
        for w in sorted(rd - taken):
            if w != anchor and all(adjacent(w, u) == bool(b) for u, b in tau.items()):
                cands.append(w)
    forbidden = rd | {anchor}
    w = 0
    while len(cands) < 16:
        w = realize(tau, forbidden, w)
        cands.append(w)
    return cands[rng.randrange(len(cands))]


@pytest.mark.parametrize("allow_cycles", [False, True])
def test_lazy_pick_matches_reference(monkeypatch, allow_cycles):
    # every pick of sample(seed, 11) is checked, so the cores seen are the
    # ones sample builds at depths 0..10, in both directions
    lazy = sampler._pick
    picks = []

    def checked(rng, fwd, anchor, allow_cycles, forward):
        twin = random.Random()
        twin.setstate(rng.getstate())
        want = reference_pick(twin, fwd, anchor, allow_cycles, forward)
        got = lazy(rng, fwd, anchor, allow_cycles, forward)
        assert got == want
        assert rng.getstate() == twin.getstate()
        picks.append(got)
        return got

    monkeypatch.setattr(sampler, "_pick", checked)
    for seed in range(41):
        sample(seed, 11, allow_cycles)
    assert len(picks) == 41 * 11


def test_sample_builds_only_the_drawn_realizers(monkeypatch):
    # the eager pick built 16 realizers per step: 512 calls for this run
    calls = []
    inner = sampler.realize

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(sampler, "realize", counted)
    for s in range(4):
        sample(s, 8)
    assert 0 < len(calls) <= 400


class _Hits(frozenset):
    """A forbidden set that counts in calls["hits"] the candidates found in it."""

    def __new__(cls, items, calls):
        self = super().__new__(cls, items)
        self.calls = calls
        return self

    def __contains__(self, v):
        hit = frozenset.__contains__(self, v)
        self.calls["hits"] += hit
        return hit


def test_realize_makes_one_kernel_pass_per_candidate(monkeypatch):
    # one kernel call per realizer and one per forbidden hit: 300 calls
    # for 296 realize calls and 4 hits here, and 570 when a limit that
    # realized tau cost a second call from its successor
    calls = {"kernel": 0, "realize": 0, "hits": 0}
    kernel = bignat.min_with_bits_geq

    def counted_kernel(*args, **kwargs):
        calls["kernel"] += 1
        return kernel(*args, **kwargs)

    def counted_realize(tau, forbidden=(), *args, inner=sampler.realize):
        calls["realize"] += 1
        return inner(tau, _Hits(forbidden, calls), *args)

    monkeypatch.setattr(bignat, "min_with_bits_geq", counted_kernel)
    monkeypatch.setattr(sampler, "realize", counted_realize)
    monkeypatch.setattr(oracle, "realize", counted_realize)
    for s in range(4):
        sample(s, 8)
    assert calls["realize"] > 0 and calls["hits"] > 0
    assert calls["kernel"] == calls["realize"] + calls["hits"]


def test_negative_depth_or_trials_is_rejected():
    with pytest.raises(ValueError, match="depth"):
        sample(0, -3)
    with pytest.raises(ValueError, match="trials"):
        report(sample(0, 2), -2)


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
