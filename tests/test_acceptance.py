"""Acceptance suite: one test per criterion, each with a pinned budget and a
single summary line. Reference values come from independent brute-force
oracles (the inline scan below, and naive_checker for the snapshot checker),
never from the code under test.
"""

import copy
import json
import random
import time

import pytest

from radograph.bignat import canon
from radograph.graph import adjacent, realize
from radograph.oracle import (
    CompactFamily,
    build_c0,
    build_fp,
    identity_oracle,
    replay,
    seeded_oracle,
)
from radograph.splitting import split, split_far
from radograph.translate import translate, truss_factor, verify
from radograph.triple import GoodTriple

from naive_checker import dK, violated_conditions


def _scan(tau, forbidden, bound):
    """Brute-force realize: linear scan with inline BIT adjacency."""
    v = max(list(tau) + [bound]) + 1 if tau or bound else 1
    while True:
        if v not in forbidden:
            ok = True
            for w, b in tau.items():
                bit = (v >> w) & 1 if w < v else (w >> v) & 1
                if w == v or bit != b:
                    ok = False
                    break
            if ok:
                return v
        v += 1


def test_criterion_1_random_graph_axioms():
    rng = random.Random(20260823)
    start = time.monotonic()
    for _ in range(10_000):
        k = rng.randrange(0, 13)
        dom = rng.sample(range(10), min(k, 10))
        tau = {w: rng.randrange(2) for w in dom}
        forbidden = set(rng.sample(range(600), rng.randrange(0, 65)))
        bound = rng.randrange(0, 4)
        v = realize(tau, forbidden, bound)
        assert v not in forbidden
        assert v > bound and all(v > w for w in tau)
        for w, b in tau.items():
            assert adjacent(v, w) == bool(b)
        assert v == _scan(tau, forbidden, bound)
    elapsed = time.monotonic() - start
    assert elapsed <= 5.0
    print(f"CRITERION 1: PASS (10000 realize instances == scan, {elapsed:.2f}s <= 5s)")


_SEED_POOL = [
    {0: 1, 1: 0},
    {2: 3, 3: 2},
    {0: 2, 2: 0},
    {1: 4, 4: 1},
    {0: 1, 1: 0, 4: 8, 8: 4},
    {2: 3},
    {0: 2},
    {1: 4},
]


def test_criterion_2_splitting_soundness():
    rng = random.Random(7)
    start = time.monotonic()
    far_checks = 0
    for i in range(500):
        n = rng.randrange(1, 5)
        members = [identity_oracle(seed=0)]
        picks = rng.sample(range(len(_SEED_POOL)), n - 1)
        members += [seeded_oracle(_SEED_POOL[p]) for p in picks]
        fam = CompactFamily(members)
        m_set = set(rng.sample(range(7), rng.randrange(1, 7)))
        tau = {m: rng.randrange(2) for m in m_set}
        bound = rng.randrange(0, 6)
        v = split(fam, m_set, tau, bound)
        assert v > bound
        for m in m_set:
            assert adjacent(m, v) == bool(tau[m])
        ms = sorted(m_set)
        for a, h in enumerate(members):
            for hp in members[a + 1:]:
                if any(h.image(m) != hp.image(m) for m in ms):
                    assert h.image(v) != hp.image(v)
                    assert h.preimage(v) != hp.preimage(v)
        if i % 10 == 0 and len(members) <= 2:
            w = split_far(fam, m_set, tau)
            for m in m_set:
                assert dK(fam, w, m, 4) > 4
            far_checks += 1
    elapsed = time.monotonic() - start
    assert far_checks >= 10
    assert elapsed <= 60.0
    print(f"CRITERION 2: PASS (500 splits re-queried, {far_checks} radius-4 "
          f"far checks, {elapsed:.1f}s <= 60s)")


@pytest.fixture(scope="module")
def translation_runs():
    runs = []
    for i in range(50):
        h = seeded_oracle({i: i + 50})
        fam = CompactFamily([identity_oracle(), h])
        runs.append(translate(fam, build_c0(seed=0), 16))
    return runs


def test_criterion_3_good_triple_induction(translation_runs):
    start = time.monotonic()
    total_checks = 0
    for res in translation_runs:
        for entry in res.trace:
            assert entry["check"]["ok"], entry
            total_checks += 1
        assert res.triple.find_bad(res.triple.classes()) == []
        assert res.triple.find_ugly(res.triple.classes()) == []
    elapsed = time.monotonic() - start
    assert total_checks >= 800
    assert elapsed <= 600.0
    print(f"CRITERION 3: PASS (50 runs, {total_checks} green checks >= 800, "
          f"detectors empty)")


def test_criterion_4_conjugation_identity(translation_runs):
    points = 0
    for res in translation_runs:
        t = res.triple
        for c in t.classes():
            for v, vbar in t.g.items():
                hv = c.hmap[vbar]
                assert c.phi[hv] == t.target.image(c.phi[v])
                points += 1
    print(f"CRITERION 4: PASS ({points} pointwise identities, 0 mismatches)")


def test_criterion_5_schedule_hypotheses(translation_runs):
    for res in translation_runs:
        t = res.triple
        # even part: v_k enters dom(g) and ran(g) no later than round 2k+2
        dom_round, ran_round = {}, {}
        for e in res.trace:
            if e["op"] == "extend_domain_g":
                dom_round.setdefault(e["arg"], e["round"])
            elif e["op"] == "extend_range_g":
                ran_round.setdefault(e["arg"], e["round"])
        for k in range(8):
            assert k in t.g and k in t.g_inv
            assert dom_round[k] <= 2 * k + 2
            assert ran_round[k] <= 2 * k + 2
        # odd part: the 8 odd rounds cover the 8 least-index target orbits
        reps = t.target.orbit_representatives()[:8]
        for z in reps:
            zoid = t.target.orbit_id(z)
            for c in t.classes():
                assert any(t.target.orbit_id(pv) == zoid for pv in c.phi.values())
        odd = [e for e in res.trace if e["parity"] == "odd"]
        assert sum(1 for e in odd if e["op"] == "extend_phi_range") == 8
    print("CRITERION 5: PASS (induction hypotheses verified from all 50 traces)")


def test_criterion_6_fp_separation():
    start = time.monotonic()
    rng = random.Random(3)
    patterns = set()
    while len(patterns) < 8:
        patterns.add(tuple(rng.randrange(2) for _ in range(6)))
    patterns = sorted(patterns)
    oracles = {}
    checked = 0
    for p in patterns:
        o = build_fp(p)
        o.develop(12)
        oracles[p] = o
        for oid in [o.orbit_id(r) for r in o.orbit_representatives()]:
            pts = o.orbit_points(oid)
            for i, v in enumerate(pts):
                for j in range(i + 1, len(pts)):
                    n = j - i
                    want = (p[n - 1] == 0) if n <= 6 else False
                    assert adjacent(v, pts[j]) == want
                    checked += 1
    obstructions = 0
    for a in patterns:
        for b in patterns:
            if a >= b:
                continue
            n = next(i + 1 for i in range(6) if a[i] != b[i])
            o = oracles[a]
            v = o.orbit_points(o.orbit_id(o.orbit_representatives()[0]))[0]
            fn = v
            for _ in range(n):
                fn = o.image(fn)
            want_a = a[n - 1] == 0
            assert adjacent(v, fn) == want_a
            assert want_a != (b[n - 1] == 0)
            obstructions += 1
    elapsed = time.monotonic() - start
    assert obstructions == 28
    assert elapsed <= 30.0
    print(f"CRITERION 6: PASS (8 patterns, {checked} pattern checks, "
          f"{obstructions} pairwise obstructions, {elapsed:.1f}s <= 30s)")


def test_criterion_7_c0_conditions():
    o = build_c0(seed=0)
    o.develop(12)
    intra = 0
    for oid in [o.orbit_id(r) for r in o.orbit_representatives()]:
        pts = o.orbit_points(oid)
        for i, v in enumerate(pts):
            for j in range(i + 1, min(i + 13, len(pts))):
                assert not adjacent(v, pts[j])
                intra += 1
    rng = random.Random(11)
    touched = sorted(o.touched())[:40]
    for _ in range(100):
        picked = rng.sample(touched, rng.randrange(2, 5))
        cut = rng.randrange(1, len(picked))
        a_set, b_set = set(picked[:cut]), set(picked[cut:])
        v = o.c0_witness(a_set, b_set)
        oids = {o.orbit_id(x) for x in a_set | b_set}
        for w in o.touched():
            if w in a_set:
                assert adjacent(v, w)
            elif o.orbit_id(w) in oids:
                assert not adjacent(v, w)
    print(f"CRITERION 7: PASS ({intra} intra-orbit non-edges, "
          f"100 two-set witnesses verified)")


def test_criterion_8_truss_demo():
    verified = 0
    rejected = 0
    mutations = 0
    for i in range(10):
        h = seeded_oracle({2 * i: 2 * i + 101})
        res, certs = truss_factor(h, 12)
        assert len(certs) == 2
        for cert in certs:
            rep = verify(cert)
            assert rep["ok"] and rep["checked"] >= 1
            verified += 1
            for field, idx in (("checked_points", 0), ("phi", 1), ("g", 0)):
                bad = copy.deepcopy(cert)
                if field == "checked_points":
                    bad[field][idx] = 999999999
                else:
                    bad[field][idx][1] = 999999999
                mutations += 1
                if not verify(bad)["ok"]:
                    rejected += 1
    assert rejected == mutations
    print(f"CRITERION 8: PASS ({verified} certificates verified, "
          f"{rejected}/{mutations} mutations rejected)")


def _mutate(snapshot, rng):
    snap = copy.deepcopy(snapshot)
    spots = []
    for i, pair in enumerate(snap["g"]):
        spots.append(("g", i, 0))
        spots.append(("g", i, 1))
    for i, m in enumerate(snap["M"]):
        spots.append(("M", i, None))
    for ci, entry in enumerate(snap["phi"]):
        for i, pair in enumerate(entry["map"]):
            spots.append(("phi", (ci, i), 0))
            spots.append(("phi", (ci, i), 1))
    kind, where, slot = spots[rng.randrange(len(spots))]
    value = rng.choice([rng.randrange(0, 50), 999_999_937])
    if kind == "g":
        snap["g"][where][slot] = value
    elif kind == "M":
        snap["M"][where] = value
    else:
        ci, i = where
        snap["phi"][ci]["map"][i][slot] = value
    return snap


def test_criterion_9_checker_mutation_detection():
    rng = random.Random(99)
    bases = []
    for seed_pair in ({2: 3}, {0: 5}, {1: 7}):
        fam = CompactFamily([identity_oracle(), seeded_oracle(seed_pair)])
        res = translate(fam, build_c0(seed=0), 8)
        snap = res.triple.to_snapshot()
        members = [replay(log) for log in snap["family_ref"]]
        target = replay(snap["target_ref"])
        bases.append((snap, members, target))
    violating = 0
    caught = 0
    benign = 0
    while violating < 200:
        snap, members, target = bases[rng.randrange(len(bases))]
        mutated = _mutate(snap, rng)
        naive = violated_conditions(mutated, members, target)
        if not naive:
            benign += 1
            assert benign < 500, "mutator produces too few violating corruptions"
            continue
        violating += 1
        try:
            t = GoodTriple.from_snapshot(mutated, CompactFamily(members), target)
        except Exception:
            caught += 1
            continue
        detected = False
        try:
            rep = t.check()
            detected = (not rep["ok"] or bool(t.find_bad(t.classes()))
                        or bool(t.find_ugly(t.classes())))
        except Exception:
            detected = True
        if detected:
            caught += 1
        else:
            raise AssertionError(
                f"corruption missed by package checker; brute-force flags {naive}"
            )
    assert caught == violating == 200
    print(f"CRITERION 9: PASS (200/200 violating corruptions caught, "
          f"{benign} benign mutations skipped)")
