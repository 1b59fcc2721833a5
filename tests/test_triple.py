import copy
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from radograph import adjacent, realize
from radograph.bignat import decode, decode_map, encode, encode_map
from radograph.errors import (
    AlreadyDefined,
    ConstructionConflict,
    FiniteOrbitsUnsupported,
    PreconditionPhiMissing,
)
from radograph.oracle import (
    CompactFamily,
    build_c0,
    build_fp,
    identity_oracle,
    replay,
    seeded_oracle,
)
from radograph import triple
from radograph.translate import translate
from radograph.triple import BadSituation, GoodTriple, _join, _root

from naive_checker import _components, _has_cycle

SWAP = {0: 1, 1: 0}


def fresh(seed=0, members=None):
    target = build_c0(seed=seed)
    target.develop(1)
    fam = CompactFamily(members or [identity_oracle(), seeded_oracle({2: 3})])
    return GoodTriple(fam, target)


def grown(t=None):
    """Triple with one full even-round of growth at vertex 0."""
    t = t or fresh()
    t.add_to_m({0} | {h.image(0) for h in t.family})
    t.extend_phi_all(0)
    t.extend_domain_g(0)
    for value in sorted({h.image(0) for h in t.family}):
        t.extend_phi_all(value)
    t.extend_range_g(0)
    return t


def test_init_passes_check():
    t = fresh()
    assert t.check() == {"ok": True}
    assert t.find_bad(t.classes()) == []
    assert t.find_ugly(t.classes()) == []


def test_init_rejects_cycle_member():
    target = build_c0(seed=0)
    with pytest.raises(FiniteOrbitsUnsupported):
        GoodTriple(CompactFamily([seeded_oracle(SWAP)]), target)


def test_init_rejects_edgeful_target():
    fam = CompactFamily([identity_oracle()])
    with pytest.raises(ConstructionConflict):
        GoodTriple(fam, build_fp((0, 1)))
    # an edge-free pattern target is fine
    assert GoodTriple(fam, build_fp((1, 1))).check() == {"ok": True}


def test_extend_phi_all_defines_every_class():
    t = fresh()
    t.add_to_m({0})
    t.extend_phi_all(0)
    for c in t.classes():
        assert 0 in c.phi
        z = c.phi[0]
        assert not adjacent(z, t.target.image(z))  # fresh-orbit witness edge-free
    assert t.check() == {"ok": True}
    # idempotent
    t.extend_phi_all(0)
    assert t.check() == {"ok": True}


def test_extend_phi_twice_same_class_errors():
    t = fresh()
    t.add_to_m({0})
    t.extend_phi_all(0)
    classes = t.classes()
    with pytest.raises(AlreadyDefined):
        t.extend_phi(classes, classes[0], 0)


def test_extend_phi_outside_m_rejected():
    t = fresh()
    with pytest.raises(ValueError):
        t.extend_phi_all(0)


def test_extend_domain_g():
    t = fresh()
    t.add_to_m({0} | {h.image(0) for h in t.family})
    with pytest.raises(PreconditionPhiMissing):
        t.extend_domain_g(0)
    t.extend_phi_all(0)
    t.extend_domain_g(0)
    assert 0 in t.g
    assert t.check() == {"ok": True}
    with pytest.raises(AlreadyDefined):
        t.extend_domain_g(0)


def test_extend_domain_g_deterministic():
    a, b = grown(), grown()
    assert a.g[0] == b.g[0]


def test_full_round_and_range():
    t = grown()
    assert 0 in t.g and 0 in t.g_inv
    assert t.check() == {"ok": True}
    # phi honors the conjugation identity on dom(g)
    for c in t.classes():
        for v, vbar in t.g.items():
            hv = c.hmap[vbar]
            if v in c.phi and hv in c.phi:
                assert c.phi[hv] == t.target.image(c.phi[v])


def test_monotonicity_across_ops():
    t = fresh()
    t.add_to_m({0} | {h.image(0) for h in t.family})
    t.extend_phi_all(0)
    snap_phi = [dict(p) for p in t._phi]
    snap_m = set(t.M)
    t.extend_domain_g(0)
    for old, new in zip(snap_phi, t._phi):
        for k, v in old.items():
            assert new[k] == v
    assert snap_m <= t.M


def test_extend_phi_range():
    t = fresh()
    t.target.develop(1)
    z = t.target.orbit_representatives()[0]
    t.extend_phi_range(z)
    zoid = t.target.orbit_id(z)
    for c in t.classes():
        assert any(t.target.orbit_id(pv) == zoid for pv in c.phi.values())
    assert t.check() == {"ok": True}
    # classes already covering z are untouched
    sizes = [len(c.phi) for c in t.classes()]
    t.extend_phi_range(z)
    assert [len(c.phi) for c in t.classes()] == sizes


def test_planted_iv_violation_detected():
    t = grown()
    c = t.classes()[0]
    vbar = t.g[0]
    hv = c.hmap[vbar]
    # same-orbit wrong point: shifts the pair off the conjugation identity
    c.phi[hv] = t.target.image(t.target.image(c.phi[0]))
    rep = t.check()
    assert rep["ok"] is False
    assert rep["condition"] == "(iv)"


def test_planted_phi_corruption_detected():
    t = grown()
    c = t.classes()[0]
    w = next(iter(c.phi))
    c.phi[w] = 1  # a vertex the target never built as a witness
    rep = t.check()
    assert rep["ok"] is False


def planted_bad():
    """Hand-built phi maps that disagree on the edge clause, bypassing checks."""
    t = fresh(members=[identity_oracle(), seeded_oracle({0: 1})])
    t.add_to_m({0, 1, 4})
    for v in (0, 1, 4):
        t.extend_phi_all(v)
    classes = t.classes()
    assert len(classes) == 2
    c1 = next(c for c in classes if c.hmap[0] == 0)  # the identity class
    f = t.target
    # x=0 pulls back to 0 in c1 and pushes to x'=1 in the other class; plant
    # an edge between phi(0) and f(phi(4)) only on the identity side
    x_new = f.star_witness({f.image(c1.phi[4]): 1})
    c1.phi[0] = x_new
    return t


def test_planted_bad_situation_found():
    t = planted_bad()
    bad = t.find_bad(t.classes())
    assert any(b.x == 0 and b.y == 4 for b in bad)
    rep = t.check()
    assert rep["ok"] is False


def test_planted_bad_situation_report_is_json():
    rep = planted_bad().check()
    assert rep["ok"] is False
    assert json.loads(json.dumps(rep)) == rep


def _two_classes(m_points, defined):
    """A triple over {id, seeded_oracle({0: 5})} with M = m_points, phi of the
    identity class defined at defined[0] and of the other at defined[1], each
    point through extend_phi and a green check."""
    t = fresh(members=[identity_oracle(), seeded_oracle({0: 5})])
    t.add_to_m(m_points)
    classes = t.classes()
    assert [c.hmap[0] for c in classes] == [0, 5]
    for cls, vertices in zip(classes, defined):
        for v in vertices:
            t.extend_phi(classes, cls, v)
            assert t.check() == {"ok": True}
    return t, classes


def _plant_ugly():
    # x = 0 and y = h(0) = 5 in the identity class, 5 not yet in the other:
    # after a green check, phi(0) is planted as a new key with the type
    # towards phi(5) that (i) asks, but adjacent to f(phi(5))
    t, (cid, _) = _two_classes({0, 5}, [(5,), ()])
    f = t.target
    z = f.star_witness({cid.phi[5]: adjacent(0, 5), f.image(cid.phi[5]): 1})
    f.image(z)
    cid.phi[0] = z
    return t


def _plant_bad():
    # x = 0 and x' = h(0) = 5, y = 1 in both classes: after a green check,
    # phi(0) is planted as a new key with the type towards phi(1) that (i)
    # asks, but with the edge to f(phi(1)) that the other class does not have
    t, (cid, ch) = _two_classes({0, 1, 5}, [(1,), (5, 1)])
    f = t.target
    rhs = adjacent(ch.phi[5], f.image(ch.phi[1]))
    z = f.star_witness({cid.phi[1]: adjacent(0, 1), f.image(cid.phi[1]): not rhs})
    f.image(z)
    cid.phi[0] = z
    return t


def test_ugly_report_is_json():
    rep = _plant_ugly().check()
    assert rep["condition"] == "(ix)"
    assert json.loads(json.dumps(rep))["witness"] == {"h": 0, "hp": 1, "x": 0, "y": 5}


def test_bad_report_is_json():
    rep = _plant_bad().check()
    assert rep["condition"] == "(x)"
    assert json.loads(json.dumps(rep))["witness"] == {"h": 0, "hp": 1, "x": 0, "xp": 5, "y": 1}


def test_detectors_on_their_own_see_what_an_incremental_check_drops(monkeypatch):
    # find_bad and find_ugly called outside check() test every situation of
    # the state, whatever the last check covered; so a final-state test on
    # them still fails when the incremental pairs of check() drop a situation
    pairs = triple._pairs
    monkeypatch.setattr(triple, "_pairs", lambda classes, full: (
        pairs(classes, True) if full else []))
    t = _plant_ugly()
    assert t.check() == {"ok": True}  # the mutant's check misses it
    assert [u.to_json() for u in t.find_ugly(t.classes())] == [
        {"h": 0, "hp": 1, "x": 0, "y": 5}]
    t = _plant_bad()
    assert t.check() == {"ok": True}
    assert [b.to_json() for b in t.find_bad(t.classes())] == [
        {"h": 0, "hp": 1, "x": 0, "xp": 5, "y": 1}, {"h": 1, "hp": 0, "x": 5, "xp": 0, "y": 1}]


def test_new_phi_key_in_the_orbit_of_another_chain_fails_v():
    # 0 and 2 are not adjacent, and no two points of one build_c0 orbit are,
    # so phi = {0: z, 2: f(z)} passes (i); but 0 and 2 lie on no common
    # hg-chain, so their values must not share an orbit. The first check
    # covers {0: z}, so the second tests 2 as a new key.
    t = fresh(members=[identity_oracle()])
    t.add_to_m({0, 2})
    t.extend_phi_all(0)
    assert t.check() == {"ok": True}
    c = t.classes()[0]
    c.phi[2] = t.target.image(c.phi[0])
    assert t.check() == {"ok": False, "condition": "(v)", "witness": 2}


def test_bad_situation_at_an_old_x_and_a_new_y_found():
    # x = 0 and x' = h(0) = 5 are checked first; then phi of the other class
    # gains y = 1 with the edge to f^-1(phi(5)) that makes the two sides of
    # the bad clause differ. Only the new key is y, so the check must find
    # the x it saw before.
    t, (cid, ch) = _two_classes({0, 1, 5}, [(0, 1), (5,)])
    f = t.target
    lhs = adjacent(cid.phi[0], f.image(cid.phi[1]))
    tau = {pw: adjacent(1, w) for w, pw in ch.phi.items()}
    tau[f.preimage(ch.phi[5])] = not lhs
    ch.phi[1] = f.star_witness(tau)
    f.image(ch.phi[1])
    rep = t.check()
    assert rep["condition"] == "(x)"
    assert rep["witness"]["y"] == 1


def test_check_after_a_failed_check_starts_over(monkeypatch):
    # a check that fails late, after it has joined the new pairs of hg into
    # its chains, must not leave them joined for the next check
    t = grown()
    assert t.check() == {"ok": True}
    t.add_to_m({1} | {h.image(1) for h in t.family})
    t.extend_phi_all(1)
    t.extend_domain_g(1)
    with monkeypatch.context() as m:
        m.setattr(GoodTriple, "find_bad", lambda self, classes: [BadSituation(0, 1, 0, 0, 0)])
        assert t.check()["condition"] == "(x)"
    assert t.check() == {"ok": True}


def _unsplit():
    """A green-checked triple in which members 1 and 2 form one class: both
    seeded maps send 256 to 257's partner alike, so they agree on M*; they
    part at 0."""
    t = fresh(members=[identity_oracle(), seeded_oracle({2: 3}),
                       seeded_oracle({2: 3, 128: 129})])
    t.add_to_m({256} | {h.image(256) for h in t.family})
    for v in sorted(t.M):
        t.extend_phi_all(v)
    assert [c.indices for c in t.classes()] == [[0], [1, 2]]
    assert t.check() == {"ok": True}
    return t


@pytest.mark.parametrize("kind, condition", [
    ("overwritten phi pair", "(i)"),
    ("overwritten g pair", "(i)"),
    ("dropped phi key", "(ii)"),
    ("class split through add_to_m", "(i)"),
    ("member with its own phi slot", "(vi)"),
])
def test_planted_fault_after_a_green_check(kind, condition):
    # each fault goes into a state whose every pair the last check covered;
    # the next check must report it as a full check of the same state does,
    # with the condition a check from scratch has always named
    t = _unsplit() if kind in ("class split through add_to_m",
                               "member with its own phi slot") else grown()
    assert t.check() == {"ok": True}
    c = t.classes()[-1]
    a, b = list(c.phi)[:2]
    if kind == "overwritten phi pair":
        c.phi[a] = c.phi[b]
    elif kind == "overwritten g pair":
        a, b = list(t.g)[:2]
        t.g[a] = t.g[b]
    elif kind == "dropped phi key":
        del c.phi[[w for w in c.phi if w in c.hg][-1]]
    elif kind == "class split through add_to_m":
        c.phi[b] = c.phi[a]  # a covered pair of the class that splits next
        t.add_to_m({0})
        assert len(t.classes()) == 3
    else:
        t._phi[c.indices[-1]] = dict(c.phi)
    twin = copy.copy(t)
    twin._phi = list(t._phi)
    twin._reset_caches()
    rep = t.check()
    assert rep["condition"] == condition
    assert rep == twin.check()


def test_overwritten_phi_value_fails_i():
    # check() trusts a phi pair only while the live map still holds it, so an
    # overwrite after a green check is tested again
    t = grown()
    assert t.check() == {"ok": True}
    c = t.classes()[0]
    a, b = list(c.phi)[:2]
    c.phi[a] = c.phi[b]
    rep = t.check()
    assert rep["ok"] is False
    assert rep["condition"] == "(i)"


def test_overwritten_g_value_fails_i():
    t = grown()
    assert t.check() == {"ok": True}
    a, b = list(t.g)[:2]
    t.g[a] = t.g[b]
    rep = t.check()
    assert rep["ok"] is False
    assert rep["condition"] == "(i)"


def test_unshared_phi_in_one_class_fails_vi_after_green_check():
    t = fresh()
    assert t.check() == {"ok": True}
    assert len(t.classes()) == 1  # M is empty, so every member agrees on M*
    t._phi[1] = {0: 5}
    rep = t.check()
    assert rep["ok"] is False
    assert rep["condition"] == "(vi)"


def test_snapshot_roundtrip():
    t = grown()
    snap = t.to_snapshot()
    fam = CompactFamily([replay(log) for log in snap["family_ref"]])
    target = replay(snap["target_ref"])
    t2 = GoodTriple.from_snapshot(snap, fam, target)
    assert t2.check() == {"ok": True}
    assert t2.to_snapshot()["g"] == snap["g"]
    assert t2.to_snapshot()["phi"] == snap["phi"]


def test_snapshot_g_leaving_m_fails_ii():
    # g(0) moves to a fresh vertex outside M of the same adjacency type, so g
    # stays a partial automorphism and only rd(g) <= M breaks
    snap = grown().to_snapshot()
    g = decode_map(snap["g"])
    M = {decode(m) for m in snap["M"]}
    g[0] = realize({g[u]: adjacent(u, 0) for u in g if u != 0}, M, max(M))
    assert g[0] not in M
    snap["g"] = encode_map(g)
    fam = CompactFamily([replay(log) for log in snap["family_ref"]])
    t = GoodTriple.from_snapshot(snap, fam, replay(snap["target_ref"]))
    rep = t.check()
    assert rep["ok"] is False
    assert rep["condition"] == "(ii)"


def _one_value_mutants(snap):
    """(i, key, copy) for each phi key of each snapshot class i: a copy of
    snap in which that key's value moved to a fresh vertex with the same
    adjacency to the other values of the map, so phi stays a partial
    automorphism."""
    for i, entry in enumerate(snap["phi"]):
        for j, (key, _) in enumerate(entry["map"]):
            bad = copy.deepcopy(snap)
            pairs = bad["phi"][i]["map"]
            values = [decode(w) for _, w in pairs]
            tau = {w: adjacent(values[j], w) for k, w in enumerate(values) if k != j}
            pairs[j][1] = encode(realize(tau, forbidden=[values[j]]))
            yield i, decode(key), bad


def test_check_reports_a_phi_value_the_target_never_built():
    # every mutant moves a phi value to a vertex the target never touched.
    # check() reports each without raising and without building anything in
    # the target: (iv), which reads f(phi(v)) from the target's core, where
    # the key lies on a pair of h o g, else (v), naming the key
    res = translate(CompactFamily([identity_oracle(), seeded_oracle({2: 3})]),
                    build_c0(seed=0), 6)
    snap = json.loads(json.dumps(res.triple.to_snapshot()))
    fam = CompactFamily([replay(log) for log in snap["family_ref"]])
    target = replay(snap["target_ref"])
    core = target.core()
    hg = [set(c.hg.items()) for c in res.triple.classes()]
    conditions = []
    for i, key, bad in _one_value_mutants(snap):
        moved = decode_map(bad["phi"][i]["map"])[key]
        assert moved not in target.touched()
        rep = GoodTriple.from_snapshot(bad, fam, target).check()
        assert target.core() == core
        if any(key in pair for pair in hg[i]):
            assert rep["condition"] == "(iv)", key
        else:
            assert rep == {"ok": False, "condition": "(v)", "witness": encode(key)}
        conditions.append(rep["condition"])
    assert (conditions.count("(iv)"), conditions.count("(v)")) == (21, 7)


def test_snapshot_mismatched_phi_rejected():
    t = grown()
    snap = t.to_snapshot()
    snap["phi"] = snap["phi"][:1] if len(snap["phi"]) > 1 else []
    fam = CompactFamily([replay(log) for log in snap["family_ref"]])
    target = replay(snap["target_ref"])
    with pytest.raises(ValueError):
        GoodTriple.from_snapshot(snap, fam, target)


@st.composite
def injective_maps(draw):
    """An injective map on a few naturals, cycles allowed, and a dom(phi)
    holding every vertex of the map and maybe a few more, as (ii) makes it."""
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    perm = draw(st.permutations(range(n)))
    dom = draw(st.sets(st.integers(0, n - 1)))
    hg = {labels[i]: labels[perm[i]] for i in sorted(dom)}
    extra = draw(st.sets(st.integers(61, 70), max_size=3))
    return hg, set(hg) | set(hg.values()) | extra


@given(injective_maps())
@example(({3: 5, 5: 3}, {3, 5, 9}))
@example(({3: 5, 5: 8, 1: 2}, {1, 2, 3, 5, 8, 61}))
@settings(max_examples=300, deadline=None)
def test_chain_ids_match_naive_walk(case):
    # the chains as check() builds them for (v) and (vii): hg's pairs joined
    # one by one, a join within one chain closing a cycle
    hg, phi_dom = case
    links = {}
    closed = not all(_join(links, v, w) for v, w in hg.items())
    if _has_cycle(hg):
        assert closed
        return
    assert not closed
    ids = {w: _root(links, w) for w in phi_dom}
    comp = _components(list(hg.items()), sorted(phi_dom))
    for a in phi_dom:
        for b in phi_dom:
            assert (ids[a] == ids[b]) == (comp[a] == comp[b]), (a, b)
