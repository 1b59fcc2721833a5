import pytest
from hypothesis import example, given, settings, strategies as st

from radograph import adjacent, realize
from radograph.bignat import decode, decode_map, encode_map
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
from radograph.triple import GoodTriple, _chain_ids, init

from naive_checker import _components, _has_cycle

SWAP = {0: 1, 1: 0}


def fresh(seed=0, members=None):
    target = build_c0(seed=seed)
    target.develop(1)
    fam = CompactFamily(members or [identity_oracle(), seeded_oracle({2: 3})])
    return init(fam, target)


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
        init(CompactFamily([seeded_oracle(SWAP)]), target)


def test_init_rejects_edgeful_target():
    fam = CompactFamily([identity_oracle()])
    with pytest.raises(ConstructionConflict):
        init(fam, build_fp((0, 1)))
    # an edge-free pattern target is fine
    assert init(fam, build_fp((1, 1))).check() == {"ok": True}


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


def test_planted_bad_situation_found():
    # hand-build phi maps that disagree on the edge clause, bypassing checks
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
    x_new = f.star_witness({f.image(c1.phi[4]): 1}, "(*)0")
    c1.phi[0] = x_new
    bad = t.find_bad(t.classes())
    assert any(b.x == 0 and b.y == 4 for b in bad)
    rep = t.check()
    assert rep["ok"] is False


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
    hg, phi_dom = case
    ids = _chain_ids(hg, phi_dom)
    if _has_cycle(hg):
        assert ids is None
        return
    assert ids is not None and set(ids) == phi_dom
    comp = _components(list(hg.items()), sorted(phi_dom))
    for a in phi_dom:
        for b in phi_dom:
            assert (ids[a] == ids[b]) == (comp[a] == comp[b]), (a, b)
