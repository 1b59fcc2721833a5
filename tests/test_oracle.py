import gc
import hashlib
import importlib
import json
import math
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import radograph
from radograph import PartialAutomorphism, adjacent, bignat, graph, oracle
from radograph.errors import ImplementationFault, NotConstructed, UntouchedVertex
from radograph.oracle import (
    AutomorphismOracle,
    CompactFamily,
    build_c0,
    build_fp,
    identity_oracle,
    replay,
    seeded_oracle,
)
from radograph.sampler import report, sample

from naive_checker import dK

SWAP = {0: 1, 1: 0}


def test_identity_oracle():
    o = identity_oracle()
    assert o.image(42) == 42
    assert o.preimage(42) == 42


def test_seeded_stored_pairs():
    o = seeded_oracle(SWAP)
    assert o.image(0) == 1
    assert o.preimage(0) == 1
    assert o.declared_finite_orbits == frozenset({0, 1})


def test_seeded_lazy_image_frozen():
    # least v > 2 with adjacent(v,1) == adjacent(0,2) and adjacent(v,0) == adjacent(1,2)
    # scan: 3 fails (adjacent(3,1)), 4 fails (not adjacent(4,0)), 5 works.
    o = seeded_oracle(SWAP)
    assert o.image(2) == 5
    assert o.preimage(5) == 2  # mutually inverse on queried points


def test_seeded_rejects_invalid_seed():
    from radograph.errors import EdgeViolation

    with pytest.raises(EdgeViolation):
        seeded_oracle({0: 0, 1: 2})


def test_fingerprint_passes_check_after_queries():
    o = seeded_oracle(SWAP)
    queried = [0, 1, 2, 7, 11, 20]
    for v in queried:
        o.image(v)
    fp = PartialAutomorphism((m, o.image(m)) for m in queried)
    assert fp.check() is None


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 25)), max_size=12))
@settings(max_examples=60, deadline=None)
def test_core_stays_partial_automorphism(queries):
    o = seeded_oracle(SWAP)
    for fwd, v in queries:
        if fwd:
            o.image(v)
        else:
            o.preimage(v)
    assert o.core().check() is None
    # no accidental cycles beyond the declared ones
    for orb in o.core().orbit_paths():
        if orb["kind"] == "cycle":
            assert set(orb["vertices"]) <= o.declared_finite_orbits


def test_family_ops_frozen():
    fam = CompactFamily([seeded_oracle(SWAP)])
    assert {h.preimage(0) for h in fam} == {1}
    assert fam.m_star({0}) == {0, 1}
    idfam = CompactFamily([identity_oracle()])
    assert idfam.m_star({3}) == {3}


def test_family_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        CompactFamily([])
    with pytest.raises(ValueError):
        CompactFamily([identity_oracle(0), identity_oracle(0)])


def test_dk_values():
    assert dK(CompactFamily([identity_oracle()]), 0, 1, 5) == math.inf
    assert dK(CompactFamily([seeded_oracle(SWAP)]), 0, 1, 5) == 1
    assert dK(CompactFamily([identity_oracle()]), 7, 7, 0) == 0


def test_dk_two_steps():
    o = seeded_oracle({0: 1, 1: 2, 5: 0})
    fam = CompactFamily([o])
    assert dK(fam, 0, 2, 5) == 2
    assert dK(fam, 5, 1, 5) == 2


def test_dk_asks_each_layer_in_ascending_order():
    # a miss extends a seeded member, so each BFS layer must be walked in a
    # fixed order; a radius-r run on fresh members logs layers 1..r, so the
    # entries a run adds over the radius r - 1 run are layer r's
    def logs(radius):
        fam = CompactFamily([seeded_oracle({0: 2}), seeded_oracle({0: 5})])
        assert dK(fam, 0, 1 << 20, radius) == math.inf
        return [[v for _, v in h.tasks] for h in fam]

    prev = logs(0)
    asked = 0
    for radius in range(1, 5):
        cur = logs(radius)
        for before, after in zip(prev, cur):
            assert after[:len(before)] == before
            layer = after[len(before):]
            assert layer == sorted(layer)
            asked += len(layer)
        prev = cur
    assert asked > 20


def test_replay_determinism_seeded():
    o = seeded_oracle(SWAP)
    for v in [2, 9, 14]:
        o.image(v)
    o.preimage(100)
    copy = replay(o.to_json())
    assert copy.core() == o.core()


def orbit_pairs(o):
    """All (u, f^n(u), n) with n >= 1 inside built chains."""
    for oid in range(len(o._chains)):
        chain = o.orbit_points(oid)
        for i, u in enumerate(chain):
            for j in range(i + 1, len(chain)):
                yield u, chain[j], j - i


@pytest.mark.parametrize("pattern", [(1, 1, 1), (0, 0, 0), (0, 1), (1, 0, 1)])
def test_fp_pattern_invariant(pattern):
    o = build_fp(pattern, seed=3)
    o.develop(3)
    assert o.declared_finite_orbits == frozenset()
    checked = 0
    for u, w, n in orbit_pairs(o):
        expected = (pattern[n - 1] == 0) if n <= len(pattern) else False
        assert adjacent(u, w) == expected, (n, pattern)
        checked += 1
    assert checked > 20


def test_fp_conjugacy_obstruction():
    a = build_fp((1, 1), seed=0)
    b = build_fp((0, 1), seed=0)
    a.develop(2)
    b.develop(2)
    va = a.orbit_representatives()[0]
    vb = b.orbit_representatives()[0]
    assert adjacent(va, a.image(va)) is False
    assert adjacent(vb, b.image(vb)) is True


def test_c0_no_orbit_edges():
    o = build_c0(seed=0)
    o.develop(3)
    for u, w, n in orbit_pairs(o):
        assert not adjacent(u, w)


def test_c0_witness_semantics():
    o = build_c0(seed=0)
    o.develop(2)
    reps = o.orbit_representatives()
    a_set = {reps[0]}
    b_set = {reps[1]}
    v = o.c0_witness(a_set, b_set)
    # adjacent to A, not to any built point of the A/B orbits outside A
    assert all(adjacent(v, a) for a in a_set)
    for oid in (o.orbit_id(reps[0]), o.orbit_id(reps[1])):
        for x in o.orbit_points(oid):
            if x not in a_set:
                assert not adjacent(v, x)
    # the prohibition persists: future points of those orbits avoid v
    o.develop(2)
    for oid in (o.orbit_id(reps[0]), o.orbit_id(reps[1])):
        for x in o.orbit_points(oid):
            if x not in a_set:
                assert not adjacent(v, x)


def test_c0_condition4_spot_check():
    o = build_c0(seed=0)
    o.develop(2)
    reps = o.orbit_representatives()
    v, w = reps[0], reps[1]
    o.c0_witness({v}, {w})

    def adjacency_count():
        oid = o.orbit_id(w)
        return sum(1 for x in o.orbit_points(oid) if adjacent(v, x))

    count = adjacency_count()
    o.develop(3)
    assert adjacency_count() == count  # no new adjacencies appear


def test_star_witness_first_edge_follows_the_orbit_pattern():
    # the orbit's edge pattern alone fixes a witness's first f-edge: none in
    # c0, and one in fp((0, 1)), whose points are adjacent at distance 1
    c0 = build_c0(seed=0)
    c0.develop(1)
    v = c0.star_witness({})
    assert not adjacent(v, c0.image(v))

    fp = build_fp((0, 1), seed=0)
    fp.develop(1)
    w = fp.star_witness({})
    assert adjacent(w, fp.image(w))


def test_star_witness_realizes_tau_fresh_orbit():
    o = build_c0(seed=0)
    o.develop(2)
    touched = o.touched()
    tau = {touched[0]: 1, touched[1]: 0}
    before = set(o.orbit_representatives())
    v = o.star_witness(tau)
    assert adjacent(v, touched[0]) and not adjacent(v, touched[1])
    assert v in set(o.orbit_representatives()) - before
    assert o.orbit_id(v) not in {o.orbit_id(t) for t in touched}


def test_orbit_api_errors():
    with pytest.raises(NotConstructed):
        identity_oracle().orbit_id(0)
    with pytest.raises(NotConstructed):
        seeded_oracle(SWAP).star_witness({})
    o = build_c0(seed=0)
    with pytest.raises(UntouchedVertex):
        o.orbit_id(999)


def test_constructed_image_consistency():
    o = build_fp((0,), seed=0)
    o.develop(2)
    v = o.orbit_representatives()[0]
    assert o.preimage(o.image(v)) == v
    assert o.image(o.preimage(v)) == v
    # image of an untouched natural touches it
    w = o.image(50)
    assert o.orbit_id(50) == o.orbit_id(w)


def test_replay_constructed_exact():
    o = build_c0(seed=5)
    o.develop(2)
    o.star_witness({o.orbit_representatives()[0]: 1})
    o.image(17)
    copy = replay(o.to_json())
    assert copy.core() == o.core()


def test_negative_develop_is_rejected_before_logging():
    o = build_c0(seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        o.develop(-1)
    assert o.tasks == []
    log = build_c0(seed=0).to_json()
    log["tasks"] = [["develop", 1], ["develop", -1]]
    with pytest.raises(ValueError, match="non-negative"):
        replay(log)


def test_task_log_encoded_only_by_to_json(monkeypatch):
    def refuse(v):
        raise AssertionError("task log encoded before to_json")

    monkeypatch.setattr(oracle, "encode", refuse)
    report(sample(0, 12), 10)
    o = sample(0, 8)
    report(o, 10)
    monkeypatch.undo()
    # a depth-12 log is about 14 MB of tree-encoded vertices; depth 8 keeps
    # the round trip quick
    data = o.to_json()
    assert o.to_json() == data
    assert replay(data).to_json() == data


def test_task_log_keeps_own_copy_of_arguments():
    o = build_c0(seed=0)
    o.develop(3)
    t = o.touched()
    tau = {t[0]: 1, t[1]: 0}
    a_set, b_set = {t[2]}, {t[3]}
    o.star_witness(tau)
    o.c0_witness(a_set, b_set)
    data = o.to_json()
    tau[t[0]] = 0
    tau[t[4]] = 1
    a_set.add(t[4])
    b_set.clear()
    assert o.to_json() == data


def test_orbit_requirement_clash_is_an_implementation_fault():
    # the next point after last must be adjacent to it (pattern bit 1), and a
    # prohibition planted on orbit 0 forbids that edge
    o = build_fp((0,))
    o.develop(1)
    last = o.orbit_points(0)[-1]
    o._constraints.setdefault(0, set()).add(last)
    with pytest.raises(ImplementationFault, match=rf"at {last!r}\b"):
        o.image(last)


def test_chain_one_against_a_core_zero_is_an_implementation_fault():
    # the core says last is not adjacent to its predecessor (pattern (1, 1)),
    # and the changed pattern asks the next point for an edge to last; the
    # core's 0 at last is a default zero, so only the explicit comparison of
    # non-core requirements with the core's bits sees this clash
    o = build_fp((1, 1))
    o.develop(2)
    last = o.orbit_points(0)[-1]
    o.pattern = (0, 1)
    with pytest.raises(ImplementationFault, match=rf"at {last!r}$"):
        o.image(last)


def _assert_index_matches_brute_force(o, held):
    """Every held vertex is indexed under each of its bits once, and the
    neighbour lookup among the held vertices, dom f and ran f is the
    pairwise scan's answer."""
    want = {}
    for v in held:
        for p in bignat.bits_desc(v):
            want.setdefault(p, []).append(v)
    assert {p: sorted(vs) for p, vs in o._held_with.items()} == \
        {p: sorted(vs) for p, vs in want.items()}
    for among in (held, set(o._fwd), set(o._bwd)):
        for v in held:
            got = o._neighbours(v, among)
            assert len(got) == len(set(got))
            assert set(got) == {x for x in among if adjacent(x, v)}


@pytest.mark.parametrize("build, arg", [
    (build_fp, (0, 1, 0, 1, 1, 0)),
    (build_fp, (1, 1, 1)),
    (build_fp, ()),
    (build_c0, 0),
    (build_c0, 5),
])
def test_neighbour_index_matches_brute_force_on_constructed_oracles(build, arg):
    o = build(arg)
    for _ in range(4):
        o.develop(1)
        _assert_index_matches_brute_force(o, set(o.touched()))


def test_neighbour_index_matches_brute_force_on_seeded_oracles():
    for pairs in ({3: 90}, {0: 1, 1: 2, 5: 0}, SWAP):
        o = seeded_oracle(pairs)
        for v in range(12):
            o.image(v)
            o.preimage(v + 7)
            _assert_index_matches_brute_force(o, set(o._fwd) | set(o._bwd))


def _count_adjacent(monkeypatch):
    """Count graph.adjacent calls made through any radograph module that
    binds the name."""
    calls = [0]
    inner = graph.adjacent

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    modules = [radograph] + [importlib.import_module(f"radograph.{m.name}")
                             for m in pkgutil.iter_modules(radograph.__path__)]
    for m in modules:
        if getattr(m, "adjacent", None) is inner:
            monkeypatch.setattr(m, "adjacent", counted)
    return calls


def test_extensions_find_core_neighbours_without_a_pairwise_scan(monkeypatch):
    # a pairwise scan of the core per extension made 6 972 adjacent calls
    # for these two developments and 3 160 for the 79 seeded misses
    calls = _count_adjacent(monkeypatch)
    build_c0(0).develop(6)
    build_fp((0, 1, 0, 1, 1, 0)).develop(6)
    assert calls[0] <= 100
    calls[0] = 0
    o = seeded_oracle({3: 90})
    for v in range(40):
        o.image(v)
    for v in range(40):
        o.preimage(v)
    assert len(o.core()) == 80
    assert calls[0] <= 300


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        AutomorphismOracle("weird")


def test_big_tables_shrink_when_construction_dropped():
    gc.collect()
    before = len(bignat._table)
    o = build_fp((1, 0, 0, 0, 1, 0))
    o.develop(6)
    assert len(bignat._table) > before + 50
    assert len(bignat._order) == len(bignat._table)
    del o
    gc.collect()
    assert len(bignat._table) <= before
    assert len(bignat._order) == len(bignat._table)


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _log_and_core(o):
    """The replay log and the whole core's record as one object: the JSON
    that to_json wrote before the two records were split, so the digests of
    that format still pin what develop and sample build."""
    return {**o.to_json(), **o.core_record(o._fwd)}


def test_develop_and_sample_artefacts_are_pinned():
    # any drift in what develop or sample + report build, or in the order
    # they build it, changes these digests
    fp = {
        (0, 1, 0, 1, 1, 0): "dc9d7a6ce202648d4a35472e7289d4b65d70cbfdad43d06f1c3ce9f022e69810",
        (1, 1, 1, 1, 1, 1): "61d9a62b6e9b7c7ceba77ad2a34639924798665e7c21205b5fbc84f73765eeca",
        (0, 0, 0, 0, 0, 0): "1f5711a7b456f124414fd8ee146c3b56c9d02c6a5a56ea1e49c59232822498f5",
        (1, 0, 1): "f6a481f82fe67f687d0b39a99985d3eb388000b03df203c215e3a7cdd72ca02e",
    }
    for pattern, digest in fp.items():
        o = build_fp(pattern)
        o.develop(5)
        assert _sha256(_log_and_core(o)) == digest, pattern
    c0 = [
        "eead7428de90c74058caec511931be43cf4a63111c3f84caa647d44020dce2c0",
        "3ae9152ad7ae78b072f062491a4dc184f5276cf85f4c2a19a378765384d3b9d8",
        "94c6c9c649f98f3805928df164da329b2c4260e613954e8e680543d0adbeb4ad",
    ]
    for seed, digest in enumerate(c0):
        o = build_c0(seed)
        o.develop(6)
        assert _sha256(_log_and_core(o)) == digest, seed
    sampled = {
        (0, 6): "fe3d5f41d2e5c565584b87ae2db3b36c7cf8664dc8e06afc1f73661c6d6d3b7e",
        (3, 7): "d6cd780a57d53e4ddf50fada97bc9e29b4c9cdc96d9e141c9bc71361a5fd38b6",
        (7, 8): "2721eed8b80ebeea177ce4e1219ab1b384cefd695158d2a16d567fc4dc97cbe7",
    }
    for (seed, depth), digest in sampled.items():
        o = sample(seed, depth)
        rep = report(o, 10, seed=seed)
        artefact = {"oracle": _log_and_core(o), "report": rep.to_json()}
        assert _sha256(artefact) == digest, (seed, depth)
