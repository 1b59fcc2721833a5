import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from radograph import adjacent, partial, PartialAutomorphism
from radograph.bignat import INT_BIT_LIMIT, from_bits
from radograph.errors import EdgeViolation, NotInjective
from radograph.graph import edges
from radograph.oracle import build_c0, seeded_oracle
from radograph.partial import extension_error
from radograph.translate import truss_factor, verify


def test_check_frozen_edge_violation():
    err = PartialAutomorphism({0: 0, 1: 2}).check()
    assert isinstance(err, EdgeViolation)
    assert {err.u, err.v} == {0, 1}


def test_check_not_injective():
    err = PartialAutomorphism([(0, 5), (1, 5)]).check()
    assert isinstance(err, NotInjective)


def test_check_valid_identity():
    assert PartialAutomorphism({v: v for v in range(10)}).check() is None


def test_rd_is_domain_union_range():
    assert PartialAutomorphism({0: 1, 1: 0}).rd() == {0, 1}
    assert PartialAutomorphism({0: 5, 5: 9}).rd() == {0, 5, 9}


def test_duplicate_domain_rejected():
    with pytest.raises(ValueError):
        PartialAutomorphism([(0, 1), (0, 2)])


def test_orbit_paths_mixed():
    p = PartialAutomorphism({0: 5, 5: 9, 2: 3, 3: 2, 7: 8})
    paths = p.orbit_paths()
    kinds = {tuple(o["vertices"]): o["kind"] for o in paths}
    assert kinds[(0, 5, 9)] == "path"
    assert kinds[(2, 3)] == "cycle"
    assert kinds[(7, 8)] == "path"
    assert len(paths) == 3


def test_orbit_paths_rejects_a_map_that_is_not_injective():
    # the walk 0, 1, 2, 1, ... never ends
    with pytest.raises(NotInjective):
        PartialAutomorphism({0: 1, 1: 2, 2: 1}).orbit_paths()


def test_json_roundtrip_sorted():
    p = PartialAutomorphism({9: 1, 0: 5})
    obj = p.to_json()
    assert obj == {"pairs": [[0, 5], [9, 1]]}


def _valid(m):
    injective = len(set(m.values())) == len(m)
    return injective and all(
        adjacent(u, w) == adjacent(m[u], m[w]) for u in m for w in m if u != w
    )


def _valid_sub_map(m, keys):
    """The pairs of m at keys, in order, each kept if the result stays valid."""
    known = {}
    for u in keys:
        if u in m and _valid({**known, u: m[u]}):
            known[u] = m[u]
    return known


def _check(m, known=None):
    """extension_error on m, trusting the pairs m shares with the valid map
    known: those go first, as old, and the others follow, as new, each list
    in m's order."""
    known = known or {}
    old = [(u, v) for u, v in m.items() if u in known and known[u] == v]
    new = [(u, v) for u, v in m.items() if not (u in known and known[u] == v)]
    return extension_error(old, new, {v: u for u, v in old})


MAPS = st.dictionaries(st.integers(0, 30), st.integers(0, 30), max_size=8)


@given(MAPS, st.data())
@settings(max_examples=200, deadline=None)
def test_check_agrees_with_direct_quantifiers(m, data):
    p = PartialAutomorphism(m)
    assert (p.check() is None) == _valid(m)
    keys = data.draw(st.lists(st.sampled_from(sorted(m)), unique=True) if m
                     else st.just([]))
    assert (_check(m, _valid_sub_map(m, keys)) is None) == _valid(m)


@given(MAPS, MAPS)
@settings(max_examples=200, deadline=None)
def test_check_trusts_only_pairs_shared_with_known(m, other):
    # known is valid but need not be a sub-map: a value it holds may have
    # been overwritten since, and such a pair is tested again
    known = _valid_sub_map(other, list(other))
    assert (_check(m, known) is None) == _valid(m)


def test_check_with_known_tests_new_pairs():
    known = {0: 0, 1: 1}
    assert _check({0: 0, 1: 1, 2: 2}, known) is None
    err = _check({0: 0, 1: 1, 2: 1}, known)
    assert isinstance(err, NotInjective)
    err = _check({0: 0, 1: 1, 4: 6}, known)
    assert isinstance(err, EdgeViolation)
    # an overwritten known value is no longer trusted
    assert isinstance(_check({0: 1, 1: 1}, known), NotInjective)


def reference_check(fwd, known=None):
    """extension_error by the pairwise scan alone: every untrusted pair against
    every pair, with no edge count. The trusted pairs come first, then the
    others; the witness is the first violating pair of that list in the order
    (earlier member, later member), named earlier key first."""
    known = known or {}
    new, old = [], []
    for u, v in fwd.items():
        (old if u in known and known[u] == v else new).append(u)
    seen = {fwd[u]: u for u in old}
    for u in new:
        v = fwd[u]
        if v in seen:
            return NotInjective(f"{seen[v]!r} and {u!r} both map to {v!r}")
        seen[v] = u
    keys = old + new
    for i, u in enumerate(keys):
        for w in keys[max(i + 1, len(old)):]:
            if adjacent(u, w) != adjacent(fwd[u], fwd[w]):
                return EdgeViolation(u, w)
    return None


def _witness(err):
    if isinstance(err, EdgeViolation):
        return "edge", err.u, err.v
    return type(err), str(err)


# ints near and above INT_BIT_LIMIT as vertices, ints with a set bit near
# position INT_BIT_LIMIT, and Bigs whose positions are other pool members
_B1 = from_bits([INT_BIT_LIMIT, 3])
_B2 = from_bits([5000, INT_BIT_LIMIT - 1, 1])
_B3 = from_bits([_B1, INT_BIT_LIMIT, 0])
_WIDE = [(1 << (INT_BIT_LIMIT - 1)) | 6, (1 << (INT_BIT_LIMIT - 1)) | (1 << 12) | 1,
         (1 << (INT_BIT_LIMIT - 2)) | 9]
POOL = [0, 1, 2, 3, 5, 6, 9, 12, INT_BIT_LIMIT - 1, INT_BIT_LIMIT, 5000, *_WIDE,
        _B1, _B2, _B3, from_bits([_B3, _B1, 5000, 2]), from_bits([_WIDE[0], 12, 0])]
POOL_MAPS = st.dictionaries(st.sampled_from(POOL), st.sampled_from(POOL), max_size=10)


def test_edges_matches_pairwise_adjacency():
    want = {(u, w) for u in POOL for w in POOL if u < w and adjacent(u, w)}
    got = list(edges(POOL))
    assert len(got) == len(want) and set(got) == want


@given(POOL_MAPS, POOL_MAPS, st.sampled_from(["raw", "valid", "perturbed"]),
       st.sampled_from(["none", "sub-map", "other"]), st.data())
@settings(max_examples=400, deadline=None)
def test_check_matches_pairwise_reference(m, other, kind, trust, data):
    if kind != "raw":
        m = _valid_sub_map(m, list(m))
    if kind == "perturbed" and m:
        m[data.draw(st.sampled_from(sorted(m)))] = data.draw(st.sampled_from(POOL))
    known = {"none": None,
             "sub-map": _valid_sub_map(m, data.draw(st.permutations(sorted(m)))),
             "other": _valid_sub_map(other, list(other))}[trust]
    got = _check(m, known) if known is not None else PartialAutomorphism(m).check()
    want = reference_check(m, known)
    assert (got is None) == (want is None) == _valid(m)
    if want is not None:
        assert _witness(got) == _witness(want)


def test_full_check_counts_edges_instead_of_scanning_pairs(monkeypatch):
    calls = []
    inner = partial.adjacent
    monkeypatch.setattr(partial, "adjacent", lambda u, v: calls.append(1) or inner(u, v))
    o = build_c0(0)
    o.develop(6)
    core = o.core()
    assert len(core) == 84
    assert core.check() is None
    assert len(calls) <= 300  # a pairwise scan makes 6 972
    _, certs = truss_factor(seeded_oracle({3: 90}), 8)
    certs = json.loads(json.dumps(certs))
    calls.clear()
    assert all(verify(c)["ok"] for c in certs)
    assert len(calls) <= 400  # a pairwise scan makes 4 594


def _brute_orbits(fwd):
    """The chains and cycles of an injective map from its connected
    components: a component with as many pairs as vertices is a cycle, listed
    from its least vertex, and any other a chain, listed from its one vertex
    outside the range."""
    comp = {v: {v} for v in [*fwd, *fwd.values()]}
    for u, v in fwd.items():
        if comp[u] is not comp[v]:
            merged = comp[u] | comp[v]
            for w in merged:
                comp[w] = merged
    out = []
    for c in {id(c): c for c in comp.values()}.values():
        n = sum(1 for v in c if v in fwd)
        cycle = n == len(c)
        seq = [min(c) if cycle else next(v for v in c if v not in fwd.values())]
        for _ in range(n - cycle):
            seq.append(fwd[seq[-1]])
        out.append({"kind": "cycle" if cycle else "path", "vertices": seq})
    return sorted(out, key=lambda o: o["vertices"][0])


def test_orbit_paths_matches_components_on_random_injective_maps():
    # seeded maps of chains and cycles over ints and Bigs, keys in shuffled
    # order: a chain's first key is often mid-chain and a cycle's often not
    # its least vertex, and both cases must occur
    rng = random.Random(25)
    pool = sorted(set(range(24)) | set(POOL))
    mid_chain = off_least = 0
    for _ in range(400):
        vertices = rng.sample(pool, rng.randrange(1, 14))
        items = []
        while vertices:
            k = rng.randrange(1, len(vertices) + 1)
            part, vertices = vertices[:k], vertices[k:]
            if rng.random() < 0.4:
                items += zip(part, part[1:] + part[:1])
            else:
                items += zip(part, part[1:])
        rng.shuffle(items)
        fwd = dict(items)
        want = _brute_orbits(fwd)
        assert PartialAutomorphism(fwd).orbit_paths() == want
        order = list(fwd)
        for o in want:
            first_key = min((v for v in o["vertices"] if v in fwd), key=order.index)
            if first_key != o["vertices"][0]:
                mid_chain += o["kind"] == "path"
                off_least += o["kind"] == "cycle"
    assert mid_chain > 50 and off_least > 50
