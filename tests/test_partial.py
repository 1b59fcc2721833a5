import pytest
from hypothesis import given, settings, strategies as st

from radograph import adjacent, PartialAutomorphism
from radograph.errors import CycleDetected, EdgeViolation, NotInjective


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


def test_chain_ends():
    p = PartialAutomorphism({0: 5, 5: 9})
    assert p.backward_end(9) == 0
    assert p.backward_end(7) == 7


def test_cycle_detected():
    p = PartialAutomorphism({0: 1, 1: 0})
    with pytest.raises(CycleDetected):
        p.backward_end(0)


def test_orbit_paths_mixed():
    p = PartialAutomorphism({0: 5, 5: 9, 2: 3, 3: 2, 7: 8})
    paths = p.orbit_paths()
    kinds = {tuple(o["vertices"]): o["kind"] for o in paths}
    assert kinds[(0, 5, 9)] == "path"
    assert kinds[(2, 3)] == "cycle"
    assert kinds[(7, 8)] == "path"
    assert len(paths) == 3


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


MAPS = st.dictionaries(st.integers(0, 30), st.integers(0, 30), max_size=8)


@given(MAPS, st.data())
@settings(max_examples=200, deadline=None)
def test_check_agrees_with_direct_quantifiers(m, data):
    p = PartialAutomorphism(m)
    assert (p.check() is None) == _valid(m)
    keys = data.draw(st.lists(st.sampled_from(sorted(m)), unique=True) if m
                     else st.just([]))
    assert (p.check(_valid_sub_map(m, keys)) is None) == _valid(m)


@given(MAPS, MAPS)
@settings(max_examples=200, deadline=None)
def test_check_trusts_only_pairs_shared_with_known(m, other):
    # known is valid but need not be a sub-map: a value it holds may have
    # been overwritten since, and such a pair is tested again
    known = _valid_sub_map(other, list(other))
    assert (PartialAutomorphism(m).check(known) is None) == _valid(m)


def test_check_with_known_tests_new_pairs():
    known = {0: 0, 1: 1}
    assert PartialAutomorphism({0: 0, 1: 1, 2: 2}).check(known) is None
    err = PartialAutomorphism({0: 0, 1: 1, 2: 1}).check(known)
    assert isinstance(err, NotInjective)
    err = PartialAutomorphism({0: 0, 1: 1, 4: 6}).check(known)
    assert isinstance(err, EdgeViolation)
    # an overwritten known value is no longer trusted
    assert isinstance(PartialAutomorphism({0: 1, 1: 1}).check(known), NotInjective)
