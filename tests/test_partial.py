import pytest
from hypothesis import given, settings, strategies as st

from radograph import adjacent, PartialAutomorphism, UNDEFINED
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


def test_apply_and_inverse():
    p = PartialAutomorphism({0: 1, 1: 0})
    assert p.apply(0) == 1
    assert p.inverse().apply(0) == 1
    assert p.apply(5) is UNDEFINED
    assert p.rd() == {0, 1}


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


@given(st.dictionaries(st.integers(0, 30), st.integers(0, 30), max_size=8))
@settings(max_examples=200, deadline=None)
def test_check_agrees_with_direct_quantifiers(m):
    p = PartialAutomorphism(m)
    err = p.check()
    injective = len(set(m.values())) == len(m)
    edges_ok = all(
        adjacent(u, w) == adjacent(m[u], m[w]) for u in m for w in m if u != w
    )
    assert (err is None) == (injective and edges_ok)


def test_inverse_and_restrict():
    p = PartialAutomorphism({0: 5, 1: 9})
    assert p.inverse().apply(5) == 0
    q = p.restricted([0])
    assert q.pairs() == [(0, 5)]
