import random

import pytest
from hypothesis import given, settings, strategies as st

from radograph import adjacent
from radograph.oracle import CompactFamily, build_c0, identity_oracle, seeded_oracle
from radograph.splitting import split, split_far

from naive_checker import dK

SWAP = {0: 1, 1: 0}


def realize_scan(tau, forbidden=(), lb=0):
    v = max(list(tau) + [lb]) + 1
    while True:
        if v not in forbidden and all(adjacent(v, w) == bool(b) for w, b in tau.items()):
            return v
        v += 1


def test_split_singleton_agreement_frozen():
    fam = CompactFamily([identity_oracle()])
    v = split(fam, {0}, {0: 1}, 0)
    assert v == realize_scan({0: 1}, {0}, 0) == 1


def test_split_tau_outside_m_rejected():
    fam = CompactFamily([identity_oracle()])
    with pytest.raises(ValueError):
        split(fam, {0}, {5: 1}, 0)


def test_split_full_postconditions():
    fam = CompactFamily([identity_oracle(), seeded_oracle(SWAP)])
    m_set = {0, 1}
    tau = {0: 0, 1: 0}
    v = split(fam, m_set, tau, 1)
    assert v > 1
    assert not adjacent(0, v) and not adjacent(1, v)
    h, hp = fam.members
    assert h.image(v) != hp.image(v)
    assert h.preimage(v) != hp.preimage(v)


def test_split_equal_members_no_separation():
    fam = CompactFamily([identity_oracle(0), identity_oracle(1)])
    v = split(fam, {2, 3}, {2: 1}, 0)
    assert adjacent(2, v) and not adjacent(3, v)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_split_soundness_random(data):
    members = [identity_oracle()]
    seeds = data.draw(
        st.lists(
            st.sampled_from([SWAP, {2: 3, 3: 2}, {0: 2, 2: 0}, {1: 4, 4: 1}]),
            min_size=1,
            max_size=3,
            unique_by=lambda d: tuple(sorted(d.items())),
        )
    )
    members += [seeded_oracle(s) for s in seeds]
    fam = CompactFamily(members)
    m_set = set(data.draw(st.sets(st.integers(0, 6), min_size=1, max_size=5)))
    tau = {m: data.draw(st.integers(0, 1)) for m in m_set}
    bound = data.draw(st.integers(0, 8))
    v = split(fam, m_set, tau, bound)
    assert v > bound
    for m in m_set:
        assert adjacent(m, v) == bool(tau[m])
    ms = sorted(m_set)
    for i, h in enumerate(members):
        for hp in members[i + 1:]:
            if any(h.image(m) != hp.image(m) for m in ms):
                assert h.image(v) != hp.image(v)
                assert hp.preimage(v) != h.preimage(v)


def test_split_far_radius_check():
    fam = CompactFamily([seeded_oracle(SWAP)])
    v = split_far(fam, {0}, {0: 1})
    assert adjacent(0, v)
    import math

    assert dK(fam, v, 0, 4) == math.inf


def test_split_far_identity_trivial():
    import math

    fam = CompactFamily([identity_oracle()])
    v = split_far(fam, {3}, {})
    assert v > 3
    assert dK(fam, v, 3, 4) == math.inf


def test_split_far_empty_m():
    fam = CompactFamily([identity_oracle()])
    v = split_far(fam, set(), {})
    assert v >= 1


def test_split_far_constructed_family():
    import math

    target = build_c0(seed=0)
    target.develop(2)
    fam = CompactFamily([identity_oracle(), seeded_oracle(SWAP)])
    m_set = {0, 1, 2}
    v = split_far(fam, m_set, {0: 1, 1: 0, 2: 0})
    assert adjacent(0, v) and not adjacent(1, v) and not adjacent(2, v)
    for m in m_set:
        assert dK(fam, v, m, 4) == math.inf
