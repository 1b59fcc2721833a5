import copy
import importlib
import json
import pickle
import pkgutil
import random
import re
from functools import cmp_to_key

import pytest
from hypothesis import Phase, given, settings, strategies as st

import radograph
from radograph import adjacent, realize, to_dot
from radograph import bignat, graph, oracle
from radograph.errors import ImplementationFault
from radograph.oracle import CompactFamily, build_c0, build_fp, identity_oracle, seeded_oracle
from radograph.sampler import report, sample
from radograph.translate import translate, truss_factor, verify
from radograph.bignat import (
    Big,
    bits_desc,
    canon,
    encode,
    decode,
    decode_map,
    encode_map,
    from_bits,
    nat_cmp,
    succ,
    vmax,
    min_with_bits_geq,
    INT_BIT_LIMIT,
)

from naive_checker import bit_test, induced_subgraph


def brute_realize(tau, forbidden, lower_bound):
    """Reference implementation: scan upward over plain ints."""
    lo = max(list(tau) + [lower_bound])
    v = lo + 1
    while True:
        if v not in forbidden and all(adjacent(v, w) == bool(b) for w, b in tau.items()):
            return v
        v += 1


def test_adjacency_frozen_values():
    assert adjacent(0, 1) is True
    assert adjacent(0, 2) is False
    assert adjacent(7, 7) is False


def test_adjacency_symmetric_small():
    for u in range(40):
        for v in range(40):
            assert adjacent(u, v) == adjacent(v, u)
            if u == v:
                assert not adjacent(u, v)


def test_realize_frozen_values():
    assert realize({0: 1, 1: 0, 2: 1}, (), 0) == 5
    assert realize({}, (), 0) == 1
    assert realize({0: 1}, {1}, 0) == 3


def test_merge_tau_merges_repeated_equal_bits():
    big = canon(1 << (INT_BIT_LIMIT + 1))
    pairs = [(3, True), (0, 0), (3, 1), (big, 1), (0, False), (big, True)]
    assert graph.merge_tau(pairs) == {3: 1, 0: 0, big: 1}
    assert graph.merge_tau([]) == {}


def test_merge_tau_clash_names_the_vertex():
    big = canon(1 << (INT_BIT_LIMIT + 1))
    with pytest.raises(ImplementationFault, match=r"at 7$"):
        graph.merge_tau([(2, 1), (7, 0), (2, True), (7, True)])
    with pytest.raises(ImplementationFault, match=re.escape(repr(big))):
        graph.merge_tau([(3, 0), (big, 1), (big, 0)])


@given(
    tau=st.dictionaries(st.integers(0, 12), st.booleans(), max_size=6),
    forbidden=st.sets(st.integers(0, 40), max_size=8),
    lb=st.integers(0, 20),
)
@settings(max_examples=300, deadline=None)
def test_realize_matches_brute_force(tau, forbidden, lb):
    assert realize(tau, forbidden, lb) == brute_realize(tau, forbidden, lb)


@given(
    tau=st.dictionaries(st.integers(0, 8), st.booleans(), max_size=5),
    forbidden=st.sets(st.integers(0, 60), max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_realizers_step_from_previous(tau, forbidden):
    # realizers ascend, so the next one is the least above the previous:
    # stepping lower_bound lists what growing the forbidden set lists
    stepped, grown, ref = [], [], []
    w, grow = 0, set(forbidden)
    for _ in range(16):
        w = realize(tau, forbidden, w)
        stepped.append(w)
        grown.append(realize(tau, grow, 0))
        grow.add(grown[-1])
        ref.append(brute_realize(tau, forbidden | set(ref), 0))
    assert stepped == ref
    assert grown == ref


@given(
    n=st.integers(0, 1 << 16),
    cons=st.dictionaries(st.integers(0, 16), st.integers(0, 1), max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_min_with_bits_matches_scan(n, cons):
    # the kernel is the least value above n that realizes cons
    got = min_with_bits_geq(n, cons)
    v = n + 1
    while any(((v >> p) & 1) != b for p, b in cons.items()):
        v += 1
    assert got == v


def shift_bits_desc(x):
    """Reference for bits_desc on an int: test every position by a shift."""
    return [p for p in range(x.bit_length() - 1, -1, -1) if (x >> p) & 1]


def sorted_pool_min_with_bits(n, constraints):
    """The least natural >= n whose bits agree with constraints, by the walk
    over the whole sorted pool of constrained positions and n's bits; at
    succ(n) it is the reference for min_with_bits_geq at n."""
    nbits = set(n.bits) if isinstance(n, Big) else set(shift_bits_desc(n))
    pool = set(constraints) | nbits
    for p in sorted(pool, reverse=True):
        in_n = p in nbits
        if p not in constraints:
            continue
        want = constraints[p]
        if want == (1 if in_n else 0):
            continue
        if want == 1:
            high = [q for q in nbits if q > p]
            low = [q for q, b in constraints.items() if b == 1 and q < p]
            return from_bits(high + [p] + low)
        q = succ(p)
        while q in constraints or q in nbits:
            q = succ(q)
        high = [r for r in nbits if r > q]
        low = [r for r, b in constraints.items() if b == 1 and r < q]
        return from_bits(high + [q] + low)
    return from_bits(nbits)


# canonical naturals of every kind the kernel dispatches on: small ints, int
# positions next to INT_BIT_LIMIT (a result with one of them at or above the
# limit is a Big), ints of 4095 and 4096 bits, Bigs, and Bigs whose
# positions are Bigs
_int_positions = st.integers(0, 40) | st.integers(INT_BIT_LIMIT - 4, INT_BIT_LIMIT + 4)
_bigs = st.builds(lambda top, rest: from_bits([top] + rest),
                  st.integers(INT_BIT_LIMIT, INT_BIT_LIMIT + 8) | st.just(10 ** 10),
                  st.lists(_int_positions, max_size=4))
_nested_bigs = st.builds(lambda top, rest: from_bits([top] + rest),
                         _bigs, st.lists(_int_positions | _bigs, max_size=3))
_positions = _int_positions | _bigs | _nested_bigs
_wide_ints = (st.integers(1 << (INT_BIT_LIMIT - 2), (1 << INT_BIT_LIMIT) - 1)
              | st.builds(lambda low: (1 << (INT_BIT_LIMIT - 1)) | low, st.integers(0, 1 << 40)))
_naturals = st.integers(0, 1 << 16) | _wide_ints | _bigs | _nested_bigs
# Shrinking a counterexample over these 4 096-bit ints and nested Bigs takes
# minutes, so the differentials over _naturals report the first one as found.
_NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@given(
    n=_naturals,
    cons=st.dictionaries(_positions, st.integers(0, 1), max_size=8),
    own=st.lists(st.booleans(), max_size=8),
)
@settings(max_examples=500, deadline=None, phases=_NO_SHRINK)
def test_min_with_bits_matches_sorted_pool(n, cons, own):
    # constraints on n's own top bits: the kernel then passes positions
    # that agree with n before it reaches the decisive one, or finds that
    # n realizes cons
    for p, b in zip(bits_desc(n), own):
        cons.setdefault(p, int(b))
    got = min_with_bits_geq(n, cons)
    want = sorted_pool_min_with_bits(succ(n), cons)
    assert type(got) is type(want)
    if isinstance(want, Big):
        assert got is want
    else:
        assert got == want
    assert got > n
    assert all(bit_test(got, p) == bool(b) for p, b in cons.items())


def reference_realize(tau, forbidden, lower_bound):
    """realize before its search started at the limit: a 0/1 copy of tau,
    vmax of its keys and lower_bound, succ of that, then the sorted-pool
    walk from there and from the successor of each forbidden hit."""
    constraints = {w: (1 if b else 0) for w, b in tau.items()}
    limit = vmax(list(constraints) + [lower_bound])
    n = succ(limit)
    while True:
        v = sorted_pool_min_with_bits(n, constraints)
        if v not in forbidden:
            return v
        n = succ(v)


@given(
    tau=st.dictionaries(_naturals, st.booleans() | st.integers(0, 1), max_size=5),
    lb=_naturals,
    lb_realizes=st.booleans(),
    first=st.integers(0, 3),
    extra=st.sets(_naturals, max_size=3),
)
@settings(max_examples=300, deadline=None, phases=_NO_SHRINK)
def test_realize_matches_reference_on_bigs(tau, lb, lb_realizes, first, extra):
    if lb_realizes:
        # a lower bound that realizes tau: realize must step past its limit
        lb = reference_realize(tau, (), lb)
    forbidden = set(extra)
    w = lb
    for _ in range(first):
        # forbid the first realizers above lb
        w = reference_realize(tau, (), w)
        forbidden.add(w)
    got = realize(tau, forbidden, lb)
    want = reference_realize(tau, forbidden, lb)
    assert type(got) is type(want)
    if isinstance(want, Big):
        assert got is want
    else:
        assert got == want
    assert got > lb and all(got > w for w in tau)
    assert all(adjacent(got, w) == bool(b) for w, b in tau.items())


def _with_overlap(zeros, picks, flags):
    """zeros plus each of picks whose flag is set: a default-zero set that
    overlaps the ones, the explicit zeros or n's bits."""
    zeros = set(zeros)
    zeros.update(p for p, take in zip(picks, flags) if take)
    return zeros


def _same_natural(got, want):
    assert type(got) is type(want)
    if isinstance(want, Big):
        assert got is want
    else:
        assert got == want


@given(
    n=_naturals,
    cons=st.dictionaries(_positions, st.integers(0, 1) | st.booleans(), max_size=6),
    own=st.lists(st.booleans(), max_size=6),
    zeros=st.sets(_positions, max_size=6),
    from_n=st.lists(st.booleans(), max_size=8),
    from_cons=st.lists(st.booleans(), max_size=8),
    as_dict=st.booleans(),
    agree=st.booleans(),
)
@settings(max_examples=400, deadline=None, phases=_NO_SHRINK)
def test_sparse_kernel_matches_dense_expansion(n, cons, own, zeros, from_n, from_cons,
                                               as_dict, agree):
    # zeros is read as 0 outside dom(cons): the kernel on the expansion
    # {**dict.fromkeys(zeros, 0), **cons} is the reference. agree moves n to
    # a value that already realizes the map, the case realize meets at every
    # step from a previous realizer: the kernel then searches succ(n)'s free
    # zero in the same pass
    for p, b in zip(bits_desc(n), own):
        cons.setdefault(p, int(b))
    zeros = _with_overlap(zeros, bits_desc(n) + list(cons), from_n + from_cons)
    dense = {**dict.fromkeys(zeros, 0), **cons}
    if agree:
        n = min_with_bits_geq(n, cons, zeros)
    got = min_with_bits_geq(n, cons, dict.fromkeys(zeros) if as_dict else zeros)
    _same_natural(got, min_with_bits_geq(n, dense))
    _same_natural(got, sorted_pool_min_with_bits(succ(n), dense))
    assert got > n


@given(
    tau=st.dictionaries(_naturals, st.booleans() | st.integers(0, 1), max_size=5),
    lb=_naturals,
    zeros=st.sets(_naturals | _positions, max_size=5),
    from_tau=st.lists(st.booleans(), max_size=5),
    from_lb=st.lists(st.booleans(), max_size=6),
    first=st.integers(0, 3),
    extra=st.sets(_naturals, max_size=3),
)
@settings(max_examples=300, deadline=None, phases=_NO_SHRINK)
def test_sparse_realize_matches_reference(tau, lb, zeros, from_tau, from_lb, first, extra):
    # every member of zeros is at most lower_bound, as realize requires
    zeros = _with_overlap(zeros, list(tau) + bits_desc(lb), from_tau + from_lb)
    lb = vmax([lb, *zeros])
    dense = {**dict.fromkeys(zeros, 0), **tau}
    forbidden = set(extra)
    w = lb
    for _ in range(first):
        w = reference_realize(dense, (), w)
        forbidden.add(w)
    got = realize(tau, forbidden, lb, zeros)
    _same_natural(got, reference_realize(dense, forbidden, lb))
    _same_natural(got, realize(dense, forbidden, lb))
    assert all(adjacent(got, w) == bool(dense[w]) for w in dense)


def test_realize_builds_no_throwaway_successor(monkeypatch):
    # realize builds succ(limit) only when the limit itself realizes tau:
    # these 180 realize calls intern 196 new Big nodes, and 334 when every
    # call built succ(limit) before its first kernel call
    counts = {"insert": 0, "realize": 0}

    def inserted(node, inner=bignat._insert):
        counts["insert"] += 1
        inner(node)

    def realized(*args, inner=graph.realize):
        counts["realize"] += 1
        return inner(*args)

    monkeypatch.setattr(bignat, "_insert", inserted)
    monkeypatch.setattr(oracle, "realize", realized)
    build_fp((0, 1, 0, 1, 1, 0)).develop(6)
    build_c0(0).develop(6)
    assert counts["realize"] == 180
    assert counts["insert"] <= 200


def _reference_adjacent(u, v):
    return u != v and bit_test(max(u, v), min(u, v))


@given(u=_naturals | _positions, v=_naturals | _positions, own=st.integers(0, 3))
@settings(max_examples=400, deadline=None)
def test_adjacent_matches_bit_test(u, v, own):
    # own == 0 makes u one of v's bits, so both answers occur
    if own == 0:
        v = from_bits([u] + bits_desc(v))
    assert adjacent(u, v) is _reference_adjacent(u, v)
    assert adjacent(v, u) is adjacent(u, v)
    assert adjacent(u, u) is False and adjacent(v, v) is False


def test_adjacent_at_the_int_big_boundary():
    wide = (1 << INT_BIT_LIMIT) - 1  # 4096 bits, the widest int
    narrow = (1 << (INT_BIT_LIMIT - 1)) | (1 << 7)  # 4095 bits
    edge = canon(1 << INT_BIT_LIMIT)  # the least Big
    deep = from_bits([from_bits([edge, 3]), INT_BIT_LIMIT - 1, 7, 0])
    cases = [
        (7, narrow, True), (8, narrow, False), (INT_BIT_LIMIT - 1, wide, True),
        (INT_BIT_LIMIT, wide, False), (narrow, wide, False), (wide, edge, False),
        (INT_BIT_LIMIT, edge, True), (edge, deep, False), (7, deep, True),
        (from_bits([edge, 3]), deep, True), (edge, edge, False),
        (deep, deep, False), (wide, wide, False),
    ]
    for u, v, want in cases:
        assert adjacent(u, v) is want, (u, v)
        assert adjacent(v, u) is want, (v, u)
        assert _reference_adjacent(u, v) is want, (u, v)


def test_bits_desc_matches_shift_definition():
    rng = random.Random(5)
    values = [0, 1, 1 << 4095, (1 << 4096) + 5, (1 << INT_BIT_LIMIT) - 1]
    values += [rng.getrandbits(w) for w in (1, 2, 7, 63, 64, 65, 1000, 4096, 5000)]
    values += [rng.getrandbits(w) & rng.getrandbits(w) & rng.getrandbits(w)
               for w in rng.sample(range(1, 6000), 20)]
    for x in values:
        assert bits_desc(x) == shift_bits_desc(x), x.bit_length()
        if x.bit_length() > INT_BIT_LIMIT:
            assert canon(x).bits == tuple(shift_bits_desc(x))


def test_realize_fresh_above_everything():
    v = realize({3: 1, 7: 0}, (), 100)
    assert v > 100
    assert adjacent(v, 3) and not adjacent(v, 7)


def test_big_representation_kicks_in():
    huge = from_bits([10 ** 10])  # 2**(10**10)
    assert isinstance(huge, Big)
    v = realize({huge: 1}, (), 0)
    assert adjacent(v, huge)
    assert v > huge
    # and a second generation on top of that
    w = realize({v: 1, huge: 0}, (), 0)
    assert adjacent(w, v) and not adjacent(w, huge)
    assert w > v


def test_big_total_order_and_succ():
    a = from_bits([10 ** 10])
    b = from_bits([10 ** 10, 0])
    c = from_bits([10 ** 10 + 1])
    assert a < b < c
    assert succ(a) == b
    assert sorted([c, 5, a, b]) == [5, a, b, c]
    assert vmax([5, a, c, b]) == c


def test_big_succ_carries():
    x = from_bits([10 ** 10, 1, 0])
    assert succ(x) == from_bits([10 ** 10, 2])


def test_int_big_boundary_is_canonical():
    edge = (1 << INT_BIT_LIMIT) - 1
    assert isinstance(canon(edge), int)
    top = succ(edge)
    assert isinstance(top, Big)
    assert top == canon(1 << INT_BIT_LIMIT)
    assert nat_cmp(edge, top) < 0


def test_big_compares_with_ints():
    # a canonical int is answered inline, a raw oversized int through nat_cmp
    edge = canon(1 << INT_BIT_LIMIT)
    deep = from_bits([from_bits([edge, 3]), 7])
    for b in (edge, deep):
        for i in (0, 5, (1 << INT_BIT_LIMIT) - 1):
            assert b > i and b >= i and not b < i and not b <= i
            assert i < b and i <= b and not i > b and not i >= b
            assert b != i and max(i, b) is b and min(b, i) == i
    raw = 1 << 5000
    assert canon(raw) <= raw and canon(raw) >= raw and not canon(raw) < raw
    assert edge < raw and raw > edge and deep > raw and raw <= deep


@given(st.integers(0, 10 ** 12), st.integers(0, 10 ** 12))
@settings(max_examples=200, deadline=None)
def test_nat_cmp_agrees_with_int_order(a, b):
    assert nat_cmp(a, b) == (a > b) - (a < b)


def ref_cmp(a, b):
    """Reference order, by structure alone: ints natively, a Big above every
    canonical int, two Bigs by their first differing bit position (walked
    recursively), else the one with more bits is larger."""
    if isinstance(a, int) and isinstance(b, int):
        return (a > b) - (a < b)
    if isinstance(a, int) or isinstance(b, int):
        return -1 if isinstance(a, int) else 1
    for p, q in zip(a.bits, b.bits):
        c = ref_cmp(p, q)
        if c:
            return c
    return (len(a.bits) > len(b.bits)) - (len(a.bits) < len(b.bits))


def test_labelled_order_matches_structural_order():
    h = 10 ** 10
    top = from_bits([h])
    inner = [top, from_bits([h, 3]), from_bits([h + 1]), canon(1 << 5000),
             canon((1 << 5000) + 7), succ((1 << INT_BIT_LIMIT) - 1)]
    values = list(inner)
    # Big-valued bit positions, two levels deep
    values += [from_bits([x, 1]) for x in inner] + [from_bits([x]) for x in inner]
    values += [from_bits([from_bits([inner[0], inner[1]]), inner[2], 0])]
    # realize chains: each vertex's top bit is the previous vertex
    v = from_bits([values[-1], 5])
    for i in range(5):
        v = realize({v: 1, inner[i]: i % 2}, (), v)
        values.append(v)
    rng = random.Random(7)
    values += [canon(rng.getrandbits(4200) | (1 << 4200)) for _ in range(20)]
    # 100 inserts each landing just above `top`: the label gap between `top`
    # and its upper neighbour halves every time, so the labels must be
    # rebuilt along the way
    label_before = top._label
    values += [from_bits([h, j]) for j in range(100, 0, -1)]
    assert top._label != label_before
    values += [0, 5, (1 << INT_BIT_LIMIT) - 1]

    for a in values:
        for b in values:
            assert nat_cmp(a, b) == ref_cmp(a, b), (a, b)
    ref_sorted = sorted(values, key=cmp_to_key(ref_cmp))
    assert sorted(values) == ref_sorted
    assert sorted(values, reverse=True) == ref_sorted[::-1]
    assert max(values) == ref_sorted[-1]
    assert min(values) == ref_sorted[0]
    labels = [entry.label for entry in bignat._order]
    assert labels == sorted(set(labels))
    assert all(entry()._label == entry.label for entry in bignat._order)


def test_equal_big_values_are_identical():
    h = 10 ** 10
    x = from_bits([h, 3])
    assert from_bits([3, h, 3]) is x
    assert Big(x.bits) is x
    assert succ(from_bits([h, 2, 1, 0])) is x
    assert canon(1 << 5000) is from_bits([5000])
    assert succ((1 << INT_BIT_LIMIT) - 1) is canon(1 << INT_BIT_LIMIT)
    deep = from_bits([from_bits([x, 0]), 1])
    assert decode(encode(deep)) is deep
    assert from_bits([1, from_bits([0, x])]) is deep
    assert copy.deepcopy(deep) is deep
    assert pickle.loads(pickle.dumps(deep)) is deep
    assert deep == deep and deep != x and x != 5
    assert canon(1 << 5000) == 1 << 5000  # a raw oversized int


def test_big_is_its_bitset_with_a_value_derived_hash():
    # a Big is the frozenset of its bit positions, so it hashes as that set
    # does, at C level and from the positions alone; the copy, pickle and
    # decode paths still return the interned object
    x = from_bits([10 ** 10, 3])
    deep = from_bits([from_bits([x, 0]), INT_BIT_LIMIT, 1])
    for v in (x, deep, canon(1 << INT_BIT_LIMIT)):
        assert isinstance(v, frozenset)
        assert hash(v) == hash(frozenset(v.bits))
        assert frozenset(v) == frozenset(v.bits) and all(p in v for p in v.bits)
        assert decode(encode(v)) is v
        assert copy.deepcopy(v) is v
        assert pickle.loads(pickle.dumps(v)) is v
    assert x in deep.bits[0] and deep.bits[0] in deep and x not in deep
    # equal as a natural only: not to the plain frozenset of its bits
    assert x != frozenset(x.bits) and frozenset(x.bits) != x


def test_encode_decode_roundtrip():
    vs = [0, 7, from_bits([10 ** 10, 3]), from_bits([from_bits([10 ** 10]), 1])]
    for v in vs:
        assert decode(encode(v)) == v
    assert encode(7) == 7
    m = {vs[2]: 0, 7: vs[3], vs[3]: vs[2], 0: 7}
    pairs = encode_map(m)
    assert [decode(u) for u, _ in pairs] == [0, 7, vs[2], vs[3]]
    assert decode_map(pairs) == m
    with pytest.raises(ValueError, match="duplicate"):
        decode_map(pairs + [[encode(vs[2]), 1]])


def reference_decode(obj):
    """decode without the intern-table lookup: every node goes through
    from_bits and every int through canon."""
    if isinstance(obj, int):
        return canon(obj)
    if isinstance(obj, dict) and set(obj) == {"^"}:
        return from_bits(reference_decode(p) for p in obj["^"])
    raise ValueError(f"not an encoded vertex: {obj!r}")


def _outcome(fn, obj):
    try:
        return "value", fn(obj)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_decodes_like_reference(obj):
    # decode runs first, so a node no live Big holds takes its miss path
    got = _outcome(decode, obj)
    want = _outcome(reference_decode, obj)
    assert got[0] == want[0], (obj, got, want)
    if isinstance(want[1], Big):
        assert got[1] is want[1]
    else:
        assert type(got[1]) is type(want[1]) and got[1] == want[1]


# a natural as nested lists of bit positions, each list built by from_bits;
# leaves next to INT_BIT_LIMIT make Bigs, small ones make ints
_specs = st.recursive(st.integers(0, 12) | st.integers(INT_BIT_LIMIT - 2, INT_BIT_LIMIT + 6),
                      lambda kids: st.lists(kids, min_size=1, max_size=4), max_leaves=12)
_MALFORMED = [1.5, -3, "x", [1], {"^": [1], "v": 2}, {"^": 5}, {"^": "ab"}]


def _build(spec):
    return spec if isinstance(spec, int) else from_bits([_build(s) for s in spec])


def _variant(obj, rng):
    """Another JSON form of an encoded vertex, mostly of the same value: a
    node's positions shuffled or repeated, a node of int positions written as
    the raw int (when that is small enough to build), an int written as a
    node of its bits, 0/1 as false/true, and now and then a malformed part."""
    r = rng.random()
    if r < 0.015:
        return rng.choice(_MALFORMED)
    if isinstance(obj, int):
        if obj in (0, 1) and r < 0.3:
            return bool(obj)
        if r >= 0.4:
            return obj
        obj, r = {"^": bits_desc(obj)}, rng.random()
    if r < 0.25 and all(isinstance(p, int) and p < 2 * INT_BIT_LIMIT for p in obj["^"]):
        return sum(1 << p for p in obj["^"])
    ps = [_variant(p, rng) for p in obj["^"]]
    if r < 0.45:
        rng.shuffle(ps)
    elif r < 0.6 and ps:  # 0 written as a node has no bits to repeat
        ps.append(rng.choice(ps))
    return {"^": ps}


@given(spec=_specs, keep=st.booleans(), rng=st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_decode_matches_reference(spec, keep, rng):
    v = _build(spec)
    obj = encode(v) if rng.random() < 0.3 else _variant(encode(v), rng)
    if not keep:
        del v  # Bigs that only v held are collected, and decode misses them
    _assert_decodes_like_reference(obj)


class _Node(dict):
    pass


def test_decode_matches_reference_on_fixed_inputs():
    x = from_bits([INT_BIT_LIMIT + 1, 3])
    nested = from_bits([from_bits([x, 0]), 2])
    cases = [
        encode(x), encode(nested), {"^": [3, INT_BIT_LIMIT + 1, 3]},
        {"^": [1, True]}, {"^": [INT_BIT_LIMIT + 1, False]}, True, False,
        1 << (INT_BIT_LIMIT + 1), {"^": [1 << (INT_BIT_LIMIT + 1)]},
        {"^": [2, 0]}, {"^": []}, *_MALFORMED, None, {"^": [-1]},
        # the node test: an extra key, a dict subclass, and positions that
        # are true, negative or an empty node
        {"^": [encode(x)], "w": []}, _Node({"^": [encode(x), 2]}), _Node({"v": [1]}),
        {"^": [True, encode(x)]}, {"^": [encode(x), -2]}, {"^": [{"^": []}, 1]},
    ]
    for obj in cases:
        _assert_decodes_like_reference(obj)


def test_decode_reuses_live_nodes(monkeypatch):
    v = from_bits([from_bits([from_bits([10 ** 10, 0]), 2]), 1, 0])
    res, certs = truss_factor(seeded_oracle({0: 2}), 6)  # res keeps the oracles live
    certs = json.loads(json.dumps(certs))
    assert any('"^"' in json.dumps(c) for c in certs)
    calls = []
    inner = bignat.from_bits
    monkeypatch.setattr(bignat, "from_bits", lambda ps: calls.append(ps) or inner(ps))
    assert decode(encode(v)) is v
    assert all(verify(c)["ok"] for c in certs)
    assert calls == []


def test_induced_subgraph_small():
    sub = induced_subgraph([0, 1, 2, 3])
    assert sub[0] == [1, 3]
    assert sub[2] == [1]
    assert sub[3] == [0, 1]


def test_to_dot_mentions_edges():
    dot = to_dot([0, 1, 2])
    assert '"0" -- "1"' in dot
    assert '"0" -- "2"' not in dot
    assert dot.startswith("graph") and dot.endswith("}")


def test_negative_vertex_rejected():
    with pytest.raises(ValueError):
        adjacent(-1, 2)


def _counted_calls(monkeypatch, run):
    """Calls of bignat.canon, bignat.nat_cmp and graph.adjacent made by run(),
    counted in every radograph module that binds each name (Big's compares
    reach nat_cmp through the bignat module's own binding)."""
    modules = [radograph] + [importlib.import_module(f"radograph.{m.name}")
                             for m in pkgutil.iter_modules(radograph.__path__)]
    calls = {"canon": 0, "nat_cmp": 0, "adjacent": 0}
    for name, inner in (("canon", bignat.canon), ("nat_cmp", bignat.nat_cmp),
                        ("adjacent", graph.adjacent)):
        def counted(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        for m in modules:
            if getattr(m, name, None) is inner:
                monkeypatch.setattr(m, name, counted)
    run()
    assert calls["adjacent"] > 0
    return calls


def test_translate_canonicalizes_at_the_boundary(monkeypatch):
    # vertices are canonical inside the package, so canon runs only where
    # values enter (decode, succ's int step, mixed compares, constructors)
    def run():
        fam = CompactFamily([identity_oracle(), seeded_oracle({2: 3})])
        translate(fam, build_c0(seed=0), 6)
        _, certs = truss_factor(seeded_oracle({0: 2}), 6)
        assert all(verify(c)["ok"] for c in certs)

    # a fixed ceiling for this fixed run, not a share of adjacent calls, which
    # fall whenever check() does less work: 195 calls here, about 10 000 with
    # canon back in adjacent, and 45 374 before canonicalizing at the boundary
    calls = _counted_calls(monkeypatch, run)
    assert calls["canon"] <= 1_000
    # a canonical int is answered inline by Big's compares; nat_cmp is only
    # for a raw oversized int, which never reaches them from inside
    assert calls["nat_cmp"] == 0


def test_sample_canonicalizes_at_the_boundary(monkeypatch):
    def run():
        for s in range(4):
            report(sample(s, 8), 10, seed=s)

    # a fixed ceiling for this fixed run, not a share of adjacent calls, which
    # fall whenever the sampler does less work: 64 canon calls and 178
    # adjacent calls here
    calls = _counted_calls(monkeypatch, run)
    assert calls["canon"] <= 100
    assert calls["nat_cmp"] == 0
