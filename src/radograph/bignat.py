"""Exact arithmetic on naturals that are far too large to materialize.

Vertices produced by iterated least-realizer constructions have bit positions
that are themselves astronomical, so a plain ``int`` representation explodes.
A natural is held either as a plain ``int`` (when its bit length stays at or
below ``INT_BIT_LIMIT``) or as a :class:`Big`: the frozenset of its set bit
positions, each position again a natural in the same representation, which
also keeps those positions as a descending tuple. A ``Big`` is its own
bitset, so bit membership and hashing run at C level; the hash is
frozenset's, cached in the object and derived from the positions' hashes
alone, so it depends neither on ``PYTHONHASHSEED`` nor on memory addresses.

``Big`` values are hash-consed: two equal values are the same object. Every
live ``Big`` also carries an integer order label, and labels are ordered as
the values are, so comparing two ``Big`` values is comparing two ints however
deep their bit positions nest. The intern table and the order list are
process-wide, hold each live ``Big`` weakly, drop it when it is collected and
so never hold more entries than there are live ``Big`` values.

Every vertex passed inside ``radograph`` is canonical: an ``int`` of at
most ``INT_BIT_LIMIT`` bits, else a ``Big``. ``canon`` establishes this once,
where a value enters: in this module (``canon``, ``decode``, ``succ``'s step
out of the int range, ``nat_cmp``'s raw-int compare), in the CLI's integer
arguments, and in the oracle constructors (the ``build_fp``/``build_c0``
seed and the ``seeded_oracle`` pairs), which ``replay`` reaches with raw JSON
seeds. No other function re-checks its arguments.

Naturals compare with Python's own operators: ``<``, ``sorted``, ``min`` and
``max`` order any mix of canonical ints and ``Big`` values (an int on the
left defers to the reflected ``Big`` method). Two ``Big`` values compare by
label; a ``Big`` against a canonical int is answered inline, since every
``Big`` is above every canonical int. Only a raw int wider than
``INT_BIT_LIMIT``, which the contract keeps out of the package, still goes
through ``nat_cmp``. A label is read at compare time and may change when the
list is relabelled, so no sort key is cached.

Only the operations the graph model needs are provided: total order,
successor, bit tests, and the least value above N whose bits agree with a
finite 0/1 constraint map. ``encode``/``decode`` give the JSON form
of one natural; ``encode_map``/``decode_map`` are the one place that knows
the JSON form of a finite vertex map. ``decode`` asks the intern table for each
node before building it, so decoding a live value returns it as it is.
"""

from __future__ import annotations

import gc
import weakref
from bisect import bisect_left
from operator import attrgetter

INT_BIT_LIMIT = 4096
_LABEL_SPACE = 1 << 62


class _Entry(weakref.ref):
    """Weak handle of one live Big, with its bits (the intern key) and label."""

    __slots__ = ("bits", "label")


_table = {}  # bits -> _Entry of the live Big with exactly those bits
_order = []  # _Entry of every live Big, ascending by value and by label


def _forget(entry, table=_table, order=_order, find=bisect_left,
            label=attrgetter("label")):
    """Weakref callback of a collected Big: unlist it. Everything it uses is
    bound as a default, so it still works while the interpreter shuts down."""
    del order[find(order, entry.label, key=label)]
    del table[entry.bits]


def _insert(node):
    """List a new node in ``_order`` and give it a label between its
    neighbours', relabelling every node evenly when that gap is used up.

    The binary search compares bit tuples: tuple order is the first
    differing position, else length, which is the order of the naturals, and
    its positions compare by the labels they already have.
    The cyclic collector is held off meanwhile, since a collection could run
    ``_forget`` and shift ``_order`` under the search.
    """
    bits = node.bits
    enabled = gc.isenabled()
    gc.disable()
    try:
        lo = bisect_left(_order, bits, key=attrgetter("bits"))
        below = _order[lo - 1].label if lo else 0
        above = _order[lo].label if lo < len(_order) else _LABEL_SPACE
        entry = _Entry(node, _forget)
        entry.bits = bits
        _order.insert(lo, entry)
        _table[bits] = entry
        if above - below > 1:
            entry.label = node._label = (below + above) // 2
        else:
            gap = _LABEL_SPACE // (len(_order) + 1)
            for i, e in enumerate(_order, 1):
                e.label = e()._label = i * gap
    finally:
        if enabled:
            gc.enable()


class Big(frozenset):
    """A natural stored as the frozenset of its set bit positions; ``bits``
    holds the same positions sorted descending.

    ``p in v`` tests bit p of v, and ``hash(v)`` is frozenset's: computed at
    C level, cached, and a function of the value alone (see the module
    docstring). The set operators are frozenset's and return plain
    frozensets; ``==`` and the order are those of the naturals, so a ``Big``
    never equals a frozenset, not even that of its own bits.

    Interned: ``Big(bits)`` returns the live instance with these bits if
    there is one, so equal values are identical. ``_label`` is the value's
    place in the order of all live ``Big`` values (see the module docstring).
    """

    __slots__ = ("bits", "_label")  # a frozenset takes weak references
    # defining __eq__ would otherwise unset the hash; != is __eq__'s inverse
    __hash__ = frozenset.__hash__
    __ne__ = object.__ne__

    def __new__(cls, bits):
        entry = _table.get(bits)
        if entry is not None:
            return entry()
        self = frozenset.__new__(cls, bits)
        self.bits = bits  # tuple, descending, canonical naturals
        _insert(self)
        return self

    def __reduce__(self):
        return Big, (self.bits,)

    def __eq__(self, other):
        if isinstance(other, Big):
            return self is other
        if isinstance(other, int):
            # canonical ints never overlap with Big values, but tolerate
            # a raw oversized int
            return other.bit_length() > INT_BIT_LIMIT and canon(other) is self
        return False

    # A canonical int is below every Big, so it is answered inline; only a
    # raw oversized int (or a non-natural) goes on to nat_cmp.
    def __lt__(self, other):
        if isinstance(other, Big):
            return self._label < other._label
        if isinstance(other, int) and other.bit_length() <= INT_BIT_LIMIT:
            return False
        return nat_cmp(self, other) < 0

    def __le__(self, other):
        if isinstance(other, Big):
            return self._label <= other._label
        if isinstance(other, int) and other.bit_length() <= INT_BIT_LIMIT:
            return False
        return nat_cmp(self, other) <= 0

    def __gt__(self, other):
        if isinstance(other, Big):
            return self._label > other._label
        if isinstance(other, int) and other.bit_length() <= INT_BIT_LIMIT:
            return True
        return nat_cmp(self, other) > 0

    def __ge__(self, other):
        if isinstance(other, Big):
            return self._label >= other._label
        if isinstance(other, int) and other.bit_length() <= INT_BIT_LIMIT:
            return True
        return nat_cmp(self, other) >= 0

    def __repr__(self):
        inner = ", ".join(repr(b) for b in self.bits[:4])
        if len(self.bits) > 4:
            inner += f", ... ({len(self.bits)} bits)"
        return f"Big[{inner}]"


def canon(x):
    """Canonical representation: small ints stay ints, everything else is Big.

    Called only where a value enters (see the module docstring); a negative
    int is a ValueError, anything else not a natural a TypeError."""
    if isinstance(x, Big):
        return x
    if isinstance(x, int):
        if x < 0:
            raise ValueError("vertices are naturals")
        if x.bit_length() <= INT_BIT_LIMIT:
            return x
        return Big(tuple(bits_desc(x)))
    raise TypeError(f"not a natural: {x!r}")


def bits_desc(x):
    """Set bit positions of x, descending. For an int, one scan of its binary
    digits finds each set bit in turn, so the cost is linear in its length."""
    if isinstance(x, Big):
        return list(x.bits)
    digits = bin(x)  # "0b1...": the digit at index i is bit len(digits) - 1 - i
    top = len(digits) - 1
    out = []
    i = digits.find("1", 2)
    while i >= 0:
        out.append(top - i)
        i = digits.find("1", i + 1)
    return out


def nat_cmp(a, b):
    """Three-way compare of two naturals in either representation."""
    if isinstance(a, int):
        if isinstance(b, int):
            return (a > b) - (a < b)
        # a canonical int is < 2**INT_BIT_LIMIT <= any Big
        if a.bit_length() <= INT_BIT_LIMIT:
            return -1
        a = canon(a)
    elif isinstance(b, int):
        if b.bit_length() <= INT_BIT_LIMIT:
            return 1
        b = canon(b)
    la, lb = a._label, b._label
    return (la > lb) - (la < lb)


def from_bits(positions):
    """Build the natural with exactly the given set bit positions, which
    must be canonical (see the module docstring); repeats are ignored.
    First-seen order is kept: positions often arrive descending, which
    ``sorted`` then checks in one pass."""
    ps = list(dict.fromkeys(positions))
    if all(isinstance(p, int) for p in ps) and (not ps or max(ps) < INT_BIT_LIMIT):
        return sum(1 << p for p in ps)
    return Big(tuple(sorted(ps, reverse=True)))


def succ(x):
    """x + 1. An int successor is checked for width inline; only the step
    from 2**INT_BIT_LIMIT - 1 goes through ``canon``. A Big's trailing run
    of set bits 0, 1, ..., k - 1 is cut off its tuple and k put in its place."""
    if isinstance(x, int):
        y = x + 1
        return y if y.bit_length() <= INT_BIT_LIMIT else canon(y)
    bits = x.bits
    k = 0
    while k < len(bits) and bits[-1 - k] == k:
        k += 1
    return Big(bits[:len(bits) - k] + (k,))


def vmax(values):
    """Maximum of a nonempty iterable of canonical naturals."""
    return max(values)


def min_with_bits_geq(n, constraints, zeros=()):
    """Least natural X > n (strictly above n, despite the name) with X's bit
    at p equal to constraints[p] for all p in dom(constraints), and 0 for all
    p in ``zeros`` outside it.

    constraints maps canonical positions to 0/1 or ``bool``; ``zeros`` is a
    container of canonical positions (a set or dict is tested by hash) that
    stand for default zeros, so a sparse type need not list them. Only the
    highest position p where the combined map disagrees with n decides. It
    is the higher of two candidates: the highest disagreeing constraint,
    found in one pass over constraints, and the highest of n's bits that
    lies in ``zeros`` but not in constraints, found by walking n's bits
    downwards until the first candidate is reached. Above the decisive
    position X copies n's bits. If the map wants a 1 at p, X is n's bits
    above p, then p, then the wanted ones below p. If it wants a 0, every
    value that copies n above p is below n, so X sets the lowest free zero q
    above p (neither constrained, nor in ``zeros``, nor set in n) and takes
    n's bits above q, then q, then the wanted ones below q. With no
    disagreement n itself agrees, and the same search for a free zero starts
    at position 0, which is succ(n)'s search done in one pass.

    n's bits are tested by membership: a Big is its own bitset, and an int's
    bits are listed once into a frozenset. X is built from its descending
    bits directly, as an int by shifts and ORs when its top bit is below
    ``INT_BIT_LIMIT``, else as ``Big(tuple)``.
    """
    if isinstance(n, Big):
        nbits, nset = n.bits, n
    else:
        nbits = bits_desc(n)
        nset = frozenset(nbits)
    top = None
    for p, b in constraints.items():
        if b != (p in nset) and (top is None or p > top):
            top = p
    if zeros:
        for p in nbits:
            if top is not None and not p > top:
                break
            if p in zeros and p not in constraints:
                top = p
                break
    if top is None or constraints.get(top, 0) == 0:
        top = 0 if top is None else succ(top)
        while top in constraints or top in zeros or top in nset:
            top = succ(top)
    low = [r for r, b in constraints.items() if b == 1 and r < top]
    if isinstance(n, int) and top < INT_BIT_LIMIT:
        x = n >> (top + 1) << (top + 1) | 1 << top
        for r in low:
            x |= 1 << r
        return x
    low.sort(reverse=True)
    high = []  # n's bits above top
    for p in nbits:
        if not p > top:
            break
        high.append(p)
    return Big((*high, top, *low))


def encode(v):
    """JSON-compatible encoding: plain number, or {"^": [positions...]}."""
    if isinstance(v, int):
        return v
    return {"^": [encode(p) for p in v.bits]}


def decode(obj):
    """Inverse of ``encode``: the canonical natural of a JSON vertex.

    A node's positions are decoded first, then their tuple is looked up in
    the intern table, and a hit is the live ``Big`` itself. A hit is
    canonical: the table's keys are the strictly descending bit tuples of
    live ``Big`` values, and decoded positions are canonical, so equal
    tuples are the same value. A miss goes through ``from_bits``, which also
    accepts unsorted or repeated positions and all-small ones that make an
    ``int``. A non-negative ``int`` of at most ``INT_BIT_LIMIT`` bits is
    returned as it is; any other ``int`` (a bool too) goes through ``canon``.
    A node costs one call: its canonical ``int`` positions are read inline,
    and only its other positions recurse.
    """
    if type(obj) is int and obj >= 0 and obj.bit_length() <= INT_BIT_LIMIT:
        return obj
    if isinstance(obj, int):
        return canon(obj)
    if isinstance(obj, dict) and len(obj) == 1 and "^" in obj:
        positions = [p if type(p) is int and p >= 0 and p.bit_length() <= INT_BIT_LIMIT
                     else decode(p) for p in obj["^"]]
        entry = _table.get(tuple(positions))
        if entry is not None:
            return entry()
        return from_bits(positions)
    raise ValueError(f"not an encoded vertex: {obj!r}")


def encode_map(m):
    """JSON-compatible encoding of a finite vertex map: ``[[u, m[u]], ...]``
    by ascending u."""
    return [[encode(u), encode(m[u])] for u in sorted(m)]


def decode_map(pairs):
    """Inverse of ``encode_map``; a duplicate domain vertex is a ValueError."""
    m = {}
    for u, w in pairs:
        u = decode(u)
        if u in m:
            raise ValueError(f"duplicate domain vertex {u!r}")
        m[u] = decode(w)
    return m
