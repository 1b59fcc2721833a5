"""The countable random graph in its bit-membership presentation.

Vertices are naturals; u and v (u < v) are adjacent exactly when bit u of v
is set. ``realize`` returns the least fresh vertex with a prescribed
adjacency pattern towards finitely many existing vertices (its ones and
explicit zeros, over an optional set of default zeros), in one kernel pass
per candidate, and ``merge_tau`` is the one place that pattern is assembled
from separate requirements. ``edges`` enumerates the edges among a finite
vertex set, each at its upper end's bits, with no pairwise scan. Every
vertex argument is canonical (see ``bignat``).
"""

from __future__ import annotations

from . import bignat
from .bignat import Big
from .errors import ImplementationFault


def adjacent(u, v):
    """Edge relation: bit min(u,v) of max(u,v). Irreflexive and symmetric.

    One dispatch on the representations: a canonical int is below every
    Big, so only two ints or two Bigs need ordering."""
    if isinstance(u, Big):
        if isinstance(v, Big):
            if u is v:
                return False
            return v in u if u._label > v._label else u in v
        return v in u
    if isinstance(v, Big):
        return u in v
    if u > v:
        u, v = v, u
    elif u == v:
        return False
    return u < v.bit_length() and (v >> u) & 1 == 1


def edges(vertices):
    """Yield each edge (u, w) among the finite set ``vertices`` once, u < w.

    An edge is found at its upper end w, whose set bits are its lower
    neighbours: for a ``Big`` w they are ``w & vertices``; for an
    ``int`` w they are the set bits of ``w & mask``, where ``mask`` holds the
    ``int`` members below ``INT_BIT_LIMIT``. That mask is exact, since no
    canonical ``int`` has a set bit at or above ``INT_BIT_LIMIT`` and no
    ``Big`` is a bit of an ``int``. The limit is read from ``bignat`` at call
    time, so that its one definition there holds here too."""
    vertices = set(vertices)
    mask = 0
    for u in vertices:
        if isinstance(u, int) and u < bignat.INT_BIT_LIMIT:
            mask |= 1 << u
    for w in vertices:
        if isinstance(w, Big):
            for u in w & vertices:
                yield u, w
            continue
        x = w & mask
        while x:
            low = x & -x
            yield low.bit_length() - 1, w
            x ^= low


def merge_tau(pairs):
    """The adjacency type {w: 0/1} asked for by the (w, bit) pairs.

    Callers derive their requirements from a structure whose invariants make
    them consistent, so a w asked for with both bits is a bug in this
    package: ImplementationFault names it."""
    tau = {}
    for w, bit in pairs:
        bit = 1 if bit else 0
        if tau.setdefault(w, bit) != bit:
            raise ImplementationFault(f"adjacency requirements clash at {w!r}")
    return tau


def realize(tau, forbidden=(), lower_bound=0, zeros=()):
    """Least vertex v with v > max(dom(tau) + {lower_bound}), v not forbidden,
    adjacent(v, w) == tau[w] for every w in dom(tau), and v not adjacent to
    any w in ``zeros`` outside dom(tau).

    tau's values are 0/1 or ``bool``; tau is read as given, not copied.
    ``zeros`` lets a caller that already holds a set of default non-neighbours
    pass it instead of listing each one in tau: every member of ``zeros``
    must be at most ``lower_bound``, so the limit is computed from tau and
    the lower bound alone. Each realizer is one kernel call, the least
    value above the limit max(dom(tau) + {lower_bound}) that realizes tau,
    and each forbidden hit one more, from the hit."""
    limit = max(tau, default=lower_bound)
    if limit < lower_bound:
        limit = lower_bound
    v = bignat.min_with_bits_geq(limit, tau, zeros)
    while v in forbidden:
        v = bignat.min_with_bits_geq(v, tau, zeros)
    return v


def to_dot(vertices):
    """GraphViz DOT text for the subgraph induced on the given vertices."""
    vs = sorted(set(vertices))
    labels = {v: _label(v) for v in vs}
    lines = ["graph radograph {"]
    for v in vs:
        lines.append(f'  "{labels[v]}";')
    for u, w in sorted(edges(vs)):
        lines.append(f'  "{labels[u]}" -- "{labels[w]}";')
    lines.append("}")
    return "\n".join(lines)


def _label(v):
    if isinstance(v, int):
        return str(v) if v.bit_length() <= 64 else f"int#{v.bit_length()}b"
    return f"big#{hash(v) & 0xFFFFFFFF:08x}"
