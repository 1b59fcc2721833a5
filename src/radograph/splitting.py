"""Splitting points: vertices realizing a type while forcing family members
that disagree on a finite window to keep disagreeing at the new vertex.

The two-set step: to separate maps L, L' that differ at w0, pick w1 adjacent
to L(w0) but not to L'(w0); then any v adjacent to L^{-1}(w1) and not to
L'^{-1}(w1) satisfies L(v) != L'(v). The outputs of split are fresh vertices
realizing the requested type plus all collected separation constraints.
"""

from __future__ import annotations

from .bignat import bits_desc, vmax
from .graph import adjacent, realize


def _witness_candidates(a, b, avoid):
    """Vertices adjacent to a, non-adjacent to b, outside avoid; ascending
    within a canonical enumeration (set bits of a first, then fresh realizers)."""
    for p in reversed(bits_desc(a)):
        if p not in avoid and p != b and not adjacent(p, b):
            yield p
    v = vmax([a, b])
    while True:
        v = realize({a: 1, b: 0}, avoid, v)
        yield v


def _add_separation(tau, avoid, w0_left, w0_right, pull_left, pull_right):
    """Find w1 adjacent to w0_left, non-adjacent to w0_right; pull it back
    through both maps and constrain v to be adjacent to one preimage and not
    the other. Retries deterministically on collisions."""
    for w1 in _witness_candidates(w0_left, w0_right, avoid):
        x = pull_left(w1)
        xp = pull_right(w1)
        if x == xp:
            avoid = avoid | {w1}
            continue
        if tau.get(x) == 0 or tau.get(xp) == 1:
            avoid = avoid | {w1}
            continue
        tau[x] = 1
        tau[xp] = 0
        return


def split(family, m_set, tau, exclusion_bound):
    """Splitting point for m_set and family realizing tau, above
    exclusion_bound, separating images and preimages of every pair of
    members whose fingerprints on M differ."""
    m_sorted = sorted(set(m_set))
    full = {m: 0 for m in m_sorted}
    for w, b in tau.items():
        if w not in full:
            raise ValueError(f"tau constrains {w!r} outside M")
        full[w] = 1 if b else 0
    members = list(family)
    for i, h in enumerate(members):
        for hp in members[i + 1:]:
            w0 = next((m for m in m_sorted if h.image(m) != hp.image(m)), None)
            if w0 is None:
                continue
            avoid = frozenset(m_sorted) | set(full)
            # forward separation: image(h, v) != image(hp, v)
            _add_separation(full, avoid, h.image(w0), hp.image(w0),
                            h.preimage, hp.preimage)
            # inverse separation via the K u K^{-1} trick: the inverses
            # differ at h(w0), since only h pulls it back to w0
            w0p = h.image(w0)
            _add_separation(full, avoid | set(full), w0, hp.preimage(w0p),
                            h.image, hp.image)
    return realize(full, (), vmax([exclusion_bound] + m_sorted))


def split_far(family, m_set, tau):
    """Splitting point realizing tau whose orbit-graph distance to every
    element of M exceeds 3: the exclusion bound is pushed above everything
    any member has materialized, so the radius-4 ball around the result
    consists of post-hoc fresh vertices only."""
    bound = vmax(list(m_set) + list(tau) + [h._max for h in family])
    return split(family, m_set, tau, bound)
