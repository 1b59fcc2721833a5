"""Finite partial automorphisms of the graph: injective, edge-preserving maps."""

from __future__ import annotations

from .bignat import encode_map
from .errors import EdgeViolation, NotInjective
from .graph import adjacent, edges


class PartialAutomorphism:
    """A finite injective map on vertices that preserves the edge relation.

    Validity is not enforced at construction time; call check() to test it.
    """

    def __init__(self, pairs=()):
        self._fwd = {}
        items = pairs.items() if hasattr(pairs, "items") else pairs
        for u, v in items:
            if u in self._fwd:
                raise ValueError(f"duplicate domain vertex {u!r}")
            self._fwd[u] = v

    def __len__(self):
        return len(self._fwd)

    def __eq__(self, other):
        return isinstance(other, PartialAutomorphism) and self._fwd == other._fwd

    def __repr__(self):
        return f"PartialAutomorphism({len(self._fwd)} pairs)"

    def rd(self):
        """Domain union range."""
        return set(self._fwd) | set(self._fwd.values())

    def pairs(self):
        return sorted(self._fwd.items())

    def check(self):
        """Return None if valid, else the violation as an exception instance:
        extension_error with every pair new."""
        return extension_error((), list(self._fwd.items()), {})

    def orbit_paths(self):
        """Decompose the map into maximal chains and closed cycles.

        Returns a list of {"kind": "path"|"cycle", "vertices": [...]}, each
        chain listed from its backward end, each cycle from its least vertex,
        ordered by first vertex. On an injective map a backward walk either
        leaves the range or comes back round to its start, on a cycle. A map
        that is not injective raises NotInjective, since its walks need not end.
        """
        fwd = self._fwd
        bwd = {v: u for u, v in fwd.items()}
        if len(bwd) < len(fwd):
            raise NotInjective("orbit_paths needs an injective map")
        out = []
        visited = set()
        for start in fwd:
            if start in visited:
                continue
            first = start
            while first in bwd and bwd[first] != start:
                first = bwd[first]
            vertices = [first]
            while vertices[-1] in fwd and fwd[vertices[-1]] != first:
                vertices.append(fwd[vertices[-1]])
            visited.update(vertices)
            if first in bwd:  # the walk came back round to start
                least = vertices.index(min(vertices))
                out.append({"kind": "cycle", "vertices": vertices[least:] + vertices[:least]})
            else:
                out.append({"kind": "path", "vertices": vertices})
        out.sort(key=lambda o: o["vertices"][0])
        return out

    def to_json(self):
        return {"pairs": encode_map(self._fwd)}


def extension_error(old, new, inv):
    """Return None if the pairs old + new form a partial automorphism, else
    the violation as an exception instance.

    old must already form one, and inv map each of its values to its key.
    Its pairs are trusted, so only the new pairs are tested, each against
    every pair; any sub-map of a valid map is valid, so the result is exact.
    new is a list of pairs with distinct keys, none of them a key of old.

    The witness of a failed edge test is canonical: of the violating pairs
    of the list old + new, the one whose earlier member comes first, then
    whose later member does, named earlier key first. Trusting a prefix of
    a map thus changes what is tested, never the witness named.

    When old is empty, edge preservation is decided by counting, in time
    near-linear in the map's size and edge count: every edge among the domain
    must map to an edge, and the range must hold as many edges as the domain.
    An injective map of the domain's edges into the range's edges is onto
    once the counts are equal, so non-edges then map to non-edges too. Only
    when the count says no does the pairwise scan run, to name the witness.
    """
    seen = {}
    for u, v in new:
        w = inv.get(v, seen.get(v))
        if w is not None:
            return NotInjective(f"{w!r} and {u!r} both map to {v!r}")
        seen[v] = u
    if not old:
        fwd = dict(new)
        dom_edges = list(edges(fwd))
        if (all(adjacent(fwd[u], fwd[w]) for u, w in dom_edges)
                and len(dom_edges) == sum(1 for _ in edges(seen))):
            return None
    if not new:
        return None
    for u, v in old:
        for w, x in new:
            if adjacent(u, w) != adjacent(v, x):
                return EdgeViolation(u, w)
    for i, (u, v) in enumerate(new):
        for w, x in new[i + 1:]:
            if adjacent(u, w) != adjacent(v, x):
                return EdgeViolation(u, w)
    return None
