"""Brute-force condition evaluator for triple snapshots, used by the test
suite as an independent second opinion.

Deliberately shares no code with the package's checker: every condition is
re-evaluated here by exhaustive loops written straight from its finite
definition, over the plain snapshot data plus live replayed oracles for
ground-truth image/orbit queries. Returns ALL violated condition names, not
just the first.

It also holds test oracles the package does not need: the bounded
orbit-graph distance ``dK`` of a compact family, against which
``split_far``'s radius claim is tested, ``induced_subgraph``, and
``bit_test``, the bit read by shifts that ``adjacent`` is tested against.
"""

import math

from radograph.bignat import Big, decode
from radograph.errors import RadographError
from radograph.graph import adjacent


def _load(snapshot, members):
    g = {}
    for u, w in snapshot["g"]:
        g[decode(u)] = decode(w)
    m_set = {decode(m) for m in snapshot["M"]}
    mstar = set(m_set)
    for h in members:
        for m in m_set:
            mstar.add(h.preimage(m))
    mstar = sorted(mstar)
    by_key = {}
    for entry in snapshot["phi"]:
        key = tuple((decode(m), decode(w)) for m, w in entry["fingerprint"])
        by_key[key] = {decode(u): decode(w) for u, w in entry["map"]}
    classes = []
    matched = set()
    unmatched_member = False
    for h in members:
        key = tuple((m, h.image(m)) for m in mstar)
        if key in by_key:
            matched.add(key)
            if all(k != key for k, _, _ in classes):
                hmap = dict(key)
                classes.append((key, hmap, by_key[key]))
        else:
            unmatched_member = True
    structural = unmatched_member or (set(by_key) - matched)
    return g, m_set, classes, structural


def _is_partial_iso(mapping):
    vals = list(mapping.values())
    if len(set(vals)) != len(vals):
        return False
    dom = list(mapping)
    for a in dom:
        for b in dom:
            if a != b and adjacent(a, b) != adjacent(mapping[a], mapping[b]):
                return False
    return True


def _components(edges, vertices):
    """Connected components of the functional graph `edges` over vertices."""
    comp = {v: i for i, v in enumerate(vertices)}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if comp[a] != comp[b]:
                lo = min(comp[a], comp[b])
                comp[a] = comp[b] = lo
                changed = True
    return comp


def _has_cycle(hg):
    """Whether following the map hg from some vertex comes back to a vertex
    already visited on that walk."""
    for start in hg:
        seen = set()
        v = start
        while v in hg:
            if v in seen:
                return True
            seen.add(v)
            v = hg[v]
    return False


def violated_conditions(snapshot, members, target):
    """Set of violated condition names; "structural" covers snapshots whose
    data cannot even be matched up (bad fingerprints, unbuilt vertices)."""
    out = set()
    try:
        g, m_set, classes, structural = _load(snapshot, members)
    except Exception:
        return {"structural"}
    if structural:
        out.add("structural")

    if not _is_partial_iso(g):
        out.add("(i)")
    for _, _, phi in classes:
        if not _is_partial_iso(phi):
            out.add("(i)")

    for v, w in g.items():
        if v not in m_set or w not in m_set:
            out.add("(ii)")
    for key, hmap, phi in classes:
        for v in phi:
            if v not in m_set:
                out.add("(ii)")
        for v, vbar in g.items():
            if v not in phi or hmap.get(vbar) not in phi:
                out.add("(ii)")

    def f_image(z):
        try:
            return target.image(z)
        except RadographError:
            out.add("structural")
            return None

    for key, hmap, phi in classes:
        for v, vbar in g.items():
            w = hmap.get(vbar)
            if v in phi and w in phi:
                fz = f_image(phi[v])
                if fz is not None and phi[w] != fz:
                    out.add("(iv)")

    for key, hmap, phi in classes:
        hg = {}
        for v, vbar in g.items():
            if vbar in hmap:
                hg[v] = hmap[vbar]
        # (vii): a cycle in hg
        if _has_cycle(hg):
            out.add("(vii)")
        # (v): distinct hg-chains must land in distinct target orbits
        comp = _components(list(hg.items()), sorted(
            set(phi) | set(hg) | set(hg.values())
        ))
        orbit_comp = {}
        for w in phi:
            try:
                oid = target.orbit_id(phi[w])
            except RadographError:
                out.add("structural")
                continue
            if oid in orbit_comp:
                if orbit_comp[oid] != comp[w]:
                    out.add("(v)")
            else:
                orbit_comp[oid] = comp[w]

    for key, hmap, phi in classes:
        hinv = {w: m for m, w in hmap.items()}
        for key2, hmap2, phi2 in classes:
            if key2 == key:
                continue
            hinv2 = {w: m for m, w in hmap2.items()}
            for w in phi:
                if w in hinv and w in hinv2 and hinv[w] == hinv2[w]:
                    fz = f_image(phi[w])
                    if fz is not None and adjacent(fz, phi[w]) and w not in phi2:
                        out.add("(viii)")

    # (ix) ugly and (x) bad situations, straight from the definitions
    for key, hmap, phi in classes:
        hinv = {w: m for m, w in hmap.items()}
        ran_hg = {hmap[vbar] for vbar in g.values() if vbar in hmap}
        for key2, hmap2, phi2 in classes:
            ran_hg2 = {hmap2[vbar] for vbar in g.values() if vbar in hmap2}
            for x in phi:
                if x in ran_hg or x not in hinv:
                    continue
                u = hinv[x]
                xp = hmap2.get(u)
                if xp is None or xp in ran_hg2:
                    continue
                if xp in phi2:
                    for y in phi:
                        if y in g or y not in phi2:
                            continue
                        fy = f_image(phi[y])
                        fy2 = f_image(phi2[y])
                        if fy is None or fy2 is None:
                            continue
                        if adjacent(phi[x], fy) != adjacent(phi2[xp], fy2):
                            out.add("(x)")
                elif xp not in g:
                    y = xp
                    if y in phi:
                        fy = f_image(phi[y])
                        if fy is not None and adjacent(phi[x], fy):
                            out.add("(ix)")
    return out


def dK(family, x, y, radius):
    """Exact distance from x to y in the orbit graph of the family's members
    if <= radius, else math.inf.

    Each BFS layer is walked in sorted order: a miss extends a lazily built
    member, so the order fixes what it builds."""
    if x == y:
        return 0
    frontier = {x}
    seen = {x}
    for dist in range(1, radius + 1):
        nxt = set()
        for u in sorted(frontier):
            for h in family.members:
                for w in (h.image(u), h.preimage(u)):
                    if w == y:
                        return dist
                    if w not in seen:
                        seen.add(w)
                        nxt.add(w)
        frontier = nxt
        if not frontier:
            break
    return math.inf


def bit_test(x, p):
    """Whether bit at position p of x is set (p a natural, possibly huge)."""
    if isinstance(x, Big):
        return p in x.bits
    if isinstance(p, int):
        return bool((x >> p) & 1) if p < x.bit_length() else False
    return False  # canonical int < 2**INT_BIT_LIMIT <= 2**p


def induced_subgraph(vertices):
    """Adjacency map restricted to the given finite vertex set."""
    vs = sorted(set(vertices))
    return {v: [w for w in vs if adjacent(v, w)] for v in vs}
