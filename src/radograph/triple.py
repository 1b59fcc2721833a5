"""Good triples: a finite partial conjugation skeleton (g, {phi_h}, M).

For a finite family K of lazy automorphisms and a constructed target f, the
triple tracks a partial map g, one finite map phi per restriction class of K
over M* = M u K^{-1}(M), and the support set M. The ten structural
conditions are decidable on this finite data; the four extension operations
grow the triple while keeping all ten conditions intact. Two invariants make
the data, and so the artefacts, independent of how often check() runs:
- every phi value's f-image is built when the value is created, so every
  target query that check() makes is a hit and check() extends no oracle;
- each class owns its phi dict: its members hold that one dict, and no other
  class holds it. When add_to_m splits a class, classes() gives each new
  class after the first a copy.

check() pays only for what changed since its last result: condition (i)
re-tests only the pairs of g and phi that are new since they last passed,
and the class views are derived once per state of M, g and the phi slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bignat import decode, decode_map, encode, encode_map
from .errors import (
    AlreadyDefined,
    ConstructionConflict,
    FiniteOrbitsUnsupported,
    ImplementationFault,
    PreconditionPhiMissing,
)
from .graph import adjacent, merge_tau
from .oracle import STAR0
from .partial import PartialAutomorphism
from .splitting import split_far


@dataclass
class ClassView:
    """One restriction class over M*: fingerprint, members, phi and h o g.

    phi is the class's own dict, the one every member's slot holds, so a
    write to it defines phi for the whole class and for no other class.
    A view describes one state of g and M; any mutation of either makes it
    stale, so derive a new one with GoodTriple.classes() after each.
    """

    key: tuple
    indices: list
    phi: dict
    hmap: dict   # m -> h(m) on M*
    hinv: dict   # h(m) -> m
    hg: dict     # w -> h(g(w)), over the w with g(w) in M*
    ran: set     # values of hg


@dataclass
class BadSituation:
    h: int
    hp: int
    x: object
    xp: object
    y: object


@dataclass
class UglySituation:
    h: int
    hp: int
    x: object
    y: object


class GoodTriple:
    def __init__(self, family, target):
        if target.declared_finite_orbits:
            raise FiniteOrbitsUnsupported("target declares finite orbits")
        for h in family:
            if h.declared_finite_orbits:
                raise FiniteOrbitsUnsupported(
                    "family member declares finite orbits"
                )
        if not target.constructed:
            raise ConstructionConflict("target must be a constructed oracle")
        if target._pattern_bit(1) != 0:
            raise ConstructionConflict(
                "target must admit edge-free fresh-orbit witnesses"
            )
        self.family = family
        self.target = target
        self.g = {}
        self.g_inv = {}
        self.M = set()
        shared = {}
        self._phi = [shared for _ in family.members]
        self._reset_caches()

    def _reset_caches(self):
        """Start both caches empty, so that the next check() is the full one.

        _g_known and _phi_known hold, for this triple only, a copy of g and of
        each member's phi as of the last check() in which that map passed (i),
        refreshed by each such pass and trusted only on the pairs the live map
        still shares with it, one dict per slot. _views holds the class views
        of this triple's last derived state, replaced as soon as M, g or the
        identity of a phi slot differs from its key, one view list.
        """
        self._g_known = {}
        self._phi_known = [{} for _ in self._phi]
        self._views = None

    # -- structure --------------------------------------------------------

    def add_to_m(self, vertices):
        """Enlarge the support set; refinement of classes happens lazily."""
        self.M.update(vertices)
        return self

    def m_star(self):
        return sorted(self.family.m_star(self.M))

    def classes(self):
        """The class views of the current state, derived once per state."""
        if self._views is not None and self._views[0] == self._state_key():
            return self._views[1]
        mstar = self.m_star()
        groups = {}
        for i, h in enumerate(self.family.members):
            groups.setdefault(_fingerprint(h, mstar), []).append(i)
        out = []
        held = set()  # ids of the dicts that earlier classes own
        for key, idxs in groups.items():
            ph = self._phi[idxs[0]]
            if any(self._phi[i] is not ph for i in idxs[1:]):
                raise ImplementationFault(
                    "members with equal fingerprints hold different phi"
                )
            if id(ph) in held:  # a split: the new class gets its own copy
                ph = dict(ph)
                for i in idxs:
                    self._phi[i] = ph
            held.add(id(ph))
            hmap = dict(key)
            hg = {w: hmap[vb] for w, vb in self.g.items() if vb in hmap}
            out.append(ClassView(key, idxs, ph, hmap, {v: m for m, v in hmap.items()},
                                 hg, set(hg.values())))
        # keyed after the split copies: with the same slot identities no two
        # members of one class can hold different dicts, so (vi) cannot newly
        # fail; the views hold every slot's dict, so no id in the key is reused
        self._views = (self._state_key(), out)
        return out

    def _state_key(self):
        return (frozenset(self.M), frozenset(self.g.items()), tuple(map(id, self._phi)))

    # -- detectors --------------------------------------------------------

    def find_bad(self, classes):
        out = []
        f = self.target
        for c in classes:
            lhs_of = {}  # (x, y) -> adjacent(phi(x), f(phi(y))), for class c
            for c2 in classes:
                if c2 is c:  # x' = x, so both sides are one test
                    continue
                for x in c.phi:
                    if x in c.ran or x not in c.hinv:
                        continue
                    u = c.hinv[x]
                    xp = c2.hmap.get(u)
                    if xp is None or xp not in c2.phi or xp in c2.ran:
                        continue
                    for y in c.phi:
                        if y in self.g or y not in c2.phi:
                            continue
                        lhs = lhs_of.get((x, y))
                        if lhs is None:
                            lhs = lhs_of[x, y] = adjacent(c.phi[x], f.image(c.phi[y]))
                        rhs = adjacent(c2.phi[xp], f.image(c2.phi[y]))
                        if lhs != rhs:
                            out.append(
                                BadSituation(c.indices[0], c2.indices[0], x, xp, y)
                            )
        return out

    def find_ugly(self, classes):
        out = []
        f = self.target
        for c in classes:
            for c2 in classes:
                for x in c.phi:
                    if x in c.ran or x not in c.hinv:
                        continue
                    y = c2.hmap.get(c.hinv[x])
                    if y is None or y in c2.ran or y in self.g:
                        continue
                    if y in c2.phi:
                        continue
                    if y in c.phi and adjacent(c.phi[x], f.image(c.phi[y])):
                        out.append(UglySituation(c.indices[0], c2.indices[0], x, y))
        return out

    # -- the ten-condition checker ----------------------------------------

    def check(self):
        """{"ok": True} or {"ok": False, "condition": name, "witness": data}.

        Condition (i) re-tests only the pairs of g and of each phi that are
        new since that map last passed it, against all pairs; the class views
        are derived once per state. A triple from __init__ or from_snapshot
        starts with empty caches, so its first check() is the full one.
        """
        f = self.target

        def fail(cond, witness):
            return {"ok": False, "condition": cond, "witness": witness}

        err = PartialAutomorphism(self.g).check(self._g_known)
        if err is not None:
            return fail("(i)", repr(err))
        self._g_known = dict(self.g)
        try:
            classes = self.classes()
        except ImplementationFault as e:
            return fail("(vi)", str(e))
        for c in classes:
            err = PartialAutomorphism(c.phi).check(self._phi_known[c.indices[0]])
            if err is not None:
                return fail("(i)", repr(err))
            known = dict(c.phi)
            for i in c.indices:
                self._phi_known[i] = known

        rd_g = set(self.g) | set(self.g.values())
        if not rd_g <= self.M:
            return fail("(ii)", "rd(g) escapes M")
        for c in classes:
            if not set(c.phi) <= self.M:
                return fail("(ii)", "dom(phi) escapes M")
            need = set(c.hg) | c.ran
            if not need <= set(c.phi):
                return fail("(ii)", min(need - set(c.phi)))

        # (iii) vacuous: no finite-orbit set to respect

        for c in classes:
            for v, w in c.hg.items():
                if v in c.phi and w in c.phi:
                    if c.phi[w] != f.image(c.phi[v]):
                        return fail("(iv)", encode(v))

        for c in classes:
            chain_of = _chain_ids(c.hg, c.phi)
            if chain_of is None:
                return fail("(vii)", c.indices)
            orbit_of_chain = {}
            for w in c.phi:
                oid = f.orbit_id(c.phi[w])
                cid = chain_of[w]
                prev = orbit_of_chain.get(oid)
                if prev is None:
                    orbit_of_chain[oid] = cid
                elif prev != cid:
                    return fail("(v)", encode(w))

        for c in classes:
            for c2 in classes:
                if c is c2:
                    continue
                for w in c.phi:
                    if w not in c.hinv or w not in c2.hinv:
                        continue
                    if c2.hinv[w] != c.hinv[w]:
                        continue
                    if adjacent(f.image(c.phi[w]), c.phi[w]) and w not in c2.phi:
                        return fail("(viii)", encode(w))

        ugly = self.find_ugly(classes)
        if ugly:
            return fail("(ix)", ugly[0])
        bad = self.find_bad(classes)
        if bad:
            return fail("(x)", bad[0])
        return {"ok": True}

    # -- extension operations ---------------------------------------------

    def extend_phi(self, classes, cls, v):
        """Define phi of cls, one class of the current view classes, at v by
        a fresh-orbit target witness whose adjacency type pre-empts every bad
        and ugly situation. Only cls.phi changes, so the view stays current."""
        if v not in self.M:
            raise ValueError(f"{v!r} is outside M")
        if v in cls.phi:
            raise AlreadyDefined(f"phi already defined at {v!r}")
        f = self.target
        req = []
        for w, pw in cls.phi.items():
            req.append((pw, adjacent(v, w)))
        if v not in self.g:
            # pre-empt bad/ugly situations with v in the y slot
            for x in cls.phi:
                if x in cls.ran or x not in cls.hinv:
                    continue
                u = cls.hinv[x]
                key = None
                for c2 in classes:
                    xp = c2.hmap.get(u)
                    if xp is None or xp in c2.ran:
                        continue
                    if xp in c2.phi and v in c2.phi:
                        if key is None:
                            key = f.preimage(cls.phi[x])
                        bit = adjacent(c2.phi[xp], f.image(c2.phi[v]))
                        req.append((key, bit))
                    elif xp == v and v not in c2.phi:
                        if key is None:
                            key = f.preimage(cls.phi[x])
                        req.append((key, 0))
            # pre-empt situations with v in the x slot
            if v not in cls.ran and v in cls.hinv:
                u0 = cls.hinv[v]
                for c2 in classes:
                    xp = c2.hmap.get(u0)
                    if xp is None or xp in c2.ran:
                        continue
                    for y in cls.phi:
                        if y in self.g:
                            continue
                        if xp in c2.phi and y in c2.phi:
                            bit = adjacent(c2.phi[xp], f.image(c2.phi[y]))
                            req.append((f.image(cls.phi[y]), bit))
                        elif xp == y and y not in c2.phi:
                            req.append((f.image(cls.phi[y]), 0))
        z = f.star_witness(merge_tau(req), STAR0)
        f.image(z)  # pin f(z) now, so that check() only reads it
        cls.phi[v] = z
        return self

    def extend_phi_all(self, v):
        classes = self.classes()
        for cls in classes:
            if v not in cls.phi:
                self.extend_phi(classes, cls, v)
        return self

    def extend_domain_g(self, v):
        """Adjoin v to dom(g): the image is a far splitting point v-bar, and
        every phi gains h(v-bar) -> f(phi(v))."""
        if v in self.g:
            raise AlreadyDefined(f"g already defined at {v!r}")
        classes = self.classes()
        for c in classes:
            if v not in c.phi:
                raise PreconditionPhiMissing(f"phi missing at {v!r}")
        f = self.target
        entries = [(w, adjacent(self.g_inv[w], v)) for w in self.g_inv]
        for c in classes:
            fz = f.image(c.phi[v])
            for u, pu in c.phi.items():
                entries.append((c.hinv[u], adjacent(pu, fz)))
        tau = merge_tau(entries)
        vbar = split_far(self.family, self.family.m_star(self.M), tau)
        self.g[v] = vbar
        self.g_inv[vbar] = v
        self.M.add(vbar)
        for c in classes:
            fz = f.image(c.phi[v])
            f.image(fz)  # pin f(fz) now, so that check() only reads it
            own = {}  # h(v-bar) -> the dict of the members that map v-bar there
            for i in c.indices:
                hv = self.family.members[i].image(vbar)
                self.M.add(hv)
                if hv not in own:
                    own[hv] = {**c.phi, hv: fz}
                self._phi[i] = own[hv]
        return self

    def extend_range_g(self, v):
        """Adjoin v to ran(g): the preimage is a far splitting point, and
        every phi gains v-bar -> f^{-1}(phi(h(v)))."""
        if v not in self.M:
            raise ValueError(f"{v!r} is outside M")
        if v in self.g_inv:
            raise AlreadyDefined(f"g already hits {v!r}")
        classes = self.classes()
        for c in classes:
            if c.hmap[v] not in c.phi:
                raise PreconditionPhiMissing(f"phi missing at image of {v!r}")
        f = self.target
        entries = [(w, adjacent(self.g[w], v)) for w in self.g]
        for c in classes:
            fz = f.preimage(c.phi[c.hmap[v]])
            for u, pu in c.phi.items():
                entries.append((u, adjacent(pu, fz)))
        tau = merge_tau(entries)
        vbar = split_far(self.family, self.family.m_star(self.M), tau)
        self.g[vbar] = v
        self.g_inv[v] = vbar
        self.M.add(vbar)
        for c in classes:
            # the new value's f-image is the phi value it was taken from
            c.phi[vbar] = f.preimage(c.phi[c.hmap[v]])
        return self

    def extend_phi_range(self, z):
        """Make z's target orbit meet the phi-range of every class, via
        mutually far splitting points."""
        zoid = self.target.orbit_id(z)
        fresh = []
        for c in self.classes():
            if any(self.target.orbit_id(pv) == zoid for pv in c.phi.values()):
                continue
            tau = {w: (1 if adjacent(pw, z) else 0) for w, pw in c.phi.items()}
            m_set = self.family.m_star(self.M) | set(fresh)
            v_c = split_far(self.family, m_set, tau)
            c.phi[v_c] = z
            self.target.image(z)  # pin f(z) now, so that check() only reads it
            self.M.add(v_c)
            fresh.append(v_c)
        return self

    # -- serialization ----------------------------------------------------

    def to_snapshot(self):
        return {
            "g": encode_map(self.g),
            "M": [encode(m) for m in sorted(self.M)],
            "phi": [{"fingerprint": encode_map(c.hmap), "map": encode_map(c.phi)}
                    for c in self.classes()],
            "family_ref": [h.to_json() for h in self.family],
            "target_ref": self.target.to_json(),
        }

    @classmethod
    def from_snapshot(cls, snapshot, family, target):
        """Rebuild a triple from snapshot data against live (replayed) oracles.

        phi entries are matched to members by fingerprint; a fingerprint that
        matches no member, or a member with no matching fingerprint, raises.
        """
        t = cls.__new__(cls)
        t.family = family
        t.target = target
        t.g = decode_map(snapshot["g"])
        t.g_inv = {w: u for u, w in t.g.items()}
        t.M = {decode(m) for m in snapshot["M"]}
        by_key = {}
        for entry in snapshot["phi"]:
            key = tuple(decode_map(entry["fingerprint"]).items())
            by_key[key] = decode_map(entry["map"])
        mstar = t.m_star()
        t._phi = []
        cache = {}
        for h in family.members:
            key = _fingerprint(h, mstar)
            if key not in by_key:
                raise ValueError("snapshot phi does not cover a family member")
            if key not in cache:
                cache[key] = dict(by_key[key])
            t._phi.append(cache[key])
        t._reset_caches()
        return t


def _fingerprint(h, mstar):
    """h restricted to M*, as the (m, h(m)) pairs in M* order."""
    return tuple((m, h.image(m)) for m in mstar)


def _chain_ids(hg, phi_dom):
    """Chain id of each vertex of dom(phi), None if hg closes a cycle.

    A vertex on an hg-chain gets the chain's first vertex, any other vertex
    itself. hg must be injective, as it is once g passes (i), since every
    family member is; (ii) puts every vertex of hg in dom(phi)."""
    chain_of = {}
    for orbit in PartialAutomorphism(hg).orbit_paths():
        if orbit["kind"] == "cycle":
            return None
        first = orbit["vertices"][0]
        for w in orbit["vertices"]:
            chain_of[w] = first
    return {w: chain_of.get(w, w) for w in phi_dom}


def init(family, target):
    return GoodTriple(family, target)

