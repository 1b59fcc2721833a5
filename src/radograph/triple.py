"""Good triples: a finite partial conjugation skeleton (g, {phi_h}, M).

For a finite family K of lazy automorphisms and a constructed target f, the
triple tracks a partial map g, one finite map phi per restriction class of K
over M* = M u K^{-1}(M), and the support set M. The ten structural
conditions are decidable on this finite data; the four extension operations
grow the triple while keeping all ten conditions intact. Two invariants make
the data, and so the artefacts, independent of how often check() runs:
- every phi value's f-image is built when the value is created, so every
  target query that check() makes is a hit and check() extends no oracle
  (on any state, (iv) reads f from the target's core and (v) fails on a phi
  value the target never touched);
- each class owns its phi dict: its members hold that one dict, and no other
  class holds it. When M grows and a class splits, classes() gives each new
  class after the first a copy.

M, g and every phi only grow, so nothing is derived twice. classes() keeps
M*, the partition of the members and each class's view: a point new to M is
asked only for its own K-preimages, a point new to M* only for its own
images, and a class only ever splits (partition refinement). Both are asked
sorted with the members outermost, as a derivation from scratch asks them,
so every miss, and so every oracle, is the same.

check() re-tests only what its last green result did not cover: (i) the new
pairs of g and of each phi against all pairs; (ii), (iv), (v) and (vii) the
new pairs of each h o g and the new phi keys, with the hg-chains kept in a
union-find; (viii), (ix) and (x) the points that a new phi key pulls back and
the points new to M*. A state that passed has no violation, so these are all
the violations there are. It falls back to the full check, the same code with
nothing covered, after __init__, from_snapshot or a failed check, and when a
covered pair of g or of a phi was overwritten or dropped or a point left M.
find_bad and find_ugly, called on their own, test every situation.
"""

from __future__ import annotations

from itertools import product

from .bignat import decode, decode_map, encode, encode_map
from .errors import (
    AlreadyDefined,
    ConstructionConflict,
    FiniteOrbitsUnsupported,
    ImplementationFault,
    PreconditionPhiMissing,
)
from .graph import adjacent, merge_tau
from .partial import extension_error
from .splitting import split_far


class ClassView:
    """One restriction class over M*: members, phi, the fingerprint and h o g.

    phi is the class's own dict, the one every member's slot holds, so a
    write to it defines phi for the whole class and for no other class.
    GoodTriple.classes() keeps a view current as M and g grow (hmap and hinv
    gain the new points of M*, hg and ran the new pairs of g) and replaces it
    by new views when the class splits.

    The other fields are what the last green check() covered, and a new view
    covers nothing: ok, phi's pairs then, and ok_inv their inverse; hmap_n and
    hg_n, the lengths of hmap and hg then; links, a union-find over the
    hg-chains then (see _join); orb, one phi key per target orbit met then.
    """

    __slots__ = ("indices", "phi", "hmap", "hinv", "hg", "ran",
                 "ok", "ok_inv", "hmap_n", "hg_n", "links", "orb")

    def __init__(self, indices, hmap, hinv, hg):
        self.indices, self.phi = indices, None  # classes() sets phi
        self.hmap, self.hinv = hmap, hinv  # m -> h(m) on M*, and its inverse
        # w -> h(g(w)), along g's pairs up to the first whose g(w) is not in M*
        self.hg, self.ran = hg, set(hg.values())
        self.ok, self.ok_inv, self.hmap_n, self.hg_n = [], {}, 0, 0
        self.links, self.orb = {}, {}


class _Situation:
    """A forbidden configuration that a detector found, with its fields
    named by __slots__; to_json encodes them, as a check() witness."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)

    def to_json(self):
        return {name: encode(getattr(self, name)) for name in self.__slots__}


class BadSituation(_Situation):
    __slots__ = ("h", "hp", "x", "xp", "y")


class UglySituation(_Situation):
    __slots__ = ("h", "hp", "x", "y")


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
        """Forget everything derived, so that the next classes() derives the
        views from scratch and the next check() is the full one.

        All of it is scoped to this triple, emptied only here, and holds at
        most one entry per point of M* or pair of g: _views, one view per
        class (see ClassView); _m_seen, the points of M whose preimages were
        asked; _mstar, M*, and _unasked, its points whose images were not
        asked yet; _g_seen, g's pairs as last seen, in insertion order;
        _g_ok, how many of them the last green check covered, and _g_inv
        their inverse; _held, one check()'s candidate pairs while its
        detectors run (see _pairs).
        """
        self._views = [ClassView(list(range(len(self._phi))), {}, {}, {})]
        self._m_seen, self._mstar, self._unasked = set(), set(), set()
        self._g_seen, self._g_ok, self._g_inv, self._held = [], 0, {}, None

    # -- structure --------------------------------------------------------

    def add_to_m(self, vertices):
        """Enlarge the support set; refinement of classes happens lazily."""
        self.M.update(vertices)
        return self

    def _sync_g(self):
        """Take in g's new pairs; start over if a pair seen before changed or
        went, or a point left M."""
        items = list(self.g.items())
        if items[:len(self._g_seen)] != self._g_seen or not self._m_seen <= self.M:
            self._reset_caches()
        self._g_seen = items

    def _sync_mstar(self):
        """M*, after asking the preimages of the points new to M (sorted,
        members outermost, as CompactFamily.m_star asks them)."""
        new = self.M - self._m_seen
        if new:
            added = self.family.m_star(new) - self._mstar
            self._m_seen |= new
            self._mstar |= added
            self._unasked |= added
        return self._mstar

    def classes(self):
        """The class views of the current state, kept up to date.

        The points new to M* refine the partition of the members by their
        images: a class that splits is replaced by new views, every other
        view gains the new entries in place. Raises ImplementationFault if
        two members of one class hold different phi dicts (condition (vi)).
        """
        self._sync_g()
        self._sync_mstar()
        if self._unasked:
            order = sorted(self._unasked)
            self._unasked = set()
            images = [tuple(h.image(m) for m in order) for h in self.family.members]
            views = []
            for old in self._views:
                groups = {}
                for i in old.indices:
                    groups.setdefault(images[i], []).append(i)
                for img, idxs in groups.items():
                    c = old if len(groups) == 1 else ClassView(
                        idxs, dict(old.hmap), dict(old.hinv), dict(old.hg))
                    c.hmap.update(zip(order, img))
                    c.hinv.update(zip(img, order))
                    views.append(c)
            self._views = sorted(views, key=lambda c: c.indices[0])
        held = set()  # ids of the dicts that earlier classes own
        for c in self._views:
            for w, gw in self._g_seen[len(c.hg):]:
                if gw not in c.hmap:  # (ii) fails until M* holds it
                    break
                c.hg[w] = c.hmap[gw]
                c.ran.add(c.hmap[gw])
            ph = self._phi[c.indices[0]]
            if any(self._phi[i] is not ph for i in c.indices[1:]):
                raise ImplementationFault(
                    "members with equal fingerprints hold different phi"
                )
            if id(ph) in held:  # a split: the new class gets its own copy
                ph = dict(ph)
                for i in c.indices:
                    self._phi[i] = ph
            held.add(id(ph))
            c.phi = ph
        return self._views

    # -- detectors --------------------------------------------------------

    def _situations(self, classes):
        """The detectors' candidate pairs: check()'s, held while its
        detectors run, or else every situation of the state (see _pairs)."""
        return _pairs(classes, True) if self._held is None else self._held

    def find_bad(self, classes):
        """Every bad situation among the candidate pairs (see _situations):
        each x of a candidate point with every y; and where a y is new to
        either class, every x, since an earlier x may have opened (x and x'
        phi keys off the ranges of hg) and met no such y yet."""
        out = []
        f, g = self.target, self.g
        for c, c2, new, cands in self._situations(classes):
            phi, phi2 = c.phi, c2.phi
            if any(y in phi and y in phi2 and y not in g for y in new):
                cands = [(x, c2.hmap[c.hinv[x]]) for x in phi if x in c.hinv]
            xs = [(x, xp) for x, xp in dict(cands).items()
                  if x in phi and xp in phi2 and x not in c.ran and xp not in c2.ran]
            ys = [y for y in phi if y in phi2 and y not in g] if xs else ()
            for (x, xp), y in product(xs, ys):
                if adjacent(phi[x], f.image(phi[y])) != adjacent(phi2[xp], f.image(phi2[y])):
                    out.append(BadSituation(c.indices[0], c2.indices[0], x, xp, y))
        return out

    def find_ugly(self, classes):
        """Every ugly situation among the candidate pairs (see _situations)."""
        out = []
        f, g = self.target, self.g
        for c, c2, _, cands in self._situations(classes):
            phi = c.phi
            for x, y in cands:
                if (x in phi and y in phi and y not in c2.phi and y not in g
                        and x not in c.ran and y not in c2.ran
                        and adjacent(phi[x], f.image(phi[y]))):
                    out.append(UglySituation(c.indices[0], c2.indices[0], x, y))
        return out

    # -- the ten-condition checker ----------------------------------------

    def check(self):
        """{"ok": True} or {"ok": False, "condition": name, "witness": data}.

        Each condition is re-tested only where what the last green check did
        not cover can break it (see the module docstring). Every witness is
        plain JSON: a vertex is encoded, a situation is a dict of its encoded
        fields.
        """
        f, M = self.target, self.M

        def fail(cond, witness):
            self._reset_caches()
            return {"ok": False, "condition": cond, "witness": witness}

        self._sync_g()
        n = self._g_ok
        new_g = self._g_seen[n:]
        err = extension_error(self._g_seen[:n], new_g, self._g_inv)
        if err is not None:
            return fail("(i)", repr(err))
        try:
            classes = self.classes()
        except ImplementationFault as e:
            return fail("(vi)", str(e))
        fresh = []  # (view, its new phi pairs, its new pairs of hg)
        for c in classes:
            items = list(c.phi.items())
            if items[:len(c.ok)] != c.ok:  # a covered pair was overwritten or dropped
                self._reset_caches()
                return self.check()
            new = items[len(c.ok):]
            err = extension_error(c.ok, new, c.ok_inv)
            if err is not None:
                return fail("(i)", repr(err))
            fresh.append((c, new, list(c.hg.items())[c.hg_n:]))

        for w, gw in new_g:
            if w not in M or gw not in M:
                return fail("(ii)", "rd(g) escapes M")
        for c, new, new_hg in fresh:
            if any(x not in M for x, _ in new):
                return fail("(ii)", "dom(phi) escapes M")
            missing = {v for pair in new_hg for v in pair}.difference(c.phi)
            if missing:
                return fail("(ii)", encode(min(missing)))

        # (iii) vacuous: no finite-orbit set to respect

        # (ii) has put both ends of every pair of hg in phi, so a covered
        # pair of hg met only covered pairs of phi, which have not changed;
        # f(phi(v)) is read from the target's core, so an image that was
        # never built fails here instead of being built
        core = f._fwd
        for c, _, new_hg in fresh:
            for v, w in new_hg:
                if c.phi[w] != core.get(c.phi[v]):
                    return fail("(iv)", encode(v))

        for c, new, new_hg in fresh:
            for v, w in new_hg:  # hg-chains only join
                if not _join(c.links, v, w):
                    return fail("(vii)", c.indices)
            for x, z in new:
                oid = f._orbit_of.get(z)
                if oid is None:  # a value the target never touched
                    return fail("(v)", encode(x))
                first = c.orb.setdefault(oid, x)
                if first is not x and _root(c.links, first) != _root(c.links, x):
                    return fail("(v)", encode(x))

        self._held = _pairs(classes, not any(c.ok for c in classes))
        try:
            for c, c2, _, cands in self._held:
                for w, w2 in cands:
                    if (w == w2 and w in c.phi and w not in c2.phi
                            and adjacent(f.image(c.phi[w]), c.phi[w])):
                        return fail("(viii)", encode(w))
            ugly = self.find_ugly(classes)
            if ugly:
                return fail("(ix)", ugly[0].to_json())
            bad = self.find_bad(classes)
            if bad:
                return fail("(x)", bad[0].to_json())
        finally:
            self._held = None

        self._g_ok = len(self._g_seen)
        self._g_inv.update((gw, w) for w, gw in new_g)
        for c, new, _ in fresh:
            c.ok += new
            c.ok_inv.update((z, x) for x, z in new)
            c.hmap_n, c.hg_n = len(c.hmap), len(c.hg)
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
        z = f.star_witness(merge_tau(req))  # no edge to f(z), see __init__
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
        vbar = split_far(self.family, self._sync_mstar(), tau)
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
        vbar = split_far(self.family, self._sync_mstar(), tau)
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
        for c in self.classes():
            if any(self.target.orbit_id(pv) == zoid for pv in c.phi.values()):
                continue
            tau = {w: (1 if adjacent(pw, z) else 0) for w, pw in c.phi.items()}
            # M* holds the points earlier classes took, so they stay apart
            v_c = split_far(self.family, self._sync_mstar(), tau)
            c.phi[v_c] = z
            self.target.image(z)  # pin f(z) now, so that check() only reads it
            self.M.add(v_c)
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

        phi entries are matched to classes by fingerprint; a class whose
        fingerprint no entry has raises ValueError.
        """
        t = cls.__new__(cls)
        t.family = family
        t.target = target
        t.g = decode_map(snapshot["g"])
        t.g_inv = {w: u for u, w in t.g.items()}
        t.M = {decode(m) for m in snapshot["M"]}
        entries = [(decode_map(e["fingerprint"]), decode_map(e["map"]))
                   for e in snapshot["phi"]]
        t._phi = [{}] * len(family.members)  # one dict until the classes are known
        t._reset_caches()
        for c in t.classes():
            phi = next((m for key, m in entries if key == c.hmap), None)
            if phi is None:
                raise ValueError("snapshot phi does not cover a family member")
            for i in c.indices:
                t._phi[i] = phi
        return t


def _pairs(classes, full):
    """Each ordered pair (c, c2) of distinct classes that has something new,
    as (c, c2, new, cands): new holds the new phi keys of both, and cands the
    pairs (h_c(u), h_c2(u)) for the points u of M* at which a situation of
    the pair can meet something that the last green check did not cover: u
    pulls back a new key of c (through either class) or of c2 (through c2),
    or u is new to M* for either view. The points pulled back through c come
    first, in the order of c's phi, so a full test walks phi in its order.

    With full, every key is new and cands holds the points pulled back
    through c alone: each situation has its x = h_c(u) in c's phi, so these
    are all the points at which the state can have one."""
    news = []
    for c in classes:
        keys = list(c.phi)[0 if full else len(c.ok):]
        own = [c.hinv[x] for x in keys if x in c.hinv]
        news.append((c, keys, own if full else own + list(c.hmap)[c.hmap_n:]))
    out = []
    for c, keys, own in news:
        for c2, keys2, own2 in news:
            if c2 is not c and (keys or keys2 or own or own2):
                points = own if full else dict.fromkeys(
                    own + [c2.hinv[x] for x in keys if x in c2.hinv] + own2)
                out.append((c, c2, keys + keys2, [(c.hmap[u], c2.hmap[u]) for u in points]))
    return out


def _root(links, v):
    """The root of v's hg-chain in the union-find links (child -> parent).
    A chain has at most one link per pair of hg, so the walk is that short."""
    while v in links:
        v = links[v]
    return v


def _join(links, v, w):
    """Join the hg-chains of v and w = hg(v); False if they are one chain
    already, for then hg closes a cycle (hg is injective)."""
    rv, rw = _root(links, v), _root(links, w)
    if rv == rw:
        return False
    links[rw] = rv
    return True
