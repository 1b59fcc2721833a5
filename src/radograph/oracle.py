"""Lazy total automorphisms of the graph, and finite families of them.

An oracle answers image/preimage queries by extending a finite core map one
step at a time; the extension realizes the adjacency type forced by the core,
so the core stays a partial automorphism forever. Constructed oracles
(build_fp / build_c0) additionally maintain orbit chains with a prescribed
edge pattern along every orbit, persistent non-adjacency prohibitions, and a
round-robin task queue of fresh-orbit witnesses. The pattern alone decides
every edge inside an orbit, so a witness's first f-edge is its bit at
distance 1.
"""

from __future__ import annotations

import itertools

from .bignat import bits_desc, canon, decode, decode_map, encode, encode_map, vmax
from .errors import ImplementationFault, NotConstructed, UntouchedVertex
from .graph import merge_tau, realize
from .partial import PartialAutomorphism


class AutomorphismOracle:
    """One lazy automorphism. Use the module-level constructors."""

    def __init__(self, kind, seed=0, pattern=None):
        self.kind = kind
        self.seed = seed
        self.pattern = tuple(pattern) if pattern is not None else None
        self._fwd = {}
        self._bwd = {}
        self.tasks = []
        self.declared_finite_orbits = frozenset()
        # orbit machinery, present only for constructed oracles
        self._chains = {}        # orbit-id (creation index) -> consecutive points
        self._orbit_of = {}      # vertex -> orbit-id
        self._reps = []          # first point of each orbit, creation order
        self._constraints = {}   # orbit-id -> vertices future points must avoid
        self._witness_counter = 1
        self._touch_cursor = 0
        self._max = 0            # largest vertex stored or touched
        self._held_with = {}     # bit position -> held vertices with that bit

        if kind == "seeded":
            core = PartialAutomorphism(seed or ())
            err = core.check()
            if err is not None:
                raise err
            for u, v in core.pairs():
                self._store(u, v)
            cyc = set()
            for orb in core.orbit_paths():
                if orb["kind"] == "cycle":
                    cyc.update(orb["vertices"])
            self.declared_finite_orbits = frozenset(cyc)
        elif kind in ("fp", "c0"):
            self._touch(canon(seed))
        elif kind != "identity":
            raise ValueError(f"unknown oracle kind {kind!r}")

    # -- identity & bookkeeping ------------------------------------------

    @property
    def constructed(self):
        return self.kind in ("fp", "c0")

    def identity_key(self):
        seed = tuple(self.seed) if isinstance(self.seed, (list, tuple)) else self.seed
        return (self.kind, seed, self.pattern)

    def core(self):
        return PartialAutomorphism(self._fwd)

    def _store(self, u, v):
        if self.kind == "seeded":
            for w in (u, v):
                if w not in self._fwd and w not in self._bwd:
                    self._hold(w)
        self._fwd[u] = v
        self._bwd[v] = u
        self._max = vmax([self._max, u, v])

    # -- queries ----------------------------------------------------------

    def image(self, v):
        if self.kind == "identity":
            return v
        if v in self._fwd:
            return self._fwd[v]
        self.tasks.append(["image", v])
        if self.constructed:
            oid = self._orbit_of.get(v)
            if oid is None:
                oid = self._touch(v)
            while self._fwd.get(v) is None:
                self._extend_forward(oid)
            return self._fwd[v]
        return self._extend_image(v)

    def preimage(self, v):
        if self.kind == "identity":
            return v
        if v in self._bwd:
            return self._bwd[v]
        self.tasks.append(["preimage", v])
        if self.constructed:
            oid = self._orbit_of.get(v)
            if oid is None:
                oid = self._touch(v)
            while self._bwd.get(v) is None:
                self._extend_backward(oid)
            return self._bwd[v]
        return self._extend_preimage(v)

    def _hold(self, v):
        """Enter v, a vertex new to this oracle, in the neighbour index
        ``_held_with``: bit position -> the held vertices with that bit.

        The held vertices are the touched ones of a constructed oracle and
        dom f and ran f of a seeded one. The index's scope is one oracle, it
        needs no invalidation because held vertices only grow, and its
        memory is bounded by the total set bits of those vertices."""
        for p in bits_desc(v):
            self._held_with.setdefault(p, []).append(v)

    def _neighbours(self, v, among):
        """The members of ``among``, a set of held vertices, adjacent to v,
        found with no pairwise scan: the lower neighbours are v's bits in
        ``among``, the upper ones the index entry at v filtered the same
        way."""
        lower = [p for p in bits_desc(v) if p in among]
        return lower + [w for w in self._held_with.get(v, ()) if w in among]

    def _extend_image(self, v):
        # new value w must satisfy w R f(x) <-> v R x for every stored pair;
        # ran f is the default-zero set
        ones = dict.fromkeys((self._fwd[x] for x in self._neighbours(v, self._fwd)), 1)
        w = realize(ones, (), vmax([self._max, v]), self._bwd)
        self._store(v, w)
        return w

    def _extend_preimage(self, v):
        ones = dict.fromkeys((self._bwd[y] for y in self._neighbours(v, self._bwd)), 1)
        u = realize(ones, (), vmax([self._max, v]), self._fwd)
        self._store(u, v)
        return u

    # -- constructed-oracle machinery ------------------------------------

    def _require_constructed(self):
        if not self.constructed:
            raise NotConstructed(f"oracle of kind {self.kind!r} has no orbit registry")

    def _pattern_bit(self, n):
        """Adjacency value required between orbit points at distance n >= 1."""
        if self.kind == "fp" and self.pattern and n <= len(self.pattern):
            return 1 if self.pattern[n - 1] == 0 else 0
        return 0

    def _touch(self, v):
        if v in self._orbit_of:
            return self._orbit_of[v]
        oid = len(self._chains)
        self._chains[oid] = [v]
        self._orbit_of[v] = oid
        self._reps.append(v)
        self._max = vmax([self._max, v])
        self._hold(v)
        return oid

    def _fresh_point(self, pairs):
        """Least vertex above everything stored or touched that meets the
        (w, bit) requirements and has no edge to any other touched vertex.

        The requirements are merged into a sparse type, and the touched
        vertices are passed to realize as its default zeros, not listed."""
        return realize(merge_tau(pairs), (), self._max, self._orbit_of)

    def _with_core(self, required, core, ones):
        """The non-core ``required`` pairs plus a 1 at each of ``ones``.

        The core asks a bit of every vertex in ``core`` (ran f forward,
        dom f backward): 1 exactly at ``ones``, 0 elsewhere, which the
        caller passes as default zeros instead of listing. So each non-core
        requirement at a core vertex is compared with the core's bit here,
        and a mismatch is the clash merge_tau would have named."""
        for w, bit in required:
            if w in core and (w in ones) != bool(bit):
                raise ImplementationFault(f"adjacency requirements clash at {w!r}")
        return required + [(w, 1) for w in ones]

    def _extend_forward(self, oid):
        chain = self._chains[oid]
        last = chain[-1]
        required = []
        for j, u in enumerate(chain):
            required.append((u, self._pattern_bit(len(chain) - j)))
        for x in self._constraints.get(oid, ()):
            required.append((x, 0))
        # new R f(x) <-> last R x for every x in dom f
        ones = dict.fromkeys(self._fwd[x] for x in self._neighbours(last, self._fwd))
        new = self._fresh_point(self._with_core(required, self._bwd, ones))
        chain.append(new)
        self._orbit_of[new] = oid
        self._hold(new)
        self._store(last, new)
        return new

    def _extend_backward(self, oid):
        chain = self._chains[oid]
        first = chain[0]
        required = []
        for j, u in enumerate(chain):
            required.append((u, self._pattern_bit(j + 1)))
        for x in self._constraints.get(oid, ()):
            required.append((x, 0))
        # new R x <-> first R f(x) for every x in dom f
        ones = dict.fromkeys(self._bwd[y] for y in self._neighbours(first, self._bwd))
        new = self._fresh_point(self._with_core(required, self._fwd, ones))
        chain.insert(0, new)
        self._orbit_of[new] = oid
        self._hold(new)
        self._store(new, first)
        return new

    def orbit_id(self, v):
        self._require_constructed()
        if v not in self._orbit_of:
            raise UntouchedVertex(f"{v!r} was never touched by this construction")
        return self._orbit_of[v]

    def orbit_representatives(self):
        self._require_constructed()
        return list(self._reps)

    def orbit_points(self, oid):
        self._require_constructed()
        return list(self._chains[oid])

    def touched(self):
        self._require_constructed()
        return list(self._orbit_of)

    def star_witness(self, tau, *, _log=True):
        """Fresh-orbit vertex realizing tau. Like every orbit point, its
        first f-edge is the orbit edge pattern's bit at distance 1."""
        self._require_constructed()
        req = {w: 1 if b else 0 for w, b in tau.items()}
        v = self._fresh_point(req.items())
        self._touch(v)
        if _log:
            self.tasks.append(["star", req])
        return v

    def c0_witness(self, a_set, b_set, _log=True):
        """Fresh-orbit vertex adjacent to A, never adjacent to the orbits of
        A and B outside A — past points via tau, future points via a
        persistent prohibition honored by all later extensions."""
        self._require_constructed()
        a_set, b_set = set(a_set), set(b_set)
        if a_set & b_set:
            raise ValueError("witness sets must be disjoint")
        oids = set()
        for x in a_set | b_set:
            if x not in self._orbit_of:
                raise UntouchedVertex(f"{x!r} was never touched by this construction")
            oids.add(self._orbit_of[x])
        v = self._fresh_point((a, 1) for a in a_set)
        self._touch(v)
        for oid in oids:
            self._constraints.setdefault(oid, set()).add(v)
        if _log:
            self.tasks.append(["witness2", a_set, b_set])
        return v

    def develop(self, rounds=1):
        """One or more scheduler rounds: touch the least fresh natural, grow
        every orbit one step in each direction, then serve one witness task."""
        self._require_constructed()
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, not {rounds}")
        self.tasks.append(["develop", rounds])
        for _ in range(rounds):
            while self._touch_cursor in self._orbit_of:
                self._touch_cursor += 1
            self._touch(self._touch_cursor)
            for oid in list(self._chains):
                self._extend_forward(oid)
                self._extend_backward(oid)
            self._serve_witness()

    def _serve_witness(self):
        base = list(itertools.islice(self._orbit_of, 9))
        while True:
            code = self._witness_counter
            self._witness_counter += 1
            a_set, b_set = set(), set()
            i = 0
            while code and i < len(base):
                code, digit = divmod(code, 3)
                if digit == 1:
                    a_set.add(base[i])
                elif digit == 2:
                    b_set.add(base[i])
                i += 1
            if not (a_set or b_set):
                continue
            break
        if self.kind == "c0":
            self.c0_witness(a_set, b_set, _log=False)
        else:
            tau = {a: 1 for a in a_set}
            tau.update({b: 0 for b in b_set})
            self.star_witness(tau, _log=False)

    # -- serialization ----------------------------------------------------

    def _record(self, field, value):
        """The header both records share (seed, kind, pattern) and one more
        field, so that no record holds both the core and the task log."""
        seed = encode_map(dict(self.seed or ())) if self.kind == "seeded" else self.seed
        return {
            "seed": seed,
            "kind": self.kind,
            "pattern": list(self.pattern) if self.pattern is not None else None,
            field: value,
        }

    def core_record(self):
        """The oracle as a certificate embeds it: the header and the core
        map, which is all that ``verify`` reads."""
        return self._record("core", encode_map(self._fwd))

    def to_json(self):
        """The replay log: the header and the task log, which is all that
        ``replay`` reads. Snapshots and the CLI build commands write it."""
        return self._record("tasks", [_encode_task(task) for task in self.tasks])


def _encode_task(task):
    """JSON form of one task-log entry; the log holds vertices until here."""
    op = task[0]
    if op in ("image", "preimage"):
        return [op, encode(task[1])]
    if op == "star":
        pairs = sorted(([encode(w), b] for w, b in task[1].items()),
                       key=lambda p: str(p[0]))
        return [op, pairs]
    if op == "witness2":
        return [op, sorted(map(encode, task[1]), key=str),
                sorted(map(encode, task[2]), key=str)]
    return list(task)


def identity_oracle(seed=0):
    return AutomorphismOracle("identity", seed=seed)


def seeded_oracle(pairs):
    pairs = [(canon(u), canon(v)) for u, v in (
        pairs.items() if hasattr(pairs, "items") else pairs
    )]
    return AutomorphismOracle("seeded", seed=pairs)


def build_fp(pattern, seed=0):
    """Oracle whose orbits obey: point adjacent to its n-th successor iff
    pattern[n-1] == 0 (non-edge beyond the pattern's depth)."""
    pattern = tuple(int(b) for b in pattern)
    if any(b not in (0, 1) for b in pattern):
        raise ValueError("pattern must be 0/1-valued")
    return AutomorphismOracle("fp", seed=seed, pattern=pattern)


def build_c0(seed=0):
    """Oracle with infinite chain orbits, no edges within any orbit, default
    non-adjacency across orbits, and persistent witness prohibitions."""
    return AutomorphismOracle("c0", seed=seed, pattern=())


def replay(log):
    """Rebuild an oracle from its construction log by re-running every task."""
    kind = log["kind"]
    if kind == "seeded":
        o = seeded_oracle(decode_map(log["seed"]))
    elif kind == "identity":
        o = identity_oracle(log["seed"])
    elif kind == "fp":
        o = build_fp(log["pattern"], log["seed"])
    elif kind == "c0":
        o = build_c0(log["seed"])
    else:
        raise ValueError(f"unknown oracle kind {kind!r}")
    for task in log["tasks"]:
        op = task[0]
        if op == "image":
            o.image(decode(task[1]))
        elif op == "preimage":
            o.preimage(decode(task[1]))
        elif op == "develop":
            o.develop(task[1])
        elif op == "star":  # an older log's third field, "(*)0", changed nothing
            o.star_witness({decode(w): b for w, b in task[1]})
        elif op == "witness2":
            o.c0_witness([decode(a) for a in task[1]], [decode(b) for b in task[2]])
        else:
            raise ValueError(f"unknown task {op!r}")
    return o


class CompactFamily:
    """Finite stand-in for a compact set of automorphisms."""

    def __init__(self, members):
        members = list(members)
        if not members:
            raise ValueError("a compact family must be nonempty")
        keys = [m.identity_key() for m in members]
        if len(set(keys)) != len(keys):
            raise ValueError("family members must have distinct construction seeds")
        self.members = members

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def family_preimage(self, m_set):
        """Preimages of m_set under every member, asked in sorted order: a
        miss extends a lazily built member, so the order fixes what it builds."""
        order = sorted(m_set)
        return {h.preimage(v) for h in self.members for v in order}

    def m_star(self, m_set):
        return set(m_set) | self.family_preimage(m_set)
