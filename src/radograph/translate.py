"""Driving a good triple to a conjugation: scheduled rounds, the C0
back-and-forth conjugator, and factorization certificates.

Odd rounds pull one more target orbit into every phi-range; even rounds
ingest the least natural into both dom(g) and ran(g). Every extension step
is followed by the ten-condition check, on class views that classes() keeps
up to date rather than derives again. The check re-tests only what the step
added: the new pairs of g, of each phi and of each h o g, and the points of
M* that a new phi key pulls back or that are new. It runs in full for the
first check of a triple, and after a failed check or an overwritten or
dropped pair (see the triple module). Every step is logged to a trace so the
schedule promises can be audited afterwards. An entry names the round, its
parity, the operation, its argument as given (a vertex, the add_to_m list
[v, *images], or None for the init entry) and the green check report that
followed it: a failed check raises instead. The trace holds vertices, and
only TranslationResult.to_json() encodes them.
"""

from __future__ import annotations

from .bignat import decode, decode_map, encode, encode_map
from .errors import (
    CertificateError,
    FiniteOrbitsUnsupported,
    ImplementationFault,
    NotC0Built,
)
from .graph import adjacent
from .oracle import CompactFamily, build_c0, identity_oracle
from .partial import PartialAutomorphism
from .triple import GoodTriple


class TranslationResult:
    __slots__ = ("triple", "trace", "steps_run")

    def __init__(self, triple, trace, steps_run):
        self.triple, self.trace, self.steps_run = triple, trace, steps_run

    def checks_passed(self):
        return len(self.trace)  # _record raises on a failed check

    def summary(self):
        """to_json() without the trace."""
        t = self.triple
        return {
            "steps": self.steps_run,
            "g": encode_map(t.g),
            "m_size": len(t.M),
            "classes": len(t.classes()),
            "checks_passed": self.checks_passed(),
        }

    def to_json(self):
        return {**self.summary(),
                "trace": [{**e, "arg": _encode_arg(e["arg"])} for e in self.trace]}


def _encode_arg(arg):
    if isinstance(arg, list):
        return [encode(v) for v in arg]
    return None if arg is None else encode(arg)


def _record(t, trace, round_no, parity, op, arg):
    rep = t.check()
    if not rep["ok"]:
        raise ImplementationFault(f"check failed after {op}: {rep}")
    trace.append({
        "round": round_no,
        "parity": parity,
        "op": op,
        "arg": arg,
        "check": rep,
    })


def _even_round(t, trace, round_no):
    """Ingest the least vertex missing from dom(g) or ran(g), phi first."""
    v = 0
    while v in t.g and v in t.g_inv:
        v += 1
    images = sorted({h.image(v) for h in t.family})
    t.add_to_m({v})
    t.add_to_m(images)
    _record(t, trace, round_no, "even", "add_to_m", [v, *images])
    classes = t.classes()
    for cls in classes:
        if v not in cls.phi:
            t.extend_phi(classes, cls, v)
            _record(t, trace, round_no, "even", "extend_phi", v)
    if v not in t.g:
        t.extend_domain_g(v)
        _record(t, trace, round_no, "even", "extend_domain_g", v)
    classes = t.classes()
    for w in images:
        for cls in classes:
            if w not in cls.phi:
                t.extend_phi(classes, cls, w)
                _record(t, trace, round_no, "even", "extend_phi", w)
    if v not in t.g_inv:
        t.extend_range_g(v)
        _record(t, trace, round_no, "even", "extend_range_g", v)
    return v


def _uncovered(t):
    """The first orbit representative that some class's phi-range misses."""
    f = t.target
    met = [{f.orbit_id(pv) for pv in c.phi.values()} for c in t.classes()]
    return next((r for r in f.orbit_representatives()
                 if any(f.orbit_id(r) not in oids for oids in met)), None)


def _odd_round(t, trace, round_no):
    """Pull the least-index uncovered target orbit into every phi-range."""
    z = _uncovered(t)
    if z is None:  # develop(1) touches a new orbit, which no phi value is in
        t.target.develop(1)
        z = _uncovered(t)
    t.extend_phi_range(z)
    _record(t, trace, round_no, "odd", "extend_phi_range", z)
    return z


def translate(family, target, steps):
    """Run the scheduled construction for the given number of rounds."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, not {steps}")
    t = GoodTriple(family, target)
    trace = []
    _record(t, trace, 0, "init", "init", None)
    for n in range(1, steps + 1):
        if n % 2 == 1:
            _odd_round(t, trace, n)
        else:
            _even_round(t, trace, n)
    return TranslationResult(t, trace, steps)


# -- C0 back-and-forth conjugation ----------------------------------------


def conjugate_c0(f, fp, depth):
    """Finite partial conjugation phi with phi(f(v)) = fp(phi(v)) wherever
    both sides are built, via the orbit-pairing back-and-forth."""
    if depth < 0:
        raise ValueError(f"depth must be non-negative, not {depth}")
    for o in (f, fp):
        if getattr(o, "kind", None) != "c0":
            raise NotC0Built("both oracles must come from build_c0")
    phi = {}
    phi_inv = {}
    paired = {}      # f-orbit-id -> (anchor in f, anchor in fp)
    paired_rev = {}  # fp-orbit-id -> same anchors

    def offset(oracle, anchor, v):
        chain = oracle.orbit_points(oracle.orbit_id(anchor))
        return chain.index(v) - chain.index(anchor)

    def walk(oracle, start, n):
        v = start
        for _ in range(abs(n)):
            v = oracle.image(v) if n > 0 else oracle.preimage(v)
        return v

    def add_pair(a, b):
        phi[a] = b
        phi_inv[b] = a
        foid = f.orbit_id(a)
        poid = fp.orbit_id(b)
        paired.setdefault(foid, (a, b))
        paired_rev.setdefault(poid, paired[foid])

    def fresh_partner(other_oracle, v, fwd_map):
        """Witness in other_oracle matching v's adjacency into dom(fwd_map)."""
        a_set = {fwd_map[w] for w in fwd_map if adjacent(v, w)}
        covered = {other_oracle.orbit_id(x) for x in a_set}
        b_set = set()
        for w, img in fwd_map.items():
            oid = other_oracle.orbit_id(img)
            if oid not in covered:
                covered.add(oid)
                b_set.add(img)
        return other_oracle.c0_witness(a_set, b_set)

    def next_missing(oracle, taken):
        # creation order, not numeric order: a point's edges to everything
        # created before it are either builder-controlled or get matched
        # exactly by the witness below, so pairing in this order keeps the
        # growing map edge-preserving
        while True:
            v = next((u for u in oracle.touched() if u not in taken), None)
            if v is not None:
                return v
            oracle.develop(1)

    for step in range(depth):
        if step % 2 == 0:
            v = next_missing(f, phi)
            foid = f.orbit_id(v)
            if foid in paired:
                a, b = paired[foid]
                add_pair(v, walk(fp, b, offset(f, a, v)))
            else:
                add_pair(v, fresh_partner(fp, v, phi))
        else:
            v = next_missing(fp, phi_inv)
            poid = fp.orbit_id(v)
            if poid in paired_rev:
                a, b = paired_rev[poid]
                add_pair(walk(f, a, offset(fp, b, v)), v)
            else:
                add_pair(fresh_partner(f, v, phi_inv), v)
    return PartialAutomorphism(phi)


# -- Truss factorization ---------------------------------------------------


def truss_factor(h, steps):
    """Translate {id, h} onto the edge-free-orbit target f = build_c0(0);
    the certificates witness, per member h', the pointwise identity
    phi(h'(g(v))) = f(phi(v)), i.e. that g and h o g both act like f up to
    conjugation at every checked point. Each certificate embeds f and h'
    only at the points where verify reads them. A negative step count is
    rejected by translate, before it builds a triple."""
    if h.declared_finite_orbits:
        raise FiniteOrbitsUnsupported("h must not declare finite orbits")
    members = [identity_oracle()]
    if h.identity_key() != members[0].identity_key():
        members.append(h)
    family = CompactFamily(members)
    target = build_c0(seed=0)
    res = translate(family, target, steps)
    t = res.triple
    # every phi value's f-image was built with the value, and classes() asked
    # every member for its image at each point of M, which holds ran(g); so
    # the cores already hold f(phi(v)) and h(g(v)) at every checked point
    return res, [_certificate(target, member, t.g, phi)
                 for member, phi in zip(family, t._phi)]


def conjugation_certificate(f, fp, phi):
    """Certificate for a direct conjugation phi(f(v)) = fp(phi(v))."""
    fwd = dict(phi.pairs())
    for v in fwd:
        if f.image(v) in fwd:
            fp.image(fwd[v])  # pin fp(phi(v)) into the serialized core
    return _certificate(fp, f, None, fwd)


def _certificate(f, h, g, phi):
    """The one certificate shape: g (None for the identity), phi, the points
    that checked_points derives from these maps and h's core, and the core
    records of the target f and of h (h the identity is "id"). Each record
    holds only the pairs that verify reads: f at phi(v), and h at g(v) (at v
    when g is None), for each checked point v; an empty g checks no point."""
    hcore = None if h.kind == "identity" else h._fwd
    points = checked_points(phi, g, hcore)
    return {
        "kind": "conjugation",
        "f_ref": f.core_record(map(phi.get, points)),
        "h_ref": "id" if hcore is None else h.core_record(
            map(g.get, points) if g else points),
        "g": None if g is None else encode_map(g),
        "phi": encode_map(phi),
        "checked_points": [encode(v) for v in points],
    }


def checked_points(phi, g, h):
    """The points a certificate checks, from plain dicts: every v in dom(phi)
    & dom(g) with g(v) in dom(h) and h(g(v)) in dom(phi), ascending, each
    mapped to h(g(v)). A missing (None) g or h is the identity."""
    out = {}
    for v in sorted(phi):
        gv = v if g is None else g.get(v)
        hgv = gv if h is None else h.get(gv)
        if hgv in phi:
            out[v] = hgv
    return out


def verify(cert):
    """Re-check a conjugation certificate from its serialized data alone.

    It reads the cores of f_ref and h_ref (any other field of theirs, such
    as an old certificate's task log, is ignored), g and phi. Each of the
    four maps must be a partial automorphism. checked_points must list
    exactly the points that checked_points() derives from the maps, and
    there must be one. At each of them, the identity phi(h(g(v))) =
    f(phi(v)) is evaluated by pure lookups in the embedded finite maps; a
    missing f(phi(v)) or a mismatch rejects. The builders embed f only at
    phi(v) and h only at g(v) for the checked points v; since every read is
    a lookup, a record with more pairs, such as a whole core, gives the
    same report."""
    try:
        if cert.get("kind") != "conjugation":
            raise CertificateError("not a conjugation certificate")
        fcore = decode_map(cert["f_ref"]["core"])
        href = cert["h_ref"]
        hcore = None if href == "id" else decode_map(href["core"])
        g = None if cert.get("g") is None else decode_map(cert["g"])
        phi = decode_map(cert["phi"])
        points = [decode(p) for p in cert["checked_points"]]
    except CertificateError:
        raise
    except Exception as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc

    for name, m in (("phi", phi), ("g", g or {}), ("f", fcore), ("h", hcore or {})):
        err = PartialAutomorphism(m).check()
        if err is not None:
            return {"ok": False, "reason": f"{name} is not a partial automorphism: {err!r}"}
    derived = checked_points(phi, g, hcore)
    if points != list(derived):
        return {"ok": False, "reason": "checked_points differ from the derived set"}
    if not points:
        return {"ok": False, "reason": "certificate checks no points"}
    for v, hgv in derived.items():
        if phi[hgv] != fcore.get(phi[v]):
            return {"ok": False, "reason": f"identity fails at {v!r}"}
    return {"ok": True, "checked": len(points)}
