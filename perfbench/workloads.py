"""The four benchmark workloads: seeded inputs, one job, and its correctness gate.

Every workload is a closed loop with one client. Its inputs are an endless
stream of *rounds*; a round holds a fixed number of jobs per stratum of the
workload's size range (shuffled), so any prefix of the stream mixes sizes in
fixed proportions and runs with different seeds stay comparable.

A workload reaches the library only through the module namespace ``rg``
(``rg.oracle.build_fp`` and so on), resolved at call time, so the traced run
sees every call after it rebinds the module attributes.

``run`` returns ``(artefact, live)``: the JSON-ready data the job hands back
and the live objects its correctness gate needs. ``check`` returns None when
the job's output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random

# the 64 orbit edge patterns of length 6
PATTERNS = [tuple((i >> (5 - k)) & 1 for k in range(6)) for i in range(64)]


def dumps(obj):
    """The JSON text a job hands back; sorted keys make it a stable digest input."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def _adjacent(rg, u, v):
    """BIT adjacency, bit min(u, v) of max(u, v): an inline test on plain
    ints, the library's graph.adjacent where a vertex is a Big."""
    if isinstance(u, int) and isinstance(v, int):
        return u != v and bool((max(u, v) >> min(u, v)) & 1)
    return rg.graph.adjacent(u, v)


def vertex_digest(v, memo):
    """Hash-seed independent digest of a natural, sharing-aware (DAG walk)."""
    if isinstance(v, int):
        return "i%x" % v
    key = id(v)
    d = memo.get(key)
    if d is None:
        h = hashlib.sha256()
        for p in v.bits:
            h.update(vertex_digest(p, memo).encode())
            h.update(b",")
        d = memo[key] = "b" + h.hexdigest()[:32]
        memo[("keep", key)] = v  # keep v alive so its id is not reused
    return d


class Workload:
    name = ""

    def setup(self, rg, seed):
        """Workload state built before the first timed job."""
        return None

    def rounds(self, rng, state):
        """Endless batches of jobs, one per stratum of the size range."""
        raise NotImplementedError

    def run(self, rg, state, job):
        raise NotImplementedError

    def check(self, rg, state, job, artefact, live):
        raise NotImplementedError

    def fingerprint(self, state, job, live):
        """Extra hash-seed independent data folded into the determinism digest."""
        return None

    def state_fingerprint(self, state):
        return None


def jobs(workload, seed, state):
    """Endless job stream for a seed: seeded rounds, each a shuffled stratum set."""
    rng = random.Random(seed)
    for batch in workload.rounds(rng, state):
        rng.shuffle(batch)
        yield from batch


class Develop(Workload):
    """build_fp / build_c0 followed by develop(d): the write-only construction
    path over deep hereditary vertices."""

    name = "develop"
    DEPTHS = (4, 5, 6)
    FP_PER_C0 = 3
    C0_SEEDS = 8

    def rounds(self, rng, state):
        # patterns are dealt from seeded permutations of all 64, so every run
        # covers the patterns evenly; sizes are stratified by depth
        deck = []
        while True:
            out = []
            for d in self.DEPTHS:
                for _ in range(self.FP_PER_C0):
                    if not deck:
                        deck = rng.sample(PATTERNS, len(PATTERNS))
                    out.append({"kind": "fp", "pattern": list(deck.pop()), "depth": d})
                out.append({"kind": "c0", "seed": rng.randrange(self.C0_SEEDS), "depth": d})
            yield out

    def run(self, rg, state, job):
        if job["kind"] == "fp":
            o = rg.oracle.build_fp(job["pattern"])
        else:
            o = rg.oracle.build_c0(job["seed"])
        o.develop(job["depth"])
        reps = o.orbit_representatives()
        chains = [o.orbit_points(o.orbit_id(r)) for r in reps]
        summary = dict(job)
        summary.update({
            "orbits": len(reps),
            "touched": len(o.touched()),
            "core_size": len(o.core()),
            "orbit_lengths": [len(c) for c in chains],
        })
        return summary, chains

    def check(self, rg, state, job, artefact, chains):
        pattern = job.get("pattern")
        for pts in chains:
            for i, v in enumerate(pts):
                for j in range(i + 1, len(pts)):
                    n = j - i
                    want = pattern is not None and n <= len(pattern) and pattern[n - 1] == 0
                    if _adjacent(rg, v, pts[j]) != want:
                        return f"orbit points {i} and {j} break the {job['kind']} edge rule"
        return None

    def fingerprint(self, state, job, chains):
        memo = {}
        return [[vertex_digest(v, memo) for v in pts] for pts in chains]


class Translate(Workload):
    """translate / truss_factor with certificates checked by verify: the
    ten-condition check, split_far and adjacency on materialised vertices."""

    name = "translate"
    # jobs per round of each kind at each step count; the weights put the
    # median and the 90th percentile inside a size stratum, not between two
    STEPS = {4: 1, 6: 1, 8: 2, 10: 1}

    def rounds(self, rng, state):
        # no traffic data exists, so every target is the CLI default,
        # build_c0(seed=0), which truss_factor also builds for itself
        while True:
            out = []
            for steps, count in self.STEPS.items():
                for _ in range(count):
                    k = rng.randrange(8)
                    out.append({"kind": "translate", "pair": [k, k + rng.randrange(1, 60)],
                                "target": 0, "steps": steps})
                    a = rng.randrange(12)
                    out.append({"kind": "truss", "pair": [a, a + rng.randrange(1, 120)],
                                "target": 0, "steps": steps})
            yield out

    def run(self, rg, state, job):
        u, v = job["pair"]
        h = rg.oracle.seeded_oracle({u: v})
        if job["kind"] == "translate":
            fam = rg.oracle.CompactFamily([rg.oracle.identity_oracle(), h])
            res = rg.translate.translate(fam, rg.oracle.build_c0(job["target"]), job["steps"])
            return res.to_json(), (res, None)
        res, certs = rg.translate.truss_factor(h, job["steps"])
        reports = [rg.translate.verify(c) for c in certs]
        data = res.to_json()
        artefact = {
            "g": data["g"],
            "steps": data["steps"],
            "checks_passed": data["checks_passed"],
            "trace": data["trace"],
            "certificates": certs,
            "verify": reports,
        }
        return artefact, (res, reports)

    def check(self, rg, state, job, artefact, live):
        res, reports = live
        for entry in res.trace:
            if not entry["check"]["ok"]:
                return f"trace entry {entry['op']} in round {entry['round']} is not green"
        t = res.triple
        for c in t.classes():
            for v, vbar in t.g.items():
                if c.phi[c.hmap[vbar]] != t.target.image(c.phi[v]):
                    return "phi(h(g(v))) != f(phi(v))"
        if reports is not None:
            if len(reports) != len(t.family):
                return "one certificate per family member expected"
            for rep in reports:
                if not (rep["ok"] and rep["checked"] >= 1):
                    return f"certificate rejected: {rep}"
        return None


class Verify(Workload):
    """Parse a serialised certificate or triple snapshot and re-check it: the
    read-only path through bignat, graph and partial with no construction."""

    name = "verify"
    # a pool of 20 valid artefacts, each with two mutated copies
    TRUSS = 5           # truss_factor runs, two certificates each
    CONJUGATIONS = 6    # conjugate_c0 certificates
    SNAPSHOTS = 4       # translate snapshots, checked against replayed oracles
    STEPS = 8
    DEPTH = 32

    def setup(self, rg, seed):
        rng = random.Random(seed)
        pool = []

        def add(kind, obj, live=None):
            pool.append({"kind": kind, "text": dumps(obj), "ok": True, "live": live})
            for bad, expect in (_break_injectivity(kind, obj), _break_identity(rg, kind, obj)):
                pool.append({"kind": kind, "text": dumps(bad), "ok": False, "live": live,
                             "expect": expect})

        for _ in range(self.TRUSS):
            a = rng.randrange(12)
            h = rg.oracle.seeded_oracle({a: a + rng.randrange(1, 120)})
            _, certs = rg.translate.truss_factor(h, self.STEPS)
            for cert in certs:
                add("certificate", cert)
        for _ in range(self.CONJUGATIONS):
            sa, sb = rng.sample(range(8), 2)
            f, fp = rg.oracle.build_c0(sa), rg.oracle.build_c0(sb)
            phi = rg.translate.conjugate_c0(f, fp, self.DEPTH)
            add("certificate", rg.translate.conjugation_certificate(f, fp, phi))
        for _ in range(self.SNAPSHOTS):
            k = rng.randrange(8)
            fam = rg.oracle.CompactFamily([
                rg.oracle.identity_oracle(),
                rg.oracle.seeded_oracle({k: k + rng.randrange(1, 60)}),
            ])
            res = rg.translate.translate(fam, rg.oracle.build_c0(0), self.STEPS)
            snap = json.loads(dumps(res.triple.to_snapshot()))
            members = [rg.oracle.replay(log) for log in snap["family_ref"]]
            target = rg.oracle.replay(snap["target_ref"])
            add("snapshot", snap, (members, target))
        # one pass over the pool settles any lazily materialised oracle state;
        # an artefact that makes the library raise fails as a job instead
        for i in range(len(pool)):
            try:
                self.run(rg, pool, {"index": i})
            except Exception:
                pass
        return pool

    def rounds(self, rng, pool):
        while True:
            yield [{"index": i} for i in range(len(pool))]

    def run(self, rg, pool, job):
        entry = pool[job["index"]]
        obj = json.loads(entry["text"])
        if entry["kind"] == "certificate":
            try:
                rep = rg.translate.verify(obj)
            except rg.errors.CertificateError as exc:
                rep = {"ok": False, "reason": f"malformed: {exc}"}
            return rep, rep
        members, target = entry["live"]
        t = rg.triple.GoodTriple.from_snapshot(obj, rg.oracle.CompactFamily(members), target)
        rep = t.check()
        return rep, rep

    def check(self, rg, pool, job, artefact, rep):
        entry = pool[job["index"]]
        if bool(rep["ok"]) != entry["ok"]:
            verdict = "accepted" if rep["ok"] else "rejected"
            state = "valid" if entry["ok"] else "mutated"
            return f"{state} {entry['kind']} #{job['index']} was {verdict}"
        if not entry["ok"] and not _rejection(rep).startswith(entry["expect"]):
            return (f"mutated {entry['kind']} #{job['index']} rejected for "
                    f"{_rejection(rep)!r}, not {entry['expect']!r}")
        return None

    def state_fingerprint(self, pool):
        return [[e["kind"], e["ok"], hashlib.sha256(e["text"].encode()).hexdigest()]
                for e in pool]


def _rejection(rep):
    """verify's reason, or the failed condition of GoodTriple.check."""
    return str(rep.get("reason", rep.get("condition", "")))


def _break_injectivity(kind, obj):
    """A copy whose phi (certificate) or g (snapshot) maps two points to one
    value, so the first partial-automorphism test rejects it."""
    bad = copy.deepcopy(obj)
    if kind == "certificate":
        bad["phi"][1][1] = bad["phi"][0][1]
        return bad, "phi is not a partial automorphism"
    bad["g"][1][1] = bad["g"][0][1]
    return bad, "(i)"


def _break_identity(rg, kind, obj):
    """A copy in which every map is still a partial automorphism but the
    identity phi(h(g(v))) = f(phi(v)) fails, found from the artefact alone.

    One phi value moves to a fresh vertex with the same adjacency to the
    map's other values, so the verifier decodes everything and passes every
    partial-automorphism test before the identity test rejects. Certificates:
    the moved point is h(g(v)) for the first checked point v where that is
    not itself a checked point, so no lookup fails first. Snapshots: the
    moved point is the first point of dom(g), which condition (ii) puts in
    dom(phi), so condition (iv) must fail. The first points are the smallest
    vertices, which keeps the printed reason short."""
    dec = rg.bignat.decode
    bad = copy.deepcopy(obj)
    if kind == "certificate":
        pairs = bad["phi"]
        g = None if bad["g"] is None else {dec(u): dec(w) for u, w in bad["g"]}
        h = None if bad["h_ref"] == "id" else {dec(u): dec(w) for u, w in bad["h_ref"]["core"]}
        points = [dec(p) for p in bad["checked_points"]]
        moved = None
        for v in points:
            gv = v if g is None else g[v]
            hgv = gv if h is None else h[gv]
            if hgv not in points:
                moved = hgv
                break
        expect = "identity fails"
    else:
        pairs = bad["phi"][0]["map"]
        moved = dec(bad["g"][0][0])
        expect = "(iv)"
    keys = [dec(u) for u, _ in pairs]
    if moved not in keys:
        raise RuntimeError(f"no {kind} mutation breaks only the identity")
    i = keys.index(moved)
    values = [dec(w) for _, w in pairs]
    old = values[i]
    tau = {w: rg.graph.adjacent(old, w) for j, w in enumerate(values) if j != i}
    pairs[i][1] = rg.bignat.encode(rg.graph.realize(tau, forbidden=[old]))
    return bad, expect


class Sample(Workload):
    """sample(seed, depth) + report(o, trials): many-bit vertices from plain
    ints, realize with forbidden sets, per-query task logging through encode."""

    name = "sample"
    DEPTHS = (6, 7, 8)
    PER_DEPTH = 2
    TRIALS = 10

    def rounds(self, rng, state):
        while True:
            yield [{"seed": rng.randrange(10 ** 6), "depth": d, "trials": self.TRIALS}
                   for d in self.DEPTHS for _ in range(self.PER_DEPTH)]

    def run(self, rg, state, job):
        o = rg.sampler.sample(job["seed"], job["depth"])
        core = o.core()  # the witness search below extends o
        rep = rg.sampler.report(o, job["trials"], seed=job["seed"])
        return {"core": core.to_json()["pairs"], "report": rep.to_json()}, (core, o)

    def check(self, rg, state, job, artefact, live):
        err = live[0].check()
        if err is not None:
            return f"sampled core is not a partial automorphism: {err!r}"
        return None

    def fingerprint(self, state, job, live):
        # the core as the witness search left it: its extensions follow the
        # iteration order of vertex sets, which the hash seed changes
        memo = {}
        return [[vertex_digest(u, memo), vertex_digest(v, memo)]
                for u, v in live[1].core().pairs()]


WORKLOADS = {w.name: w for w in (Develop(), Translate(), Verify(), Sample())}
