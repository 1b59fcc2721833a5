import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from radograph import adjacent, realize
from radograph.bignat import decode, decode_map, encode, encode_map
from radograph.errors import CertificateError, FiniteOrbitsUnsupported, NotC0Built
from radograph.graph import edges
from radograph.oracle import (
    CompactFamily,
    build_c0,
    build_fp,
    identity_oracle,
    seeded_oracle,
)
from radograph.translate import (
    conjugate_c0,
    conjugation_certificate,
    translate,
    truss_factor,
    verify,
)
from radograph.triple import GoodTriple

SWAP = {0: 1, 1: 0}


def small_family():
    return CompactFamily([identity_oracle(), seeded_oracle({2: 3})])


def test_translate_zero_steps_is_empty():
    res = translate(small_family(), build_c0(seed=0), 0)
    assert res.triple.g == {}
    assert all(not c.phi for c in res.triple.classes())
    assert res.steps_run == 0


def test_translate_checks_every_step():
    res = translate(small_family(), build_c0(seed=0), 6)
    assert len(res.trace) > 6
    assert all(e["check"]["ok"] for e in res.trace)
    assert res.checks_passed() == len(res.trace)


def test_translate_encodes_nothing_until_to_json(monkeypatch):
    # the trace holds vertices; a run that encoded each entry's argument as
    # it went spent most of its time in encode at 20 steps of a 4-member family
    calls = []
    monkeypatch.setattr("radograph.translate.encode", lambda v: calls.append(v) or encode(v))
    fam = CompactFamily([identity_oracle(), seeded_oracle({2: 3}), seeded_oracle({0: 2}),
                         seeded_oracle({5: 40})])
    res = translate(fam, build_c0(seed=0), 20)
    assert calls == []
    assert res.checks_passed() == len(res.trace) > 20
    # truss_factor encodes only its certificates' checked points
    _, certs = truss_factor(seeded_oracle({2: 3}), 12)
    assert len(calls) == sum(len(c["checked_points"]) for c in certs)


def test_translate_even_round_schedule():
    # after round 2k+2 the first k+1 naturals are in ran(g) & dom(g); a run of
    # 2k+2 steps stops right after that round
    for k in range(4):
        t = translate(small_family(), build_c0(seed=0), 2 * k + 2).triple
        for v in range(k + 1):
            assert v in t.g and v in t.g_inv


def test_translate_odd_round_schedule():
    res = translate(small_family(), build_c0(seed=0), 7)
    t = res.triple
    reps = t.target.orbit_representatives()
    covered = 0
    for r in reps:
        zoid = t.target.orbit_id(r)
        if all(any(t.target.orbit_id(pv) == zoid for pv in c.phi.values())
               for c in t.classes()):
            covered += 1
        else:
            break
    # rounds 1,3,5,7 each cover one more least-index representative
    assert covered >= 4


def test_translate_conjugation_identity():
    res = translate(small_family(), build_c0(seed=0), 8)
    t = res.triple
    for c in t.classes():
        for v, vbar in t.g.items():
            hv = c.hmap[vbar]
            if v in c.phi and hv in c.phi:
                assert c.phi[hv] == t.target.image(c.phi[v])


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_translate_artefacts_are_pinned():
    # any drift in what the construction builds, or in the order it builds
    # target points, changes these digests; the snapshot's oracle refs are
    # replay logs and the certificates' are core records, each the earlier
    # combined record with the other field dropped, and a "star" task of a
    # replay log is ["star", pairs], the earlier task with its "(*)0" dropped;
    # a certificate's core record holds only the pairs that verify reads
    res = translate(small_family(), build_c0(seed=0), 6)
    _, certs = truss_factor(seeded_oracle({2: 3}), 6)
    assert _sha256(res.to_json()) == (
        "dd7db5e1202ddf4390edd7e2bf6846bd3f5c51273d9a92b4ba535adce9e0813e")
    assert _sha256(res.triple.to_snapshot()) == (
        "49cbcc08ab54babaca9a74396a89bb4961f87384134a507fad616e2538732a07")
    assert _sha256(certs) == (
        "8034ec23a3cb22c763804bebc32f88d585db12bb0ff706b19ab096c5f3e07f02")


def test_cached_check_agrees_with_full_check(monkeypatch):
    # after every step, the incremental check() must give the same report as
    # a full check of the same state; neither may extend the target, and each
    # restriction class must own its phi dict
    cached_check = GoodTriple.check
    reports = []

    def differential(t):
        target_logged = len(t.target.tasks)
        rep = cached_check(t)
        assert len(t.target.tasks) == target_logged
        assert len({id(c.phi) for c in t.classes()}) == len(t.classes())
        oracles = [t.target, *t.family]
        logged = [len(o.tasks) for o in oracles]
        twin = copy.copy(t)
        twin._phi = list(t._phi)
        twin._reset_caches()
        assert cached_check(twin) == rep
        assert [len(o.tasks) for o in oracles] == logged
        reports.append(rep)
        return rep

    monkeypatch.setattr(GoodTriple, "check", differential)
    translate(small_family(), build_c0(seed=0), 6)
    three = CompactFamily([identity_oracle(), seeded_oracle({2: 3}),
                           seeded_oracle({0: 2})])
    translate(three, build_c0(seed=0), 6)
    _, certs = truss_factor(seeded_oracle({0: 2}), 6)
    assert all(verify(c)["ok"] for c in certs)
    assert len(reports) > 60
    assert all(rep["ok"] for rep in reports)


def _views(t):
    return [(c.indices, c.hmap, c.hinv, c.hg, c.ran, id(c.phi)) for c in t.classes()]


def test_delta_check_agrees_with_full_check_on_the_probe_set(monkeypatch):
    # after every step of the tier-1 translate fixtures and of the translate
    # probe set, the delta check() must give the report, witness included,
    # of a full check of the same state, and the class views that classes()
    # keeps must equal those derived from scratch
    delta_check = GoodTriple.check
    reports = []

    def differential(t):
        rep = delta_check(t)
        twin = copy.copy(t)
        twin._phi = list(t._phi)
        twin._reset_caches()
        assert delta_check(twin) == rep
        assert _views(twin) == _views(t)
        reports.append(rep)
        return rep

    monkeypatch.setattr(GoodTriple, "check", differential)
    translate(small_family(), build_c0(seed=0), 8)
    three = CompactFamily([identity_oracle(), seeded_oracle({2: 3}),
                           seeded_oracle({0: 2})])
    translate(three, build_c0(seed=0), 8)
    for k in range(6):
        translate(CompactFamily([identity_oracle(), seeded_oracle({k: 17 + 8 * k})]),
                  build_c0(seed=0), 10)
        _, certs = truss_factor(seeded_oracle({k: 41 + 10 * k}), 10)
        assert all(verify(c)["ok"] for c in certs)
    assert len(reports) > 500
    assert all(rep["ok"] for rep in reports)


def test_edge_witness_is_the_same_for_delta_full_and_repeated_checks():
    # a pair 1 -> w written into a green g, breaking the edge relation with
    # 0 -> g(0): the delta check trusts 0 -> g(0), and the next check, which
    # starts over after a failure, trusts nothing; both must name (0, 1), as a
    # full check of the same state does
    t = translate(small_family(), build_c0(seed=0), 2).triple
    assert t.check() == {"ok": True}
    assert 0 in t.g and 1 not in t.g
    w = realize({t.g[0]: not adjacent(0, 1)}, forbidden=set(t.g_inv))
    t.g[1] = w
    twin = copy.copy(t)
    twin._phi = list(t._phi)
    twin._reset_caches()
    full = twin.check()
    first = t.check()
    assert first["condition"] == "(i)"
    assert "pair (0, 1)" in first["witness"]
    assert first == t.check() == full


KINDS = ("g pair", "phi value", "phi key", "M point", "own slot")
# the writes of the "phi value" turns, in rotation
PHI_VALUES = ("phi value", "untouched value on h o g", "untouched value off h o g")


def _fresh(vertices):
    return realize({}, lower_bound=max(vertices, default=0))


def _pick(rng, free, taken):
    """Mostly a point of free, sometimes a vertex above all of taken."""
    return rng.choice(free) if free and rng.random() < 0.8 else _fresh(taken)


def _write_out_of_band(t, kind, rng):
    """One write of the given kind to t, made outside the extension
    operations, as a test or a tampered snapshot makes it."""
    classes = t.classes()
    if kind == "g pair":
        v = _pick(rng, [m for m in sorted(t.M) if m not in t.g], t.M)
        ran = set(t.g.values())
        t.g[v] = _pick(rng, [m for m in sorted(t.M) if m not in ran], t.M | {v})
    elif kind == "M point":
        t.M.add(rng.choice([_fresh(t.M), rng.randrange(40)]))
    elif kind == "own slot":
        shared = [c.indices for c in classes if len(c.indices) > 1]
        i = rng.choice(rng.choice(shared) if shared else range(len(t._phi)))
        t._phi[i] = dict(t._phi[i])
    elif kind in PHI_VALUES[1:]:
        # a vertex the target never touched, with phi's adjacency kept, at a
        # key on h o g, which (iv) meets, or off it, which only (v) meets
        c = rng.choice([c for c in classes if c.phi])
        on = [x for x in sorted(c.phi) if x in c.hg or x in c.ran]
        off = [x for x in sorted(c.phi) if x not in on]
        x = rng.choice((on if kind == PHI_VALUES[1] else off) or sorted(c.phi))
        tau = {w: adjacent(c.phi[x], w) for y, w in c.phi.items() if y != x}
        c.phi[x] = realize(tau, lower_bound=max(t.target.touched()))
    else:
        phi = rng.choice([c.phi for c in classes if c.phi])
        x = rng.choice(sorted(phi))
        if kind == "phi key":
            del phi[x]
        else:  # a touched target vertex, as every phi value is
            phi[x] = rng.choice(t.target.touched())


def test_delta_full_and_repeated_checks_agree_after_out_of_band_writes(monkeypatch):
    # seeded mutation differential: after the first check and at random later
    # green checks of 3- and 4-member families, a copy of the triple takes one
    # write outside the extension operations; its delta check, a full check
    # of the same state and a repeated check must give one report, witness
    # included, and none may build anything in the target. A phi value is
    # overwritten with a touched target vertex, or with one the target never
    # touched at a key on or off h o g
    real = GoodTriple.check
    rng = random.Random(15)
    seen = []

    def differential(t):
        rep = real(t)
        if rep["ok"] and (not t.M or rng.random() < 0.08):
            kind = KINDS[len(seen) % len(KINDS)] if t.M else "own slot"
            if kind == "phi value":
                kind = PHI_VALUES[len(seen) // len(KINDS) % len(PHI_VALUES)]
            bad = copy.deepcopy(t)  # the run goes on with t
            _write_out_of_band(bad, kind, rng)
            twin = copy.deepcopy(bad)
            twin._reset_caches()
            core = bad.target.core()
            full = real(twin)
            delta = real(bad)
            assert delta == real(bad) == full, kind  # the repeated check
            assert bad.target.core() == core, kind  # check() built nothing
            seen.append((kind, full.get("condition", "ok")))
        return rep

    monkeypatch.setattr(GoodTriple, "check", differential)
    for members, steps in (
            ([identity_oracle(), seeded_oracle({2: 3}), seeded_oracle({0: 2})], 24),
            ([identity_oracle(), seeded_oracle({1: 9}), seeded_oracle({4: 30})], 20),
            ([identity_oracle(), seeded_oracle({2: 3}), seeded_oracle({0: 2}),
              seeded_oracle({5: 40})], 20)):
        translate(CompactFamily(members), build_c0(seed=0), steps)
    assert {kind for kind, _ in seen} == set(KINDS + PHI_VALUES)
    assert {"ok", "(i)", "(ii)", "(iv)", "(v)", "(vi)"} <= {cond for _, cond in seen}


def test_translate_asks_each_member_only_for_what_is_new():
    # classes() asks each point new to M for its preimages and each point new
    # to M* for its images, once; deriving the views from scratch per state
    # made 10 875 calls on this run, to the same 161 misses
    h = seeded_oracle({3: 90})
    counts = {"calls": 0, "misses": 0}
    for op, store in (("image", h._fwd), ("preimage", h._bwd)):
        def counted(v, ask=getattr(h, op), store=store):
            counts["calls"] += 1
            counts["misses"] += v not in store
            return ask(v)
        setattr(h, op, counted)
    translate(CompactFamily([identity_oracle(), h]), build_c0(seed=0), 32)
    assert counts["calls"] <= 1000
    assert counts["misses"] == 161


def test_negative_step_counts_are_rejected_before_anything_is_built():
    h = seeded_oracle({3: 90})
    with pytest.raises(ValueError, match="non-negative"):
        translate(CompactFamily([identity_oracle(), h]), build_c0(seed=0), -3)
    with pytest.raises(ValueError, match="non-negative"):
        truss_factor(h, -2)
    assert h.tasks == []
    f, fp = build_c0(seed=0), build_c0(seed=1)
    logged = [list(f.tasks), list(fp.tasks)]
    with pytest.raises(ValueError, match="non-negative"):
        conjugate_c0(f, fp, -2)
    assert [f.tasks, fp.tasks] == logged


def test_library_import_leaves_dataclasses_unloaded():
    # a dataclass compiles its generated methods on every fresh import, which
    # every fresh import of the library would pay
    code = ("import sys, radograph.translate, radograph.sampler; "
            "print('dataclasses' in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_translate_to_json_roundtrips_through_plain_data():
    res = translate(small_family(), build_c0(seed=0), 4)
    blob = json.dumps(res.to_json())
    data = json.loads(blob)
    assert data["steps"] == 4
    assert data["checks_passed"] == len(data["trace"])


# -- conjugate_c0 ----------------------------------------------------------


def test_conjugate_requires_c0():
    with pytest.raises(NotC0Built):
        conjugate_c0(build_fp((1, 1)), build_c0(seed=1), 4)


def test_conjugate_depth_zero():
    phi = conjugate_c0(build_c0(seed=0), build_c0(seed=1), 0)
    assert phi.pairs() == []


def test_conjugate_c0_is_partial_isomorphism():
    f, fp = build_c0(seed=0), build_c0(seed=1)
    f.develop(2)
    fp.develop(2)
    phi = conjugate_c0(f, fp, 12)
    assert phi.check() is None
    fwd = dict(phi.pairs())
    assert len(fwd) >= 12
    hits = 0
    for v, w in fwd.items():
        fv = f.image(v)
        if fv in fwd:
            assert fwd[fv] == fp.image(w)
            hits += 1
    assert hits > 0


def test_conjugate_c0_deterministic():
    a = conjugate_c0(build_c0(seed=3), build_c0(seed=4), 10).pairs()
    b = conjugate_c0(build_c0(seed=3), build_c0(seed=4), 10).pairs()
    assert a == b


def test_conjugation_certificate_verifies():
    f, fp = build_c0(seed=0), build_c0(seed=1)
    phi = conjugate_c0(f, fp, 10)
    cert = conjugation_certificate(f, fp, phi)
    rep = verify(cert)
    assert rep["ok"] and rep["checked"] >= 1


# -- truss factorization ---------------------------------------------------


def test_truss_rejects_finite_orbits():
    with pytest.raises(FiniteOrbitsUnsupported):
        truss_factor(seeded_oracle(SWAP), 4)


def test_truss_factor_produces_verified_certificates():
    res, certs = truss_factor(seeded_oracle({0: 2}), 8)
    assert res.triple.check() == {"ok": True}
    assert len(certs) == 2
    for cert in certs:
        rep = verify(cert)
        assert rep["ok"], rep
        assert rep["checked"] >= 1


def test_truss_factor_identity_member_collapses():
    res, certs = truss_factor(identity_oracle(), 4)
    assert len(certs) == 1
    assert certs[0]["h_ref"] == "id"
    assert verify(certs[0])["ok"]


def test_verify_rejects_mutations():
    _, certs = truss_factor(seeded_oracle({0: 2}), 8)
    cert = certs[-1]
    assert verify(cert)["ok"]

    bad = copy.deepcopy(cert)
    u, w = bad["phi"][0]
    bad["phi"][0] = [u, bad["phi"][1][1]]  # duplicate an image: not injective
    assert verify(bad)["ok"] is False

    bad = copy.deepcopy(cert)
    bad["checked_points"] = []
    assert verify(bad)["ok"] is False

    bad = copy.deepcopy(cert)
    bad["g"] = bad["g"][1:]  # drop a lookup the checked points rely on
    assert verify(bad)["ok"] is False


CORE_FIELDS = {"seed", "kind", "pattern", "core"}
CERT_FIELDS = {"kind", "f_ref", "h_ref", "g", "phi", "checked_points"}


def _read_pairs(cert, f, h):
    """The pairs of the live oracles f and h at which verify reads them:
    f at phi(v) and h at g(v) (v when g is None) for each checked point v."""
    phi = decode_map(cert["phi"])
    g = None if cert["g"] is None else decode_map(cert["g"])
    points = [decode(p) for p in cert["checked_points"]]
    gv = points if g is None else [g[v] for v in points]
    return ({phi[v]: f.image(phi[v]) for v in points},
            None if h is None else {w: h.image(w) for w in gv})


def test_certificates_embed_core_records_without_task_logs():
    h = seeded_oracle({3: 90})
    res, certs = truss_factor(h, 10)
    f, fp = build_c0(seed=0), build_c0(seed=1)
    conj = conjugation_certificate(f, fp, conjugate_c0(f, fp, 16))
    assert certs[0]["h_ref"] == "id"
    target = res.triple.target
    for cert, (tf, th) in zip([*certs, conj], [(target, None), (target, h), (fp, f)]):
        assert set(cert) == CERT_FIELDS
        assert set(cert["f_ref"]) == CORE_FIELDS
        assert cert["h_ref"] == "id" or set(cert["h_ref"]) == CORE_FIELDS
        assert verify(cert)["ok"]
        fread, hread = _read_pairs(cert, tf, th)
        # each record's core is exactly the oracle's pairs at the read points
        assert decode_map(cert["f_ref"]["core"]) == fread
        assert hread is None or decode_map(cert["h_ref"]["core"]) == hread
    assert conj["g"] is None


def test_verify_ignores_the_task_log_of_an_old_certificate():
    # certificates once embedded each oracle's task log too; verify never
    # read it, so such a certificate verifies as before
    h = seeded_oracle({0: 2})
    _, certs = truss_factor(h, 8)
    for cert in certs:
        old = copy.deepcopy(cert)
        old["f_ref"]["tasks"] = [["develop", 1]]
        if old["h_ref"] != "id":
            old["h_ref"].update(tasks=h.to_json()["tasks"])
        assert verify(old) == verify(cert)


def _certificates_with_oracles():
    """(certificate, target, member or None for the identity) for truss runs
    over several seeds and step counts, and for conjugate_c0 certificates."""
    for pairs, steps in (({0: 2}, 6), ({3: 90}, 10), ({2: 3}, 13), ({5: 40}, 16)):
        h = seeded_oracle(pairs)
        res, certs = truss_factor(h, steps)
        yield from zip(certs, [res.triple.target] * 2, [None, h])
    for a, b, depth in ((0, 1, 12), (3, 4, 24)):
        f, fp = build_c0(a), build_c0(b)
        yield conjugation_certificate(f, fp, conjugate_c0(f, fp, depth)), fp, f


def test_pruned_certificates_verify_as_full_core_ones_and_need_every_pair():
    for cert, f, h in _certificates_with_oracles():
        rep = verify(cert)
        assert rep["ok"], rep
        # the certificate as it was written before records were pruned:
        # the whole core of each live oracle
        full = dict(cert, f_ref=f.core_record(f._fwd),
                    h_ref="id" if h is None else h.core_record(h._fwd))
        assert len(full["f_ref"]["core"]) > len(cert["f_ref"]["core"])
        assert verify(full) == rep
        # every kept pair is read: dropping any one of them rejects
        for ref in ("f_ref", "h_ref"):
            if cert[ref] == "id":
                continue
            pairs = cert[ref]["core"]
            for i in range(len(pairs)):
                bad = dict(cert, **{ref: dict(cert[ref], core=pairs[:i] + pairs[i + 1:])})
                assert verify(bad)["ok"] is False, (ref, i)


def test_verify_derives_the_checked_set():
    _, certs = truss_factor(seeded_oracle({3: 90}), 10)
    cert = certs[-1]
    listed = cert["checked_points"]
    assert verify(cert) == {"ok": True, "checked": len(listed)}
    assert len(listed) > 2
    for points in (listed[:1], listed[1:], listed[::-1], listed + listed[:1],
                   listed + [987654321]):
        bad = dict(cert, checked_points=points)
        assert verify(bad) == {"ok": False,
                               "reason": "checked_points differ from the derived set"}


# bytes of truss_factor(seeded_oracle({3: 90}), 10)'s certificates and of a
# depth-32 conjugate_c0(build_c0(0), build_c0(1)) certificate as sorted,
# compact JSON, each pinned at the count of the last change that lowered it;
# raising one needs a reason in CHANGES.md
CERT_BYTES = 45_968
C0_CERT_BYTES = 3_468


def _payload(obj):
    return len(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def test_certificate_payload_stays_under_its_pin():
    _, certs = truss_factor(seeded_oracle({3: 90}), 10)
    assert _payload(certs) <= CERT_BYTES
    f, fp = build_c0(0), build_c0(1)
    assert _payload(conjugation_certificate(f, fp, conjugate_c0(f, fp, 32))) <= C0_CERT_BYTES


def test_verify_rejects_phi_sending_a_non_edge_onto_an_edge():
    # phi stays injective and sends every edge of its domain to an edge, so
    # only the edge count of its range shows the one non-edge sent onto an edge
    _, certs = truss_factor(seeded_oracle({0: 2}), 8)
    cert = certs[-1]
    phi = decode_map(cert["phi"])
    x, z = next((x, z) for x in phi for z in phi if x != z and not adjacent(x, z))
    tau = {phi[w]: adjacent(x, w) or w == z for w in phi if w != x}
    bad_phi = {**phi, x: realize(tau, forbidden=set(phi.values()))}
    assert len(set(bad_phi.values())) == len(bad_phi)
    assert all(adjacent(bad_phi[u], bad_phi[w]) for u, w in edges(bad_phi))
    bad = copy.deepcopy(cert)
    bad["phi"] = encode_map(bad_phi)
    rep = verify(bad)
    assert rep["ok"] is False
    assert rep["reason"].startswith("phi is not a partial automorphism: EdgeViolation(")


def test_verify_rejects_malformed():
    with pytest.raises(CertificateError):
        verify({"kind": "nonsense"})
    with pytest.raises(CertificateError):
        verify({"kind": "conjugation", "f_ref": {}, "h_ref": "id",
                "phi": [], "checked_points": []})
    # a vertex mapped twice: a later pair must not silently win
    _, certs = truss_factor(seeded_oracle({0: 2}), 6)
    for pick in (lambda c: c["phi"], lambda c: c["f_ref"]["core"]):
        bad = copy.deepcopy(certs[-1])
        pairs = pick(bad)
        pairs.insert(0, [pairs[0][0], 1000000])
        with pytest.raises(CertificateError, match="duplicate domain vertex"):
            verify(bad)
