"""Batch command-line front end: graph queries, builders, the translation
driver, and offline certificate verification. JSON on stdout by default;
--pretty renders small human tables instead. Integer vertex arguments are
canonicalized here, where they enter (see ``bignat``)."""

from __future__ import annotations

import argparse
import json
import sys

from .bignat import canon, encode
from .errors import RadographError
from .graph import adjacent, realize, to_dot
from .oracle import CompactFamily, build_c0, build_fp, identity_oracle, replay, seeded_oracle
from .partial import PartialAutomorphism
from .sampler import report, sample
from .splitting import split
from .translate import (
    conjugate_c0,
    conjugation_certificate,
    translate,
    truss_factor,
    verify,
)
from .triple import GoodTriple


def parse_oracle_spec(spec):
    """id | pairs:0-1,1-0 | fp:<pattern> | c0:<seed>"""
    if spec == "id":
        return identity_oracle()
    if spec.startswith("pairs:"):
        pairs = []
        for item in spec[len("pairs:"):].split(","):
            u, v = item.split("-")
            pairs.append((int(u), int(v)))
        return seeded_oracle(pairs)
    if spec.startswith("fp:"):
        return build_fp(spec[len("fp:"):])
    if spec.startswith("c0:"):
        return build_c0(seed=int(spec[len("c0:"):]))
    raise ValueError(f"unknown oracle spec {spec!r}")


def _parse_tau(text):
    tau = {}
    if text:
        for item in text.split(","):
            k, v = item.split(":")
            bit = int(v)
            if bit not in (0, 1):
                raise ValueError(f"tau value at {k} must be 0 or 1, not {v!r}")
            tau[canon(int(k))] = bit
    return tau


def _parse_vertices(text):
    return [canon(int(x)) for x in text.split(",")] if text else []


def _pretty(data, out, indent=""):
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (dict, list)):
                out.write(f"{indent}{k}:\n")
                _pretty(v, out, indent + "  ")
            else:
                out.write(f"{indent}{k}: {v}\n")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                _pretty(v, out, indent + "  ")
            else:
                out.write(f"{indent}- {v}\n")
    else:
        out.write(f"{indent}{data}\n")


def _emit(data, args):
    if getattr(args, "pretty", False):
        _pretty(data, sys.stdout)
    else:
        print(json.dumps(data))


def _translation(args, res):
    """A translation's JSON with its trace counted; the trace is encoded and
    written only to --trace FILE, when that is given."""
    if args.trace:
        data = res.to_json()
        with open(args.trace, "w") as fh:
            json.dump(data["trace"], fh)
    else:
        data = res.summary()
    data["trace"] = f"{len(res.trace)} entries (use --trace FILE)"
    return data


# -- subcommand handlers ---------------------------------------------------


def cmd_adj(args):
    return {"adjacent": adjacent(canon(args.u), canon(args.v))}


def cmd_realize(args):
    v = realize(_parse_tau(args.tau), _parse_vertices(args.forbid), canon(args.bound))
    return {"vertex": encode(v)}


def cmd_split(args):
    fam = CompactFamily([parse_oracle_spec(s) for s in args.family])
    v = split(fam, set(_parse_vertices(args.m)), _parse_tau(args.tau), canon(args.bound))
    return {"vertex": encode(v)}


def _built_summary(o, depth):
    o.develop(depth)
    core = o.core()
    return {
        "kind": o.kind,
        "orbits": len(o.orbit_representatives()),
        "touched": len(o.touched()),
        "core_size": len(core),
        "log": o.to_json(),
    }


def cmd_build_fp(args):
    return _built_summary(build_fp(args.pattern), args.depth)


def cmd_build_c0(args):
    return _built_summary(build_c0(seed=args.seed or 0), args.depth)


def cmd_good_check(args):
    with open(args.snapshot) as fh:
        snap = json.load(fh)
    try:
        fam = CompactFamily([replay(log) for log in snap["family_ref"]])
        target = replay(snap["target_ref"])
        t = GoodTriple.from_snapshot(snap, fam, target)
    except Exception as exc:
        raise ValueError(f"malformed snapshot: {exc}") from exc
    rep = t.check()
    if not rep["ok"]:
        raise CheckFailure(rep)
    return {"ok": True, "classes": len(t.classes()), "m_size": len(t.M)}


class CheckFailure(RadographError):
    def __init__(self, rep):
        self.rep = rep
        super().__init__(f"condition {rep.get('condition')} fails")

    def payload(self):
        return self.rep


def cmd_translate(args):
    fam = CompactFamily([parse_oracle_spec(s) for s in args.family])
    return _translation(args, translate(fam, build_c0(seed=args.seed or 0), args.steps))


def cmd_conjugate_c0(args):
    f, fp = build_c0(seed=args.seed_a), build_c0(seed=args.seed_b)
    phi = conjugate_c0(f, fp, args.depth)
    cert = conjugation_certificate(f, fp, phi)
    return {
        "phi": phi.to_json()["pairs"],
        "certificate": cert,
        "verify": verify(cert),
    }


def cmd_truss(args):
    h = parse_oracle_spec(args.h)
    res, certs = truss_factor(h, args.steps)
    data = _translation(args, res)
    return {
        "g": data["g"],
        "steps": data["steps"],
        "checks_passed": data["checks_passed"],
        "certificates": certs,
        "verify": [verify(c) for c in certs],
    }


def cmd_sample(args):
    o = sample(args.seed or 0, args.depth, args.allow_cycles)
    core = o.core().to_json()["pairs"]  # the witness search below extends o
    rep = report(o, args.trials, seed=args.seed or 0)
    return {"core": core, "report": rep.to_json()}


def cmd_verify(args):
    with open(args.certificate) as fh:
        cert = json.load(fh)
    rep = verify(cert)
    if not rep["ok"]:
        raise CertificateRejected(rep["reason"])
    return rep


class CertificateRejected(RadographError):
    pass


def cmd_export_dot(args):
    return {"dot": to_dot(_parse_vertices(args.m))}


# -- driver ----------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="radograph")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--trace", metavar="FILE", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("adj")
    s.add_argument("u", type=int)
    s.add_argument("v", type=int)
    s.set_defaults(fn=cmd_adj)

    s = sub.add_parser("realize")
    s.add_argument("--tau", default="")
    s.add_argument("--forbid", default="")
    s.add_argument("--bound", type=int, default=0)
    s.set_defaults(fn=cmd_realize)

    s = sub.add_parser("split")
    s.add_argument("--family", action="append", required=True)
    s.add_argument("--m", default="")
    s.add_argument("--tau", default="")
    s.add_argument("--bound", type=int, default=0)
    s.set_defaults(fn=cmd_split)

    s = sub.add_parser("build-fp")
    s.add_argument("--pattern", required=True)
    s.add_argument("--depth", type=int, default=4)
    s.set_defaults(fn=cmd_build_fp)

    s = sub.add_parser("build-c0")
    s.add_argument("--depth", type=int, default=4)
    s.set_defaults(fn=cmd_build_c0)

    s = sub.add_parser("good-check")
    s.add_argument("--snapshot", required=True)
    s.set_defaults(fn=cmd_good_check)

    s = sub.add_parser("translate")
    s.add_argument("--family", action="append", required=True)
    s.add_argument("--steps", type=int, required=True)
    s.set_defaults(fn=cmd_translate)

    s = sub.add_parser("conjugate-c0")
    s.add_argument("--seed-a", type=int, required=True)
    s.add_argument("--seed-b", type=int, required=True)
    s.add_argument("--depth", type=int, default=8)
    s.set_defaults(fn=cmd_conjugate_c0)

    s = sub.add_parser("truss")
    s.add_argument("--h", required=True)
    s.add_argument("--steps", type=int, required=True)
    s.set_defaults(fn=cmd_truss)

    s = sub.add_parser("sample")
    s.add_argument("--depth", type=int, required=True)
    s.add_argument("--allow-cycles", action="store_true")
    s.add_argument("--trials", type=int, default=0)
    s.set_defaults(fn=cmd_sample)

    s = sub.add_parser("verify")
    s.add_argument("--certificate", required=True)
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("export-dot")
    s.add_argument("--m", required=True)
    s.set_defaults(fn=cmd_export_dot)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        data = args.fn(args)
    except (RadographError, ValueError, OSError, KeyError) as exc:
        payload = exc.payload() if isinstance(exc, RadographError) else str(exc)
        _emit({"error": payload}, args)
        return 1
    _emit(data, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
