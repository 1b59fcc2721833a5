"""Outputs must not depend on ``INT_BIT_LIMIT``.

Every natural is a plain ``int`` of at most ``INT_BIT_LIMIT`` bits or a
``Big``, and the two representations run separate code. A fixed job list
runs in fresh processes with the limit at 8, where most vertices are
``Big``, and at 4096, where few are. Each process hashes what the jobs
built in a form that does not depend on the representation: a natural is
the digest of its bit positions' digests, recursively. The certificates
each process writes must verify with the same report at the other limit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

# argv[1] is the limit; stdin holds a JSON list of certificates to verify
# first (possibly empty); stdout is one JSON object
_JOBS = r"""
import hashlib, json, sys
from radograph import bignat
bignat.INT_BIT_LIMIT = int(sys.argv[1])
from radograph.bignat import Big, bits_desc, canon, decode_map
from radograph.graph import edges
from radograph.oracle import CompactFamily, build_c0, build_fp, identity_oracle, seeded_oracle
from radograph.sampler import report, sample
from radograph.translate import translate, truss_factor, verify

verified = [verify(c) for c in json.load(sys.stdin)]
memo = {}
bigs = set()


def nat(v):
    # the digest of v's bit positions' digests: the same for an int and a Big
    if v not in memo:
        if isinstance(v, Big):
            bigs.add(v)
        memo[v] = hashlib.sha256(",".join(map(nat, bits_desc(v))).encode()).hexdigest()[:16]
    return memo[v]


def pairs(m):
    return [[nat(u), nat(w)] for u, w in sorted(m.items())]


out = {}
o = build_fp((0, 1, 0, 1, 1, 0))
o.develop(5)
out["develop_fp"] = pairs(o._fwd)
o = build_c0(0)
o.develop(8)
out["develop_c0"] = pairs(o._fwd)
# the first 300 naturals hold ints with a set bit at every int position and
# cross the limit at 8, so an int mask built with a smaller limit loses edges
vertices = {*o.core().rd(), *map(canon, range(300))}
out["edges"] = sorted([nat(u), nat(w)] for u, w in edges(vertices))
fam = CompactFamily([identity_oracle(), seeded_oracle({2: 3}), seeded_oracle({0: 2})])
res = translate(fam, build_c0(0), 12)
t = res.triple
out["translate"] = [pairs(t.g), pairs(t.target._fwd), res.checks_passed(),
                    *(pairs(c.phi) for c in t.classes())]
_, certs = truss_factor(seeded_oracle({3: 90}), 10)
reports = [verify(c) for c in certs]
out["truss"] = [reports, *([pairs(decode_map(c["f_ref"]["core"])), pairs(decode_map(c["phi"])),
                            pairs(decode_map(c["g"]))] for c in certs)]
out["sample"] = []
for s in range(3):
    o = sample(s, 8)
    rep = report(o, 10, seed=s).to_json()
    out["sample"].append([pairs(o._fwd), rep])
digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
print(json.dumps({"digest": digest, "bigs": len(bigs), "certs": certs,
                  "reports": reports, "verified": verified}))
"""


def _run(limit, certs=()):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", _JOBS, str(limit)], input=json.dumps(certs),
                         env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_outputs_and_certificates_do_not_depend_on_int_bit_limit():
    narrow = _run(8)
    wide = _run(4096, narrow["certs"])
    assert narrow["digest"] == wide["digest"]
    # the Big paths really ran at limit 8
    assert narrow["bigs"] > wide["bigs"]
    assert narrow["certs"] != wide["certs"]
    assert all(rep["ok"] for rep in narrow["reports"])
    assert wide["verified"] == narrow["reports"]
    assert _run(8, wide["certs"])["verified"] == wide["reports"]
