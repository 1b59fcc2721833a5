"""In-memory span recorder for the traced run, installed from outside the library.

The library binds names directly (``from .graph import adjacent, realize``,
``from .bignat import canon, nat_cmp, ...``), so wrapping a function in its
defining module alone would miss most calls. ``install`` therefore replaces
every module attribute of the package that *is* the original function, in
the defining module and in each consumer, and wraps class methods on the
class itself.

A span is opened at each wrapped call: job id, name, start, end and the
span that caused it. Self time is the span's duration minus the time its
child spans cover. A call of a span name directly inside a span of the same
name (nat_cmp and encode recurse through their module globals) joins the
outer span instead of opening a new one, so ``calls`` counts the outermost
calls and the recursion is part of their self time.

Aggregates cover every span since the last ``reset``; the individual span
records (job -1 is the set-up) are kept up to ``SPAN_CAP`` and written out
by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

SPAN_CAP = 20_000

# (module, function, span name): module-level functions, rebound everywhere
FUNCTIONS = [
    ("bignat", "nat_cmp", "bignat.nat_cmp"),
    ("bignat", "vmax", "bignat.vmax"),
    ("bignat", "min_with_bits_geq", "bignat.min_with_bits_geq"),
    ("bignat", "encode", "bignat.encode"),
    ("bignat", "decode", "bignat.decode"),
    ("graph", "realize", "graph.realize"),
    ("graph", "adjacent", "graph.adjacent"),
    ("oracle", "replay", "oracle.replay"),
    ("splitting", "split_far", "splitting.split_far"),
    ("translate", "verify", "translate.verify"),
    ("translate", "translate", "translate.translate"),
    ("translate", "truss_factor", "translate.truss_factor"),
    ("translate", "conjugate_c0", "translate.conjugate_c0"),
    ("sampler", "sample", "sampler.sample"),
    ("sampler", "report", "sampler.report"),
]

# (module, class, method, span name)
METHODS = [
    ("oracle", "AutomorphismOracle", "image", "oracle.query"),
    ("oracle", "AutomorphismOracle", "preimage", "oracle.query"),
    ("oracle", "AutomorphismOracle", "_extend_image", "oracle.extend"),
    ("oracle", "AutomorphismOracle", "_extend_preimage", "oracle.extend"),
    ("oracle", "AutomorphismOracle", "_extend_forward", "oracle.extend"),
    ("oracle", "AutomorphismOracle", "_extend_backward", "oracle.extend"),
    ("oracle", "AutomorphismOracle", "develop", "oracle.develop"),
    ("oracle", "AutomorphismOracle", "star_witness", "oracle.witness"),
    ("oracle", "AutomorphismOracle", "c0_witness", "oracle.witness"),
    ("oracle", "AutomorphismOracle", "to_json", "oracle.to_json"),
    ("partial", "PartialAutomorphism", "check", "partial.check"),
    ("triple", "GoodTriple", "check", "triple.check"),
    ("triple", "GoodTriple", "find_bad", "triple.find_bad"),
    ("triple", "GoodTriple", "find_ugly", "triple.find_ugly"),
    ("triple", "GoodTriple", "classes", "triple.classes"),
    ("triple", "GoodTriple", "extend_phi", "triple.extend"),
    ("triple", "GoodTriple", "extend_phi_all", "triple.extend"),
    ("triple", "GoodTriple", "extend_domain_g", "triple.extend"),
    ("triple", "GoodTriple", "extend_range_g", "triple.extend"),
    ("triple", "GoodTriple", "extend_phi_range", "triple.extend"),
    ("triple", "GoodTriple", "from_snapshot", "triple.from_snapshot"),
]


def _depth(v):
    """Hereditary depth: 0 for a plain int, 1 + depth of the top bit otherwise.
    Depth is monotone in value, so the top (largest) position is the deepest."""
    d = 0
    while not isinstance(v, int):
        v = v.bits[0]
        d += 1
    return d


class Tracer:
    def __init__(self):
        self.stack = []          # open spans: [name, start, child_time, span_id]
        self.active = Counter()  # open span names
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.count = Counter()   # event counts recorded by the hooks
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.job = None
        self.paused = 0
        self.own = 0.0           # time in hooks and span bookkeeping, never reset
        self.missing = []

    def reset(self):
        """Clear the aggregates; the kept span records stay."""
        for counter in (self.calls, self.total, self.self_time, self.count):
            counter.clear()

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None, nested=None):
        """Span-recording wrapper. ``before(args)`` returns a token passed to
        ``after(args, result, token, ok)`` (ok: the call returned), which runs
        with tracing paused; ``nested(args)`` sees each joined call. Time in
        the hooks and in the recording itself goes to ``own``, not to the
        self time of any span."""
        tracer = self
        clock = time.perf_counter
        name = sys.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if tracer.paused or (stack and stack[-1][0] is name):
                if nested is not None and not tracer.paused:
                    hook_start = clock()
                    nested(args)
                    spent = clock() - hook_start
                    stack[-1][2] += spent
                    tracer.own += spent
                return fn(*args, **kwargs)
            entry = clock()
            token = before(args) if before is not None else None
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][3] if stack else -1
            frame = [name, 0.0, 0.0, sid]
            stack.append(frame)
            tracer.active[name] += 1
            frame[1] = start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                tracer.active[name] -= 1
                dur = end - start
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[2]
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, parent, tracer.job, name, start, end))
                else:
                    tracer.dropped += 1
                if after is not None:
                    tracer.paused += 1
                    try:
                        after(args, result if ok else None, token, ok)
                    finally:
                        tracer.paused -= 1
                # the hooks and this bookkeeping count as the parent's child
                # time, so they add to no span's self time
                spent = clock() - entry
                tracer.own += spent - dur
                if stack:
                    stack[-1][2] += spent
            return result

        return wrapper

    # -- hooks -------------------------------------------------------------

    def _encode_nested(self, args):
        if not isinstance(args[0], int):
            self.count["encode.nodes"] += 1

    def _encode_after(self, args, result, token, ok):
        v = args[0]
        if isinstance(v, int):
            return
        self.count["encode.nodes"] += 1
        seen = set()
        todo = [v]
        while todo:
            x = todo.pop()
            if isinstance(x, int) or x in seen:
                continue
            seen.add(x)
            todo.extend(x.bits)
        self.count["encode.distinct"] += len(seen)

    def _realize_after(self, args, result, token, ok):
        self.count["realize.tau"] += len(args[0])
        if self.active["splitting.split_far"]:
            self.count["realize.in_split"] += 1
        if ok:
            self.count["realize.done"] += 1
            if not isinstance(result, int):
                self.count["realize.big"] += 1
            self.count["realize.max_depth"] = max(self.count["realize.max_depth"], _depth(result))

    @staticmethod
    def _tasks_before(args):
        return len(args[0].tasks)

    def _query_after(self, args, result, token, ok):
        if ok and len(args[0].tasks) == token:
            self.count["query.hit"] += 1

    def _to_json_before(self, args):
        self.count["log_entries"] += len(args[0].tasks)

    def _check_after(self, args, result, token, ok):
        if ok and result.get("ok"):
            self.count["check.ok"] += 1

    def _verify_after(self, args, result, token, ok):
        if not (ok and result.get("ok")):
            self.count["verify.reject"] += 1

    def _report_after(self, args, result, token, ok):
        rate = getattr(result, "witness_success_rate", None)
        if isinstance(rate, (int, float)):
            self.count["report.rate_sum"] += rate
            self.count["report.rated"] += 1

    # -- installation ------------------------------------------------------

    def install(self, rg):
        """Wrap the layer functions and methods of the package loaded as ``rg``."""
        hooks = {
            "bignat.encode": {"nested": self._encode_nested, "after": self._encode_after},
            "graph.realize": {"after": self._realize_after},
            "oracle.query": {"before": self._tasks_before, "after": self._query_after},
            "oracle.to_json": {"before": self._to_json_before},
            "triple.check": {"after": self._check_after},
            "translate.verify": {"after": self._verify_after},
            "sampler.report": {"after": self._report_after},
        }
        package = rg.bignat.__name__.rpartition(".")[0]
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))]
        replace = {}
        for mod, attr, name in FUNCTIONS:
            orig = getattr(getattr(rg, mod, None), attr, None)
            if orig is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            replace[id(orig)] = (orig, self.wrap(name, orig, **hooks.get(name, {})))
        nat_cmp = getattr(rg.bignat, "nat_cmp", None)
        nat_key = getattr(rg.bignat, "nat_key", None)
        if nat_cmp is not None and nat_key is not None:
            # nat_key = cmp_to_key(nat_cmp) captured the unwrapped function
            wrapped = replace[id(nat_cmp)][1]
            replace[id(nat_key)] = (nat_key, functools.cmp_to_key(wrapped))
        for m in modules:
            for k, v in list(vars(m).items()):
                hit = replace.get(id(v))
                if hit is not None and hit[0] is v:
                    setattr(m, k, hit[1])
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(getattr(rg, mod, None), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"{mod}.{cls_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, **hooks.get(name, {}))))
            else:
                setattr(cls, attr, self.wrap(name, raw, **hooks.get(name, {})))

    # -- results -----------------------------------------------------------

    def metrics(self):
        c, n, s = self.count, self.calls, self.self_time

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        put("bignat.nat_cmp.calls", n["bignat.nat_cmp"], "count")
        put("bignat.nat_cmp.self_s", s["bignat.nat_cmp"], "s")
        put("bignat.vmax.self_s", s["bignat.vmax"], "s")
        put("bignat.min_with_bits_geq.calls", n["bignat.min_with_bits_geq"], "count")
        put("bignat.min_with_bits_geq.self_s", s["bignat.min_with_bits_geq"], "s")
        put("bignat.encode.calls", n["bignat.encode"], "count")
        put("bignat.encode.self_s", s["bignat.encode"], "s")
        put("bignat.encode.expansion", ratio(c["encode.nodes"], c["encode.distinct"]), "ratio")
        put("bignat.decode.self_s", s["bignat.decode"], "s")
        put("bignat.big_share", ratio(c["realize.big"], c["realize.done"]), "ratio")
        put("bignat.max_depth", c["realize.max_depth"], "levels")
        put("graph.realize.calls", n["graph.realize"], "count")
        put("graph.realize.self_s", s["graph.realize"], "s")
        put("graph.realize.tau_size", ratio(c["realize.tau"], n["graph.realize"]), "count")
        put("graph.adjacent.calls", n["graph.adjacent"], "count")
        put("graph.adjacent.self_s", s["graph.adjacent"], "s")
        put("oracle.query.calls", n["oracle.query"], "count")
        put("oracle.query.self_s", s["oracle.query"], "s")
        put("oracle.query.hit_ratio", ratio(c["query.hit"], n["oracle.query"]), "ratio")
        put("oracle.extend.calls", n["oracle.extend"], "count")
        put("oracle.extend.self_s", s["oracle.extend"], "s")
        put("oracle.develop.self_s", s["oracle.develop"], "s")
        put("oracle.witness.calls", n["oracle.witness"], "count")
        put("oracle.witness.self_s", s["oracle.witness"], "s")
        put("oracle.log_entries", c["log_entries"], "count")
        put("oracle.to_json.self_s", s["oracle.to_json"], "s")
        put("oracle.replay.self_s", s["oracle.replay"], "s")
        put("oracle.replay.total_s", self.total["oracle.replay"], "s")
        put("partial.check.calls", n["partial.check"], "count")
        put("partial.check.self_s", s["partial.check"], "s")
        put("splitting.split_far.calls", n["splitting.split_far"], "count")
        put("splitting.split_far.self_s", s["splitting.split_far"], "s")
        put("splitting.realize_per_split", ratio(c["realize.in_split"], n["splitting.split_far"]), "ratio")
        put("triple.check.calls", n["triple.check"], "count")
        put("triple.check.self_s", s["triple.check"], "s")
        put("triple.check.ok_ratio", ratio(c["check.ok"], n["triple.check"]), "ratio")
        put("triple.find_bad.self_s", s["triple.find_bad"], "s")
        put("triple.find_ugly.self_s", s["triple.find_ugly"], "s")
        put("triple.classes.calls", n["triple.classes"], "count")
        put("triple.classes.self_s", s["triple.classes"], "s")
        put("triple.extend.calls", n["triple.extend"], "count")
        put("triple.extend.self_s", s["triple.extend"], "s")
        put("triple.from_snapshot.self_s", s["triple.from_snapshot"], "s")
        put("translate.verify.calls", n["translate.verify"], "count")
        put("translate.verify.self_s", s["translate.verify"], "s")
        put("translate.verify.reject_ratio", ratio(c["verify.reject"], n["translate.verify"]), "ratio")
        put("translate.translate.self_s", s["translate.translate"], "s")
        put("translate.truss_factor.self_s", s["translate.truss_factor"], "s")
        put("translate.conjugate_c0.self_s", s["translate.conjugate_c0"], "s")
        put("sampler.sample.self_s", s["sampler.sample"], "s")
        put("sampler.report.self_s", s["sampler.report"], "s")
        put("sampler.witness_success_rate", ratio(c["report.rate_sum"], c["report.rated"]), "ratio")
        return out

    def covered_time(self):
        """Summed self time of every span: the job time spent inside the layers."""
        return sum(self.self_time.values())

    def dump(self, path, meta):
        """Write the aggregates and the kept span records as JSON."""
        data = dict(meta)
        data.update({
            "missing": self.missing,
            "dropped_spans": self.dropped,
            "aggregates": {k: {"calls": self.calls[k], "total_s": self.total[k],
                               "self_s": self.self_time[k]} for k in sorted(self.calls)},
            "counts": dict(self.count),
            "span_fields": ["id", "parent", "job", "name", "start_s", "end_s"],
            "spans": self.spans,
        })
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
