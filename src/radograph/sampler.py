"""Seeded random automorphism sampling and bounded-depth statistics.

The sampling rule is deliberately simple and declared in every report: at
each back-and-forth step the forced adjacency type has infinitely many
realizers, and we pick uniformly among the first sixteen. Nothing canonical
is claimed for this choice; reports are labeled exploratory.
"""

from __future__ import annotations

import random

from .graph import adjacent, realize
from .oracle import seeded_oracle
from .partial import PartialAutomorphism

SAMPLING_RULE = "uniform-first-16-realizers"
_CHOICES = 16


def _pick(rng, fwd, anchor, allow_cycles, forward):
    """Partner for anchor: tau forces edge preservation against the whole
    core; candidates are existing qualifying vertices (cycle closers, only
    with allow_cycles) followed by fresh realizers in ascending order, at
    least _CHOICES in all. The index is drawn first, and only the realizers
    up to it are built."""
    if forward:
        tau = {fwd[u]: adjacent(anchor, u) for u in fwd}
        taken = set(fwd.values())
    else:
        tau = {u: adjacent(anchor, fwd[u]) for u in fwd}
        taken = set(fwd)
    rd = set(fwd) | set(fwd.values())
    cands = []
    if allow_cycles:
        for w in sorted(rd - taken):
            if w != anchor and all(adjacent(w, u) == bool(b) for u, b in tau.items()):
                cands.append(w)
    k = rng.randrange(max(len(cands), _CHOICES))
    # realize returns the least realizer above lower_bound, so stepping
    # from the previous candidate lists the realizers in ascending order
    forbidden = rd | {anchor}
    w = 0
    while len(cands) <= k:
        w = realize(tau, forbidden, w)
        cands.append(w)
    return cands[k]


def sample(seed, depth, allow_cycles=False):
    """Random back-and-forth automorphism core of the given depth."""
    if depth < 0:
        raise ValueError(f"depth must be non-negative, not {depth}")
    rng = random.Random(seed)
    fwd = {}
    bwd = {}
    for step in range(depth):
        if step % 2 == 0:
            v = 0
            while v in fwd:
                v += 1
            w = _pick(rng, fwd, v, allow_cycles, forward=True)
        else:
            w = 0
            while w in bwd:
                w += 1
            v = _pick(rng, fwd, w, allow_cycles, forward=False)
        fwd[v] = w
        bwd[w] = v
    o = seeded_oracle(fwd)
    o.sample_seed = seed
    return o


class SampleReport:
    __slots__ = ("seed", "depth", "orbit_chain_count", "closed_cycle_count",
                 "witness_success_rate")

    def __init__(self, seed, depth, orbit_chain_count, closed_cycle_count,
                 witness_success_rate):
        self.seed, self.depth = seed, depth
        self.orbit_chain_count = orbit_chain_count
        self.closed_cycle_count = closed_cycle_count
        self.witness_success_rate = witness_success_rate

    def to_json(self):
        return {
            "seed": self.seed,
            "depth": self.depth,
            "orbit_chain_count": self.orbit_chain_count,
            "closed_cycle_count": self.closed_cycle_count,
            "witness_success_rate": self.witness_success_rate,
            "sampling_rule": SAMPLING_RULE,
            "exploratory": True,
        }


def _orbit_ball(o, starts, cap):
    """Points within cap forward/backward steps of starts under o, walked
    from the starts in sorted order, since each miss extends o."""
    ball = set()
    for s in sorted(starts):
        v = s
        ball.add(v)
        for _ in range(cap):
            v = o.image(v)
            ball.add(v)
        v = s
        for _ in range(cap):
            v = o.preimage(v)
            ball.add(v)
    return ball


def _witness_found(o, a_set, b_set, cap=4):
    """Search for v adjacent to A, non-adjacent to B, outside the cap-step
    orbit ball of A and B. By the extension property such a v always
    exists and ``realize`` never returns a forbidden vertex, so the success
    rate is 1; the ball's queries still extend o."""
    ball = _orbit_ball(o, a_set | b_set, cap)
    tau = {a: 1 for a in a_set}
    tau.update({b: 0 for b in b_set})
    return realize(tau, ball, 0) not in ball


def report(o, trials, seed=0):
    """Exploratory statistics for an oracle's core."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, not {trials}")
    core = o.core()
    paths = core.orbit_paths()
    chains = sum(1 for p in paths if p["kind"] == "path")
    cycles = sum(1 for p in paths if p["kind"] == "cycle")
    if trials == 0:
        rate = "not-applicable"
    else:
        rng = random.Random(seed)
        pool = sorted(core.rd()) or [0, 1]
        hits = 0
        for _ in range(trials):
            k = rng.randrange(1, min(4, len(pool)) + 1)
            picked = rng.sample(pool, min(k + 1, len(pool)))
            a_set, b_set = set(picked[:k]), set(picked[k:])
            if _witness_found(o, a_set, b_set):
                hits += 1
        rate = hits / trials
    return SampleReport(
        seed=getattr(o, "sample_seed", None),
        depth=len(core),
        orbit_chain_count=chains,
        closed_cycle_count=cycles,
        witness_success_rate=rate,
    )
