"""Seeded scenario generator and experiment runner.

The workload is a three-tier service market: 40 agents grouped into pods
(edge, regional, core), each pod capped, the root comfortably above the
pod total. Agents accumulate Poisson task arrivals whose value decays
with service latency and expires past a deadline; the round bid is the
best unexpired value and the round demand is the arrived unit count.

The root never binds, so a round's `LaminarOracle` (pods as groups)
settles in closed form, as `mechanisms.vcg_outcome` would, and the ghost
world as it would on a `SubstituteCloneOracle` over it. One engine,
`LaminarOracle.settle`, prices every pod in an array pass, each row on
its own bids and demands. A round's rows (`RoundProfile.settlement`) are
a row per pod for the honest world, then a row per phantom placement for
the ghost scan, and a round settles in one call with the rounds after it
in its block, up to SETTLE_ROWS rows (`_Chunks`); one array pass lists
the block's placements. The operator's pick is read off its placement
row. exp1 certifies its picks together: each distinct world of
`adversary.ghost_certificates`, the certificate families
`apply_deviation` tries, is a row of one call on its round's demands.
Each agent's draws replay numpy's seeded PCG64 stream (`_stream`). A
runner iterates a seed's rounds (`seed_rounds`): a block of rounds
hashes all of its (round, agent) streams in one pass and draws every
stream's tasks in one lane-parallel array pass, and each round's bids
and demands are a row of the block's arrays.

The r5 grid settles each of a round's worlds once (threshold, first
price, ghost, and per posted level the posted, posted-ghost and inflated
worlds), and a (topology, seed) task returns only those worlds. Its
posted and posted-ghost worlds are the generic posted-price pass,
`mechanisms._posted_pass`, on the round's oracle: the phantom takes its
source's place at or above the price, so that pass lifts the source to
the phantom's level, and does nothing below it. Its 13
conditions are pairs of them: the parent builds each condition's rows,
`conc` inputs and utility samples once, in task, round and condition
order, whatever the number of jobs. Every runner's rows are plain dicts
built by one helper from (revenue, welfare) pairs.
"""

import csv
import hashlib
import io
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import accumulate, chain, product, repeat

import numpy as np

from ._stream import Lanes, entropy_words, seed_states
from .adversary import (
    _world as _world_key, apply_deviation, construct_perturbation, ghost_certificates,
)
from .credibility import make_commitment, verify_transcript
from .errors import ConfigError, CredmarketError, DomainError, NoDeviationError, NoWindowError
from .mechanisms import (
    ClinchTranscript, Mechanism, UniformPrior, _posted_pass, clinching_auction, vcg_outcome,
)
from .metrics import cliffs_delta, conc
from .polymatroid import LaminarOracle, SubstituteCloneOracle, pair_gap

#: base value support for task draws (bounded away from zero: every served
#: task is worth serving)
VALUE_LO, VALUE_HI = 1.0, 11.0

#: per-tier latency jitter upper bound (lower bound 0.5 throughout); the
#: core tier is the far one and the noisy one
TIER_JITTER_HI = (2.0, 2.0, 6.0)

#: posted-price grid for the r5 sweep
POSTED_LEVELS = (2.5, 5.0, 7.5)

#: posted-price receipt markup used by the inflator adversary
INFLATOR_MARKUP = 0.1

#: detection fine as a multiple of the deviation gain (net = -fine * gain)
DETECTION_FINE_MULT = 8.0

#: tier latency profile per topology class: aggregation depth shifts all
#: three tiers together
CLASS_TIER_LATENCIES = {
    "tree": (5.0, 15.0, 50.0),
    "sp": (6.0, 18.0, 55.0),
    "entangled": (4.0, 12.0, 45.0),
}

#: largest accepted mean task arrivals per agent and round: tasks are drawn
#: one at a time, so a round's generation grows linearly with the rate
MAX_ARRIVAL_RATE = 1e3

#: most rounds whose streams one `seed_states` pass hashes and one lane
#: pass draws: a pass holds a few (rounds x agents) uint64 and float
#: arrays, so long runs draw in blocks
HASH_BLOCK_ROUNDS = 128

#: most rows of one `LaminarOracle.settle` call: a round settles with the
#: rounds after it in its block, and exp1 certifies its picks together,
#: up to this many rows (a round or a pick with more takes a call alone)
SETTLE_ROWS = 256

SCENARIO_SCHEMA_VERSION = 1
POS_TOL = 1e-9
ARRIVAL_STREAM_TAG = 777  # rng substream for posted-price arrival order


# --------------------------------------------------------------------------
# Scenario configuration


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_finite(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class Pod:
    tier: int
    capacity: float
    units: tuple  # service units per member task


@dataclass(frozen=True)
class ScenarioConfig:
    n_agents: int = 40
    tier_capacities: tuple = (200.0, 300.0, 500.0)
    tier_latencies_ms: tuple = (5.0, 15.0, 50.0)
    deadlines_ms: tuple = (100.0, 150.0, 200.0)
    value_decay_per_ms: float = 0.005
    rounds: int = 100
    seeds: tuple = (17, 42, 101, 2024, 31337)
    arrival_rate: float = 2.0
    topology_class: str = "tree"

    def __post_init__(self):
        # reject rather than coerce: to_dict() feeds the report digest
        if not all(_is_int(v) for v in (self.n_agents, self.rounds, *self.seeds)):
            raise ConfigError("agent count, rounds, and seeds must be integers")
        reals = (
            *self.tier_capacities, *self.tier_latencies_ms, *self.deadlines_ms,
            self.value_decay_per_ms, self.arrival_rate,
        )
        if not all(_is_finite(v) for v in reals):
            raise ConfigError(
                "capacities, latencies, deadlines, decay, and arrival rate "
                "must be finite numbers"
            )
        if self.n_agents <= 0 or self.rounds <= 0 or self.arrival_rate <= 0:
            raise ConfigError("agent count, rounds, and arrival rate must be positive")
        if self.arrival_rate > MAX_ARRIVAL_RATE:
            raise ConfigError(
                f"arrival rate must be at most {MAX_ARRIVAL_RATE:g}, got {self.arrival_rate:g}"
            )
        if not self.seeds or any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be a non-empty list of nonnegative integers")
        if len(self.tier_capacities) != 3 or len(self.tier_latencies_ms) != 3:
            raise ConfigError("exactly three tiers are modeled")
        if any(c <= 0 for c in self.tier_capacities) or any(
            l <= 0 for l in self.tier_latencies_ms
        ):
            raise ConfigError("capacities and latencies must be positive")
        if not self.deadlines_ms or any(d <= 0 for d in self.deadlines_ms):
            raise ConfigError("deadlines must be non-empty and positive")
        if self.value_decay_per_ms < 0:
            raise ConfigError("value decay must be nonnegative")
        if not isinstance(self.topology_class, str) or (
            self.topology_class not in CLASS_TIER_LATENCIES
        ):
            raise ConfigError(
                f"topology_class must be one of {sorted(CLASS_TIER_LATENCIES)}, "
                f"got {self.topology_class!r}"
            )

    def pods(self):
        """Pod layout: two small edge pods, two regional pods, four core
        pods each holding two whales and five minnows. Pod capacities stay
        inside their tier budget and their total inside the root."""
        layout = [
            Pod(0, 20.0, (8, 8, 8)),
            Pod(0, 20.0, (8, 8, 8)),
            Pod(1, 25.0, (10, 10, 10)),
            Pod(1, 25.0, (10, 10, 10)),
            Pod(2, 100.0, (30, 30, 8, 8, 8, 8, 8)),
            Pod(2, 100.0, (30, 30, 8, 8, 8, 8, 8)),
            Pod(2, 100.0, (30, 30, 8, 8, 8, 8, 8)),
            Pod(2, 100.0, (30, 30, 8, 8, 8, 8, 8)),
        ]
        if sum(len(p.units) for p in layout) != self.n_agents:
            raise ConfigError(
                f"pod layout holds {sum(len(p.units) for p in layout)} members, "
                f"config says {self.n_agents}"
            )
        root = self.tier_capacities[-1]
        if sum(p.capacity for p in layout) > root:
            raise ConfigError("pod capacities exceed the root capacity")
        for t in range(3):
            tier_total = sum(p.capacity for p in layout if p.tier == t)
            if tier_total > self.tier_capacities[t]:
                raise ConfigError(f"tier {t} pods exceed the tier capacity")
        return layout

    def to_dict(self):
        return {
            "version": SCENARIO_SCHEMA_VERSION,
            "n_agents": self.n_agents,
            "tier_capacities": list(self.tier_capacities),
            "tier_latencies_ms": list(self.tier_latencies_ms),
            "deadlines_ms": list(self.deadlines_ms),
            "value_decay_per_ms": self.value_decay_per_ms,
            "rounds": self.rounds,
            "seeds": list(self.seeds),
            "arrival_rate": self.arrival_rate,
            "topology_class": self.topology_class,
        }

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError("a scenario config must be a JSON object")
        obj = dict(obj)
        version = obj.pop("version", SCENARIO_SCHEMA_VERSION)
        if version != SCENARIO_SCHEMA_VERSION:
            raise ConfigError(f"unsupported config version {version}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        for key in ("tier_capacities", "tier_latencies_ms", "deadlines_ms", "seeds"):
            if key in obj:
                if not isinstance(obj[key], (list, tuple)):
                    raise ConfigError(f"{key} must be a list")
                obj[key] = tuple(obj[key])
        return cls(**obj)


@dataclass
class RoundProfile:
    """One round's realized market: bids, unit demands, pod structure.
    Its oracle and its settlement are built once, on first use, so the
    arrays are not to change afterwards. `chunks` holds the bid and demand
    rows of the block `seed_rounds` drew the round with, `index` its row
    there; any other profile, a copy made with `dataclasses.replace`
    included, is a block of one."""

    bids: np.ndarray
    demands: np.ndarray
    pod_of: np.ndarray
    pod_caps: np.ndarray
    root_cap: float
    chunks: "_Chunks" = field(default=None, init=False, repr=False, compare=False)
    index: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def n(self):
        return len(self.bids)

    @cached_property
    def oracle(self):
        """The round's pod laminar, built once per profile."""
        return LaminarOracle(
            self.demands, self.pod_of, self.pod_caps, root_cap=self.root_cap
        )

    @cached_property
    def settlement(self):
        """The round's rows of a `LaminarOracle.settle` call, as (alloc,
        pay, placements): its first rows settle each pod honestly, in pod
        order, and row pods + w the phantom placement w. `placements` is
        the arrays (pod, source, level, covered), an entry per placement.
        Placements are listed before the honest allocation is known;
        `covered` says whether the source's pod opponents' demand covers
        the pod cap, and `ghost_candidates` drops the live winners without
        that cover. The call settles this round and the unsettled rounds
        after it in its block (`_Chunks`)."""
        chunks = self.chunks
        if chunks is None:
            chunks = _Chunks(self.bids[None], self.demands[None])
        return chunks.take(self.index, self.oracle)


def _placements(bids, demands, oracle):
    """Every phantom placement of each round of (rounds, n) bids and
    demands on the pods of `oracle`, as arrays (round, pod, source, level,
    covered) in round, pod, source and window order. A source is a pod
    member with demand. Its windows lie between adjacent pod bids above
    its own, the lowest ending at its bid, and a placement sits 0.9 of the
    way up each window wider than 1e-6, at lo + 0.9 * (hi - lo) as a
    scalar would compute it. `covered` says whether the source's pod
    opponents' demand, the pod total added in member order, covers the
    pod cap."""
    ids = _pod_members(oracle)
    pad = np.zeros((len(bids), 1))
    bid, demand = (np.hstack((x, pad))[:, ids] for x in (bids, demands))
    # (round, pod, slot) arrays: each pod's bids high to low, then 0.0.
    # Window j spans top j + 1 up to top j, and a source's windows are
    # those under the tops above its bid: its own bid is the next top below
    tops = -np.sort(-bid, axis=2)
    after = np.concatenate((tops[..., 1:], np.zeros_like(tops[..., :1])), axis=2)
    above = (tops[:, :, None, :] > bid[..., None]).sum(axis=3)
    # (round, pod, source, window) flags
    placed = (
        (np.arange(ids.shape[1]) < above[..., None])
        & (tops - after > 1e-6)[:, :, None, :]
        & (demand > 0)[..., None]
    )
    r, p, k, j = np.nonzero(placed)
    lo, hi = after[r, p, j], tops[r, p, j]
    total = np.cumsum(demand, axis=2)[..., -1:]
    covered = total - demand >= oracle.group_caps[:, None] - POS_TOL
    return r, p, ids[p, k], lo + 0.9 * (hi - lo), covered[r, p, k]


def _pod_members(oracle):
    """Each pod's member ids in id order, padded with id n to the largest
    pod: the rows `LaminarOracle.settle` lays a pod's members in, bar the
    clone's."""
    return oracle._slots[0][:-1].T


class _Chunks:
    """A block's bid and demand rows, one per round, settled a chunk at a
    time. The first read lists the block's placements in one array pass
    (`_placements`). Reading round i's settlement settles i and the
    unsettled rounds after it, as many as fit in SETTLE_ROWS rows (one
    round at least), in one `settle` call with each row's own demands, on
    any oracle of the block's pod layout. Each round's slice waits here
    until its profile takes it. No profile is held, so a profile is freed
    with its round."""

    def __init__(self, bids, demands):
        self.bids, self.demands = bids, demands
        self.placed = None  # the block's placements, and each round's first
        self.waiting = {}  # round -> its (alloc, pay, placements)
        self.done = set()

    def take(self, index, oracle):
        if index not in self.waiting:
            self._settle(index, oracle)
        return self.waiting.pop(index)

    def _settle(self, start, oracle):
        pods = len(oracle.group_members)
        if self.placed is None:
            placed = _placements(self.bids, self.demands, oracle)
            first = np.searchsorted(placed[0], np.arange(len(self.bids) + 1)).tolist()
            self.placed = placed[1:], first
        placed, first = self.placed
        counts = []  # the chunk's rounds' row counts
        for r in range(start, len(self.bids)):
            count = pods + first[r + 1] - first[r]
            if r in self.done or counts and sum(counts) + count > SETTLE_ROWS:
                break
            counts.append(count)
        rounds = range(start, start + len(counts))
        self.done.update(rounds)
        # (pod, source, level) rows: each round's honest pods with no
        # clone, then its placements
        honest = np.arange(pods), np.full(pods, -1), np.zeros(pods)
        pieces = []
        for r in rounds:
            pieces += [honest, [x[first[r] : first[r + 1]] for x in placed[:3]]]
        groups, sources, levels = (np.concatenate(x) for x in zip(*pieces))
        index = np.repeat(rounds, counts)
        alloc, pay = oracle.settle(
            self.bids[index], groups, sources, levels, self.demands[index]
        )
        for r, count, end in zip(rounds, counts, accumulate(counts)):
            self.waiting[r] = (
                alloc[end - count : end], pay[end - count : end],
                tuple(x[first[r] : first[r + 1]] for x in placed),
            )


def generate_round(config, seed, round_index):
    """Realize one round deterministically from (seed, round, agent).

    Each agent owns an rng substream keyed by the triple, so adding agents
    or reordering conditions never perturbs existing draws. Tasks arrive
    Poisson; each draws a latency (tier base times jitter), a deadline,
    and a base value; it contributes only if it beats its deadline, after
    latency decay. The bid is the best surviving task value.

    The substream is numpy 2.4's PCG64 `Generator` seeded with the triple
    through numpy's seed-sequence hashing, replayed bit for bit by
    `_stream`: the hashing runs over every (round, agent) row of a call
    as uint64 columns, and every row's PCG64 stream steps as one lane of
    uint64 arrays (`_stream.Lanes`), with the task draws made lane-parallel
    by `_draw_tasks`. This is the one-round case of that same pass in
    `seed_rounds`, which the runners iterate to draw a seed's rounds in
    blocks. The digests do not depend on the installed numpy;
    `tests/test_sim.py` compares the streams with numpy's own and flags a
    release whose streams differ.
    """
    return next(_realize(config, seed, round_index, 1))


def seed_rounds(config, seed):
    """Every round of `seed` in round order, each as `generate_round`
    realizes it, with one seed-sequence hash and one lane-parallel draw
    for all of a block's (round, agent) substreams, in blocks of at most
    HASH_BLOCK_ROUNDS rounds."""
    return _realize(config, seed, 0, config.rounds)


def _realize(config, seed, start, count):
    """Profiles of the `count` rounds of `seed` from round `start`, in
    order. A block's [seed words, round words, agent] rows hash in one
    `seed_states` pass, whose rows share a width: a block ends where the
    round index gains an entropy word. Every agent id is below 2**32, one
    entropy word. The block's (round, agent) lanes then draw in one
    `_draw_tasks` pass, and each round's bids and demands are a row of
    the block's arrays; the pod arrays every round shares are read-only."""
    if not (_is_int(seed) and _is_int(start) and 0 <= min(seed, start)):
        raise ConfigError(f"seed and round must be nonnegative integers, got {seed!r}, {start!r}")
    pods = config.pods()
    n = config.n_agents
    tier = np.array([pod.tier for pod in pods for _ in pod.units])
    units = np.array([u for pod in pods for u in pod.units])
    pod_of = np.repeat(np.arange(len(pods)), [len(pod.units) for pod in pods])
    pod_caps = np.array([pod.capacity for pod in pods])
    pod_of.flags.writeable = pod_caps.flags.writeable = False
    head = entropy_words(seed)
    stop = start + count
    while start < stop:
        words = len(entropy_words(start))
        end = min(stop, start + HASH_BLOCK_ROUNDS, 1 << 32 * words)
        rows = np.empty((end - start, n, len(head) + words + 1), dtype=np.uint64)
        rows[..., : len(head)] = head
        rows[..., len(head) : -1] = np.array(
            [entropy_words(r) for r in range(start, end)], dtype=np.uint64
        )[:, None]
        rows[..., -1] = np.arange(n)
        lanes = Lanes(seed_states(rows.reshape(-1, rows.shape[-1])))
        bids, counts = _draw_tasks(config, lanes, np.tile(tier, end - start))
        demands = (counts.reshape(-1, n) * units).astype(float)
        bids = bids.reshape(-1, n)
        chunks = _Chunks(bids, demands)
        for index, (b, d) in enumerate(zip(bids, demands)):
            profile = RoundProfile(
                bids=b, demands=d, pod_of=pod_of, pod_caps=pod_caps,
                root_cap=config.tier_capacities[-1],
            )
            profile.chunks, profile.index = chunks, index
            yield profile
        start = end


def _draw_tasks(config, lanes, tier):
    """(bids, task counts) of every lane, whose agent sits in tier
    `tier[lane]`: a Poisson task count, then per task t, on the lanes with
    more than t tasks, a latency double and a deadline index, and a value
    double on the lanes whose latency meets the deadline. The bid is the
    best decayed value. `math.exp` runs on each value drawn, so the decay
    rounds as in a scalar draw."""
    base_lat = np.array(config.tier_latencies_ms)[tier]
    jit_hi = np.array(TIER_JITTER_HI)[tier]
    counts = lanes.poisson(config.arrival_rate)
    bids = np.zeros(len(counts))
    deadlines = np.array(config.deadlines_ms)
    decay = -config.value_decay_per_ms
    for t in range(counts.max(initial=0)):
        idx = np.flatnonzero(counts > t)
        latency = base_lat[idx] * lanes.uniform(0.5, jit_hi[idx], idx)
        meet = latency <= deadlines[lanes.integers(len(deadlines), idx)]
        idx, latency = idx[meet], latency[meet]
        # a decay too steep for a double overflows to -inf: the value is 0
        with np.errstate(over="ignore"):
            exponents = (decay * latency).tolist()
        value = lanes.uniform(VALUE_LO, VALUE_HI, idx) * np.array(
            [math.exp(x) for x in exponents]
        )
        bids[idx] = np.maximum(bids[idx], value)
    return bids, counts


def arrival_order(config, seed, round_index):
    """Posted-price arrival permutation; a separate substream so posted
    conditions share it regardless of what else a condition draws."""
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, round_index, ARRIVAL_STREAM_TAG])
    )
    return [int(a) for a in rng.permutation(config.n_agents)]


# --------------------------------------------------------------------------
# Settlement


def settle_threshold(profile):
    """Honest greedy + threshold payments on the round's oracle,
    `vcg_outcome(profile.oracle, bids)` bitwise: read off the round's pod
    rows (`RoundProfile.settlement`), or, should the root bind, taken from
    `vcg_outcome` itself."""
    alloc, pay, _ = profile.settlement
    honest = profile.oracle.group_outcome(alloc, pay)
    if honest is None:
        out = vcg_outcome(profile.oracle, profile.bids.tolist())
        honest = out.allocation, out.payments
    return honest


def settle_posted(profile, level, arrival, phantom=None):
    """First-come service at a posted unit price: (alloc, pay, ghost take)
    from one `mechanisms._posted_pass` over the round's oracle.

    `phantom` = (source, level) inserts a substitute clone immediately
    before its source in the arrival order; at or above the price it takes
    its source's place, its purchase is undelivered operator inventory and
    its spend is excluded (self-dealing).
    """
    alloc, take = _posted_pass(profile.oracle, profile.bids.tolist(), level, arrival, phantom)
    pay = {a: level * x for a, x in alloc.items()}
    return alloc, pay, take


def _world(profile, alloc, pay, detected=False):
    """A settled world as the report reads it: ((revenue, welfare),
    per-agent utilities, whether an agent can detect the deviation)."""
    bids = profile.bids.tolist()
    welfare = sum(bids[a] * x for a, x in alloc.items())
    utilities = [bids[a] * alloc[a] - pay[a] for a in range(len(bids))]
    return (sum(pay.values()), welfare), utilities, detected


# --------------------------------------------------------------------------
# Operator ghost scan


@dataclass
class GhostCandidate:
    surplus: float
    damage: float  # welfare destroyed (undelivered displaced value)
    source: int
    level: float
    pod: int
    #: the placement's row in its round's settle call (`RoundProfile.settlement`)
    row: int = field(default=None, repr=False, compare=False)


def ghost_candidates(profile, alloc=None, pay=None):
    """Every rationalizable phantom placement with its exact surplus.

    Sources are pod members with arrived demand, bidding or not. A live
    source that currently wins is only usable when its opponents' demand
    covers the pod (its zero outcome must be producible by some honest
    field); sleepers and already-displaced members carry no such burden.
    Candidate levels sit inside each bid window above the source.

    Every placement is a row of the round's `LaminarOracle.settle` call
    (`RoundProfile.settlement`), after the pods' honest rows; the cover
    test against `alloc` drops rows here. Surplus and damage then add up
    over each pod's members in id order, from 0.0, as a running sum
    would.
    """
    if alloc is None or pay is None:
        alloc, pay = settle_threshold(profile)
    rows_alloc, rows_pay, (pods, sources, levels, covered) = profile.settlement
    n = profile.n
    # the honest allocation, payment and bid by id, and 0.0 at id n, which
    # pads each pod's members as the settlement pads its rows
    honest = np.array([
        [*map(alloc.get, range(n), repeat(0.0)), 0.0],
        [*map(pay.get, range(n), repeat(0.0)), 0.0],
        [*profile.bids.tolist(), 0.0],
    ])
    live = (honest[2, sources] > 0) & (honest[0, sources] > POS_TOL)
    kept = np.flatnonzero(covered | ~live)
    if not kept.size:
        return []
    pods, sources, levels = pods[kept], sources[kept], levels[kept]
    rows = len(profile.pod_caps) + kept
    # the members' columns: the phantom's payment is no one's surplus
    dev_alloc, dev_pay = rows_alloc[rows, :-1], rows_pay[rows, :-1]
    alloc_h, pay_h, bid = honest[:, _pod_members(profile.oracle)[pods]]
    # running sums from 0.0 in member order: a leading zero, then cumsum
    zero = np.zeros((len(kept), 1))
    surplus = np.cumsum(np.hstack((zero, dev_pay - pay_h)), axis=1)[:, -1]
    damage = np.cumsum(np.hstack((zero, (alloc_h - dev_alloc) * bid)), axis=1)[:, -1]
    return [
        GhostCandidate(s, d, source, level, p, row)
        for s, d, row, p, source, level in zip(
            surplus.tolist(), damage.tolist(), rows.tolist(), pods.tolist(),
            sources.tolist(), levels.tolist(),
        )
        if s > POS_TOL
    ]


def best_ghost(profile, alloc=None, pay=None):
    """The candidate that destroys the most welfare, or None."""
    cands = ghost_candidates(profile, alloc, pay)
    return max(cands, key=lambda c: c.damage, default=None)


def _ghost_world(profile, pick, honest):
    """The pick's deviated world, (allocation, payments), without a settle
    call: the pick's pod members from its scan row, every other agent from
    the honest world. It equals the generic clone route, `vcg_outcome` on
    a `SubstituteCloneOracle` with the phantom bidding `pick.level`."""
    alloc_rows, pay_rows, _ = profile.settlement
    members = profile.oracle.group_members[pick.pod]
    alloc, pay = (dict(x) for x in honest)
    alloc.update(zip(members, alloc_rows[pick.row, : len(members)].tolist()))
    pay.update(zip(members, pay_rows[pick.row, : len(members)].tolist()))
    return alloc, pay


@dataclass
class _Claim:
    """A pick's certificate worlds as settle rows, (profile, pod, entrant
    source or -1, entrant level), with its round's demands, and the trials
    of its moved agents in order: (agent, certificate, world, slot, seen
    allocation, seen payment)."""

    demands: np.ndarray
    worlds: list
    trials: list


def _claim(profile, pick, honest, deviated):
    """The certificates to replay for the pick's deviated world: the
    worlds of `adversary.ghost_certificates` proposed to a moved agent, or
    to the source whether it moved or not, each distinct world once. An
    agent whose view did not move holds the honest profile.

    Only the pick's pod members move, and the root is slack, so a
    certificate world settles on that pod alone, its entrant the row's
    clone."""
    (alloc_h, pay_h), (alloc_d, pay_d) = honest, deviated
    bids = profile.bids.tolist()
    members = profile.oracle.group_members[pick.pod]
    moved = [
        a for a in members
        if abs(alloc_d[a] - alloc_h[a]) > POS_TOL or abs(pay_d[a] - pay_h[a]) > POS_TOL
    ]
    tried = [
        (a, cert, _world_key(cert.profile, cert.entrant))
        for a in dict.fromkeys([pick.source, *moved])
        for cert in ghost_certificates(bids, pick.source, pick.level, a)
    ]
    worlds = {}
    for _, cert, key in tried:
        worlds.setdefault(key, cert)
    row = {key: w for w, key in enumerate(worlds)}
    return _Claim(
        profile.demands,
        [
            (c.profile, pick.pod, *(
                (c.entrant["source"], c.entrant["level"]) if c.entrant else (-1, 0.0)
            ))
            for c in worlds.values()
        ],
        [
            (a, cert, row[key], members.index(a), alloc_d[a], pay_d[a])
            for a, cert, key in tried if a in moved
        ],
    )


def _certify(oracle, claims):
    """Each claim's kept certificates, {moved agent: the first certificate
    whose honest run reproduces its allocation and payment within 1e-7, as
    `Certificate.matches` would, or None}. Every claim's worlds are rows of
    one `settle` call on `oracle`, any oracle of the rounds' pod layout,
    each row on its own round's demands."""
    profiles, pods, sources, levels = zip(*(w for c in claims for w in c.worlds))
    demands = np.repeat([c.demands for c in claims], [len(c.worlds) for c in claims], axis=0)
    alloc, pay = oracle.settle(profiles, pods, sources, levels, demands)
    verdicts, first = [], 0
    for claim in claims:
        kept = {}
        for a, cert, w, slot, x_d, p_d in claim.trials:
            if kept.get(a) is None:
                x, p = alloc[first + w, slot], pay[first + w, slot]
                kept[a] = cert if abs(x - x_d) <= 1e-7 and abs(p - p_d) <= 1e-7 else None
        verdicts.append(kept)
        first += len(claim.worlds)
    return verdicts


def _certify_pick(profile, pick, honest, deviated):
    """The pick's kept certificates (`_certify`), a batch of one."""
    return _certify(profile.oracle, [_claim(profile, pick, honest, deviated)])[0]


# --------------------------------------------------------------------------
# Report rows


def _row(round_index, seed, condition, honest, deviated, detected=False):
    """A report row from the (revenue, welfare) pairs of a round's honest
    and deviated worlds."""
    return {
        "round": round_index,
        "seed": seed,
        "condition": condition,
        "rev_honest": honest[0],
        "rev_dev": deviated[0],
        "welfare_honest": honest[1],
        "welfare_dev": deviated[1],
        "detected": int(detected),
    }


def _require_welfare(welfares):
    # a run with no round of positive honest welfare has no market to
    # deviate from, and nothing to compare
    if not any(w > 0 for w in welfares):
        raise DomainError(
            "no round has positive welfare: every bid decayed to 0 or no task "
            "arrived, so there is no market to deviate from"
        )


def _conc(rows):
    """`conc` over report rows. Every runner charges agents directly, with
    no deposit or fee in between, so a world's agent payments total its
    revenue: the payment baseline is the revenue."""
    return conc(
        [(r["rev_honest"], r["welfare_honest"], r["rev_honest"]) for r in rows],
        [(r["rev_dev"], r["welfare_dev"], r["rev_dev"]) for r in rows],
    )


# --------------------------------------------------------------------------
# Experiment 1: sealed-bid ghost, no device


def _exp1_seed(config, seed):
    rows, surplus_series, certified, picks = [], [], [], []
    # picks awaiting certification, certified together in at most
    # SETTLE_ROWS rows
    claims, waiting = [], 0
    for r, profile in enumerate(seed_rounds(config, seed)):
        alloc_h, pay_h = settle_threshold(profile)
        honest, _, _ = _world(profile, alloc_h, pay_h)
        if honest[1] <= 0:
            continue
        pick = best_ghost(profile, alloc_h, pay_h)
        if pick is None:
            rows.append(_row(r, seed, "vcg-ghost", honest, honest))
            surplus_series.append(0.0)
            continue
        alloc_d, pay_d = _ghost_world(profile, pick, (alloc_h, pay_h))
        deviated, _, _ = _world(profile, alloc_d, pay_d)
        claim = _claim(profile, pick, (alloc_h, pay_h), (alloc_d, pay_d))
        if claims and waiting + len(claim.worlds) > SETTLE_ROWS:
            certified += [None not in kept.values() for kept in _certify(profile.oracle, claims)]
            claims, waiting = [], 0
        claims.append(claim)
        waiting += len(claim.worlds)
        surplus_series.append(deviated[0] - honest[0])
        picks.append(
            {"seed": seed, "round": r, "source": pick.source, "level": pick.level}
        )
        rows.append(_row(r, seed, "vcg-ghost", honest, deviated))
    if claims:
        certified += [None not in kept.values() for kept in _certify(profile.oracle, claims)]
    return rows, surplus_series, certified, picks


def run_exp1(config, jobs=1):
    rows, surplus, certified, picks = _gather(_exp1_seed, config, jobs)
    _require_welfare(r["welfare_honest"] for r in rows)
    report = _conc(rows)
    positive = [s > POS_TOL for s in surplus]
    return {
        "experiment": "exp1",
        "rows": rows,
        "summary": {
            "rounds": len(rows),
            "positive_rate": float(np.mean(positive)),
            "all_certified": bool(certified and all(certified)),
            "certified_rate": float(np.mean(certified)) if certified else 0.0,
            "mean_surplus": float(np.mean(surplus)),
            "min_surplus": float(np.min(surplus)),
            "conc": report.to_json(),
            "surplus_series": surplus,
        },
        "picks": picks,
    }


# --------------------------------------------------------------------------
# Experiment 2: clinching with broadcast


class _SybilTranscript(ClinchTranscript):
    """Transcript as the deviating operator broadcasts it: the phantom's
    demand lines are withheld and each round is relabeled to the committed
    ground set. The phantom leaves `active`, `drops` and `clinches`, and
    its own drop, the executed rank of the real members listed, stands as
    f(D); the other values stay as executed."""

    def __init__(self, commitment_root, ghost_id):
        super().__init__(commitment_root)
        self.ghost_id = ghost_id

    def demand(self, agent, d):
        if agent != self.ghost_id:
            super().demand(agent, d)

    def round(self, price, active, rank, drops, clinches):
        if self.ghost_id in active:
            g = active.index(self.ghost_id)
            active = active[:g] + active[g + 1 :]
            rank = drops[g]
            drops = drops[:g] + drops[g + 1 :]
        clinches = [c for c in clinches if c[0] != self.ghost_id]
        super().round(price, active, rank, drops, clinches)


def _exp2_seed(config, seed):
    rows, detections, nets = [], [], []
    for r, profile in enumerate(seed_rounds(config, seed)):
        oracle = profile.oracle
        root = make_commitment(oracle, "clinching", "clinch_pay")
        honest_out = clinching_auction(oracle, list(profile.bids))
        w_h = honest_out.welfare(list(profile.bids))
        rev_h = honest_out.revenue

        pick = best_ghost(profile)
        deviated = False
        detected = False
        rev_d, w_d = rev_h, w_h
        if pick is not None:
            plus = SubstituteCloneOracle(oracle, pick.source)
            dev_t = _SybilTranscript(root, plus.clone_id)
            dev_out = clinching_auction(
                plus, list(profile.bids) + [pick.level], transcript=dev_t
            )
            gain = (
                sum(dev_out.payments[i] for i in range(profile.n)) - rev_h
            )
            if gain > POS_TOL:
                deviated = True
                rev_d = rev_h + gain
                w_d = sum(
                    profile.bids[i] * dev_out.allocation[i] for i in range(profile.n)
                )
                verdict = verify_transcript(dev_t, root, oracle=oracle)
                detected = not verdict.consistent
                penalty = gain + DETECTION_FINE_MULT * gain if detected else 0.0
                nets.append(gain - penalty)
                detections.append(detected)
        rows.append(
            _row(
                r, seed, "clinch-ghost" if deviated else "clinch-honest",
                (rev_h, w_h), (rev_d, w_d), detected,
            )
        )
        if not deviated:
            # soundness: the honest transcript must replay clean. Only a
            # round that does not deviate audits it, so only such a round
            # logs it, in a rerun: a run returns the same outcome with or
            # without a log
            honest_t = ClinchTranscript(commitment_root=root)
            clinching_auction(oracle, list(profile.bids), transcript=honest_t)
            verdict = verify_transcript(honest_t, root, oracle=oracle)
            if not verdict.consistent:
                raise DomainError(
                    f"honest transcript flagged at seed {seed} round {r}: "
                    f"{verdict.violations[:2]}"
                )
    return rows, detections, nets


def run_exp2(config, jobs=1):
    rows, detections, nets = _gather(_exp2_seed, config, jobs)
    _require_welfare(r["welfare_honest"] for r in rows)
    if not detections:
        raise DomainError("no deviated rounds; the scenario never tempted the operator")
    return {
        "experiment": "exp2",
        "rows": rows,
        "summary": {
            "rounds": len(rows),
            "deviated_rounds": len(detections),
            "detection_rate": float(np.mean(detections)),
            "mean_net_surplus": float(np.mean(nets)),
            "max_net_surplus": float(np.max(nets)),
        },
    }


# --------------------------------------------------------------------------
# Experiment 3: the perturbation under the optimal auction


def _exp3_seed(config, seed):
    prior = UniformPrior(VALUE_LO, VALUE_HI)
    reserve = prior.reserve()
    mech = Mechanism(payment_rule="myerson", prior=prior)
    rows, exact, surpluses, live = [], [], [], []
    for r, profile in enumerate(seed_rounds(config, seed)):
        # every pod cap is positive, so the greedy serves some agent, and
        # the round has positive welfare, once one bids with demand
        live.append(bool((profile.bids * profile.demands).any()))
        # the first pod whose top pair shares capacity inside an open
        # window, with the nudged runner-up clearing the reserve
        for p, members in enumerate(profile.oracle.group_members):
            sub_bids = [profile.bids[a] for a in members]
            sub_demands = [profile.demands[a] for a in members]
            oracle = LaminarOracle(sub_demands, [0] * len(members), [profile.pod_caps[p]])
            try:
                strategy = construct_perturbation(sub_bids, oracle)
            except (NoWindowError, NoDeviationError):
                continue
            if 2 * strategy.delta > 1e-6 and sub_bids[strategy.pair[1]] > reserve + 1e-6:
                break
        else:
            continue
        gamma = pair_gap(oracle, *strategy.pair)
        result = apply_deviation(strategy, sub_bids, mech, oracle)
        surplus = result.operator_surplus
        surpluses.append(surplus)
        exact.append(abs(surplus - strategy.delta * gamma) <= 1e-9)
        rev_h = result.honest.revenue
        w_h = result.honest.welfare(sub_bids)
        rows.append(_row(r, seed, "myerson-perturb", (rev_h, w_h), (rev_h + surplus, w_h)))
    return rows, exact, surpluses, live


def run_exp3(config, jobs=1):
    rows, exact, surpluses, live = _gather(_exp3_seed, config, jobs)
    _require_welfare(live)
    if not surpluses:
        raise DomainError("no round offered a reserve-clearing contested pair")
    return {
        "experiment": "exp3",
        "rows": rows,
        "summary": {
            "applied_rounds": len(surpluses),
            "all_exact": bool(all(exact)),
            "all_positive": bool(all(s > POS_TOL for s in surpluses)),
            "mean_surplus": float(np.mean(surpluses)),
            "min_surplus": float(np.min(surpluses)),
        },
    }


# --------------------------------------------------------------------------
# The R-5 grid: 3 topologies x 13 conditions


def _r5_conditions(topo):
    """(condition name, honest world, deviated world) for the 13 conditions.

    Both ghost arms are measured against the shared allocator's threshold
    baseline, and the phantom extracts the same threshold increment in
    each: the increment is a property of the allocation order, not of the
    payment label."""
    conds = [
        (f"{topo}:vcg-truthful", "vcg", "vcg"),
        (f"{topo}:vcg-ghost", "vcg", "ghost"),
        (f"{topo}:first_price-truthful", "first_price", "first_price"),
        (f"{topo}:first_price-ghost", "vcg", "ghost"),
    ]
    arms = (("truthful", "posted"), ("ghost", "posted_ghost"), ("inflator", "inflator"))
    for level in POSTED_LEVELS:
        for adv, dev in arms:
            conds.append((f"{topo}:posted_price-{adv}@{level:g}", ("posted", level), (dev, level)))
    return conds


def _r5_worlds(base_config, task):
    """Every settled world of one (topology, seed) task, as [(round,
    {world key: world})] over the rounds with positive welfare."""
    topo, seed = task
    config = replace(
        base_config,
        topology_class=topo,
        tier_latencies_ms=CLASS_TIER_LATENCIES[topo],
    )
    settled = []
    for r, profile in enumerate(seed_rounds(config, seed)):
        alloc_t, pay_t = settle_threshold(profile)
        vcg = _world(profile, alloc_t, pay_t)
        if vcg[0][1] <= 0:
            continue
        bids = profile.bids.tolist()
        pick = best_ghost(profile, alloc_t, pay_t)
        worlds = {
            "vcg": vcg,
            "first_price": _world(
                profile, alloc_t, {a: bids[a] * x for a, x in alloc_t.items()}
            ),
            "ghost": vcg if pick is None else _world(
                profile, *_ghost_world(profile, pick, (alloc_t, pay_t))
            ),
        }
        arrival = arrival_order(config, seed, r)
        for level in POSTED_LEVELS:
            alloc_p, pay_p, _ = settle_posted(profile, level, arrival)
            posted = worlds["posted", level] = _world(profile, alloc_p, pay_p)
            if pick is None:
                worlds["posted_ghost", level] = posted
            else:
                ph = (pick.source, max(pick.level, level))
                alloc_q, pay_q, _ = settle_posted(profile, level, arrival, phantom=ph)
                worlds["posted_ghost", level] = _world(profile, alloc_q, pay_q)
            # receipt inflator: prices marked up, detectable by any buyer
            (rev_p, w_p), _, _ = posted
            inflated = {a: q * (1.0 + INFLATOR_MARKUP) for a, q in pay_p.items()}
            _, utilities, detected = _world(
                profile, alloc_p, inflated, any(x > POS_TOL for x in alloc_p.values())
            )
            worlds["inflator", level] = (
                (rev_p * (1.0 + INFLATOR_MARKUP), w_p), utilities, detected
            )
        settled.append((r, worlds))
    return settled


def run_r5(config, jobs=1):
    # each class draws at its own latencies, so a report recording others
    # would name a run that never happened
    if config.tier_latencies_ms != ScenarioConfig.tier_latencies_ms:
        raise ConfigError(
            f"r5 runs each topology class at its own tier latencies, {CLASS_TIER_LATENCIES}; "
            f"tier_latencies_ms must stay at {list(ScenarioConfig.tier_latencies_ms)}"
        )
    tasks = list(product(("tree", "sp", "entangled"), config.seeds))
    parts = _map_jobs(partial(_r5_worlds, config), tasks, jobs)
    # rows in task, round, condition order; utilities once per (topology,
    # world key), in task and round order
    rows, by_cond, utils, samples = [], {}, {}, {}
    for (topo, seed), settled in zip(tasks, parts):
        conds = _r5_conditions(topo)
        for name, honest_key, dev_key in conds:
            samples[name] = (topo, honest_key), (topo, dev_key)
        for r, worlds in settled:
            for key, (_, utilities, _) in worlds.items():
                utils.setdefault((topo, key), []).extend(utilities)
            for name, honest_key, dev_key in conds:
                (honest, _, _), (dev, _, detected) = worlds[honest_key], worlds[dev_key]
                row = _row(r, seed, name, honest, dev, detected)
                rows.append(row)
                by_cond.setdefault(name, []).append(row)
    _require_welfare(r["welfare_honest"] for r in rows)
    conditions = {}
    for name, crows in sorted(by_cond.items()):
        entry = {
            "rounds": len(crows),
            "detection_rate": float(np.mean([r["detected"] for r in crows])),
        }
        try:
            entry["conc"] = _conc(crows).to_json()
        except CredmarketError as exc:  # zero baseline on a sparse condition
            entry["conc"] = {"error": str(exc)}
        honest_key, dev_key = samples[name]
        entry["cliffs_delta_utility"] = cliffs_delta(utils[honest_key], utils[dev_key])
        conditions[name] = entry
    return {
        "experiment": "r5",
        "rows": rows,
        "conditions": conditions,
        "summary": {
            "n_conditions": len(conditions),
            "round_runs": len(rows),
        },
    }


# --------------------------------------------------------------------------
# Dispatch, serialization, determinism digest


def _gather(seed_fn, config, jobs):
    """Run `seed_fn(config, seed)` for every seed and join the lists each
    call returns, field by field, in seed order."""
    parts = _map_jobs(partial(seed_fn, config), list(config.seeds), jobs)
    return [list(chain.from_iterable(field)) for field in zip(*parts)]


def _map_jobs(fn, tasks, jobs):
    # a fork pool starts all its workers up front: never more than the tasks
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


_RUNNERS = {"exp1": run_exp1, "exp2": run_exp2, "exp3": run_exp3, "r5": run_r5}


def run_experiment(exp, config=None, jobs=1):
    """Run experiment `exp` ("exp1", "exp2", "exp3" or "r5"); attach a
    determinism digest."""
    if not isinstance(exp, str) or exp not in _RUNNERS:
        raise ConfigError(f"unknown experiment {exp!r}; pick from {sorted(_RUNNERS)}")
    if not _is_int(jobs) or jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {jobs!r}")
    if config is None:
        config = ScenarioConfig()
    report = _RUNNERS[exp](config, jobs=jobs)
    report["config"] = config.to_dict()
    report["digest"] = report_digest(report)
    return report


def _round_floats(obj, sig=9):
    if isinstance(obj, float):
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, sig) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.{sig}g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def report_json(report):
    """Canonical JSON with 9-significant-digit floats."""
    return json.dumps(_round_floats(report), sort_keys=True, separators=(",", ":"))


def report_digest(report):
    payload = {k: v for k, v in report.items() if k != "digest"}
    return hashlib.sha256(report_json(payload).encode()).hexdigest()


CSV_FIELDS = (
    "round", "seed", "condition",
    "rev_honest", "rev_dev", "welfare_honest", "welfare_dev", "detected",
)


def rows_to_csv(rows, fh=None):
    """Write per-round rows; returns the CSV text when no handle is given."""
    own = fh is None
    if own:
        fh = io.StringIO()
    writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for row in rows:
        out = dict(row)
        for key in ("rev_honest", "rev_dev", "welfare_honest", "welfare_dev"):
            out[key] = f"{out[key]:.9g}"
        writer.writerow(out)
    return fh.getvalue() if own else None
