"""Allocation and payment rules over a rank oracle.

All mechanisms share one allocator: priority-order greedy with marginal-rank
quantities (the polymatroid greedy, optimal for the welfare LP). Payment
rules differ:

  vcg          threshold payments from the exact allocation-curve integral
  myerson      the same threshold auction with Myerson's reserve: under a
               uniform prior the virtual-value order is the bid order
  first_price  pay-as-bid
  posted_price fixed unit price, seeded random arrival order

plus an ascending-clock clinching auction that reproduces the threshold
payments to within one clock step for unit-slope demand.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NonMonotoneAllocationError,
    StructureError,
    UnsupportedPriorError,
)
from .polymatroid import RANK_TOL, agent_id

PAYMENT_RULES = ("vcg", "myerson", "first_price", "posted_price")
CLOCK_STEP = 0.01


@dataclass(frozen=True)
class UniformPrior:
    lo: float
    hi: float

    def __post_init__(self):
        # an infinite hi puts the reserve at inf, where nobody is served
        if not (_is_real(self.lo) and _is_real(self.hi) and 0 <= self.lo < self.hi < math.inf):
            raise ConfigError("uniform prior needs 0 <= lo < hi < inf")

    def virtual_value(self, v):
        # phi(v) = v - (hi - v) = 2v - hi for Uniform[lo, hi]
        return 2.0 * v - self.hi

    def reserve(self):
        return max(self.lo, self.hi / 2.0)


@dataclass
class MarketOutcome:
    allocation: dict  # agent -> quantity
    payments: dict  # agent -> payment
    order: list  # priority order actually used
    rule: str
    meta: dict = field(default_factory=dict)

    @property
    def revenue(self):
        return sum(self.payments.values())

    def welfare(self, values):
        return sum(self.allocation[a] * values[a] for a in self.allocation)


def _is_real(v):
    # a bool is an int to Python, but no price, markup or bound; a string
    # would fail the range checks with a bare TypeError
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _validate_bids(oracle, bids):
    if len(bids) != oracle.n:
        raise DomainError(f"expected {oracle.n} bids, got {len(bids)}")
    bids = [float(b) for b in bids]
    # NaN fails both comparisons, so one pass rejects NaN, inf and negatives
    if not all(0.0 <= b < math.inf for b in bids):
        raise DomainError("bids must be finite and nonnegative")
    return bids


def priority_order(bids, priority=None):
    """Descending priority, lower agent id first on exact ties."""
    keys = bids if priority is None else priority
    # a reversed sort is still stable: equal keys keep ascending ids
    return sorted(range(len(bids)), key=keys.__getitem__, reverse=True)


def edmonds_greedy(oracle, bids, priority=None, active=None):
    """Marginal-rank allocation in priority order.

    x_i = f(S + i) - f(S) where S is the set of higher-priority agents.
    Agents outside `active` (when given) are skipped with x_i = 0, as are
    agents bidding 0: service requires a positive bid, so an agent whose
    tasks all expired consumes nothing.
    """
    return _greedy(oracle, _validate_bids(oracle, bids), priority, active)


def _greedy(oracle, bids, priority, active):
    # `edmonds_greedy` on bids already checked by `_validate_bids`: the
    # counterfactual reruns of a threshold payment skip the re-check
    order = priority_order(bids, priority)
    served = [i for i in order if bids[i] > 0.0 and (active is None or i in active)]
    return _walk(oracle, served), order


def _walk(oracle, served):
    """Each agent of `served`, in that order, gets its marginal rank over
    the agents before it, read off one `rank_prefixes` pass; every other
    id gets 0."""
    alloc = dict.fromkeys(range(oracle.n), 0.0)
    base, floor = 0.0, -RANK_TOL
    for i, new in zip(served, oracle.rank_prefixes(served)):
        gain = new - base
        if gain < floor:
            raise _negative_marginal(i, gain)
        alloc[i] = gain
        base = new
    return alloc


def _negative_marginal(i, gain):
    # a polymatroid rank is monotone, so a marginal below zero means the
    # oracle is not one and the greedy would hand out a negative share
    return StructureError(
        f"rank oracle is not monotone: agent {i}'s marginal rank is {gain!r}"
    )


def _share(oracle, bids, i, priority_of=None, active=None):
    """Agent i's greedy share as a function of its own bid, z -> x_i(z),
    with every opponent's bid held at `bids`; `priority_of(j, b_j)` maps a
    bid to priority space (the bid itself when None).

    The opponents the greedy can serve (in `active` when given, bidding
    above 0) are put in greedy order once. At a level z, i sorts after
    those whose priority is higher, or equal with a lower id, as in
    `priority_order`; a bisect finds that prefix P, and the share is
    f(P + i) - f(P). P is built as a set in the greedy's own order, so both
    sets iterate as the default `rank_prefixes` builds them and meet the
    same memo and `_rank` (a laminar oracle's running pass is exact where
    it runs): x_i(z) is bitwise `_greedy(oracle, bids with b_i = z,
    ...)[0][i]`, and no subset is ranked that the greedy would not.
    """
    if active is not None and i not in active:
        return lambda z: 0.0
    if priority_of is None:
        prio = bids
        priority_of = lambda j, b: b
    else:
        prio = [priority_of(j, b) for j, b in enumerate(bids)]
    served = [
        j for j in priority_order(bids, prio)
        if j != i and bids[j] > 0.0 and (active is None or j in active)
    ]
    keys = [(-prio[j], j) for j in served]

    def share(z):
        if z <= 0.0:
            return 0.0
        taken = set(served[: bisect.bisect(keys, (-priority_of(i, z), i))])
        base = oracle.rank(taken) if taken else 0.0
        taken.add(i)
        gain = oracle.rank(taken) - base
        if gain < -RANK_TOL:
            raise _negative_marginal(i, gain)
        return gain

    return share


def _allocation_curve(share, i, top, breakpoints, lower=0.0):
    """x_i(z) = share(z) evaluated at the midpoint of each segment between
    breakpoints.

    Breakpoints are the bid levels where agent i's priority crosses an
    opponent's. Returns (segment start, segment end, x on segment) triples
    covering [lower, top], top = b_i > lower; the curve is identically zero
    below `lower`.
    """
    cuts = sorted({lower, top, *(p for p in breakpoints if lower < p < top)})
    segments = []
    last_x = None
    for lo, hi in zip(cuts, cuts[1:]):
        x = share((lo + hi) / 2.0)
        if last_x is not None and x < last_x - 1e-9:
            raise NonMonotoneAllocationError(
                f"allocation of agent {i} fell from {last_x} to {x} as its bid rose past {lo}"
            )
        last_x = x
        segments.append((lo, hi, x))
    return segments


def archer_tardos_payment(
    oracle, bids, i, priority_of=None, breakpoints=None, active=None, eligible_from=0.0
):
    """Threshold payment p_i = b_i x_i(b_i) - integral_0^{b_i} x_i(z) dz.

    The integrand is piecewise constant: x_i(z) only changes where agent i's
    priority crosses an opponent's level, so the integral is evaluated
    exactly as a finite sum of segment areas (no quadrature). `eligible_from`,
    finite and nonnegative, zeroes the curve below a participation
    threshold (a reserve price). Every level of the curve, b_i included, is
    read off one greedy order of the opponents (`_share`).
    """
    bids = _validate_bids(oracle, bids)
    i = agent_id(i, oracle.n)
    # NaN fails both comparisons: it would drop every cut and price no area
    if not 0.0 <= eligible_from < math.inf:
        raise DomainError(f"eligible_from must be finite and nonnegative, got {eligible_from!r}")
    if breakpoints is None:
        breakpoints = [bids[j] for j in range(len(bids)) if j != i]
    if bids[i] <= eligible_from:
        return 0.0
    share = _share(oracle, bids, i, priority_of, active)
    segments = _allocation_curve(share, i, bids[i], breakpoints, lower=eligible_from)
    integral = sum((hi - lo) * x for lo, hi, x in segments)
    return bids[i] * share(bids[i]) - integral


def vcg_outcome(oracle, bids):
    """Greedy allocation with exact threshold payments (bid = priority).

    Takes the oracle's closed form when it has one (`threshold_outcome`),
    else the generic route: the greedy, then each served agent's
    `archer_tardos_payment`, which every closed form must reproduce.
    """
    bids = _validate_bids(oracle, bids)
    closed = oracle.threshold_outcome(bids)
    if closed is not None:
        return MarketOutcome(*closed, order=priority_order(bids), rule="vcg")
    alloc, order = _greedy(oracle, bids, None, None)
    pay = {
        i: archer_tardos_payment(oracle, bids, i) if alloc[i] > 0 else 0.0
        for i in range(oracle.n)
    }
    return MarketOutcome(allocation=alloc, payments=pay, order=order, rule="vcg")


def myerson_outcome(oracle, bids, prior):
    """Myerson's revenue-optimal auction for a bounded uniform prior: the
    threshold auction with reserve r = max(lo, hi / 2).

    The virtual value phi(b) = 2b - hi is strictly increasing, so no
    ironing is needed and ranking by virtual value is ranking by bid. The
    agents bidding at least r are served in bid order, and each pays its
    threshold, with the curve zero below r. Other priors are rejected.
    """
    if not isinstance(prior, UniformPrior):
        raise UnsupportedPriorError(
            f"only UniformPrior is supported, got {type(prior).__name__}"
        )
    bids = _validate_bids(oracle, bids)
    reserve = prior.reserve()
    active = {i for i in range(oracle.n) if bids[i] >= reserve}
    alloc, order = _greedy(oracle, bids, None, active)
    payments = {
        i: archer_tardos_payment(oracle, bids, i, active=active, eligible_from=reserve)
        if alloc[i] > 0
        else 0.0
        for i in range(oracle.n)
    }
    return MarketOutcome(
        allocation=alloc,
        payments=payments,
        order=order,
        rule="myerson",
        meta={"reserve": reserve},
    )


def first_price_outcome(oracle, bids):
    bids = _validate_bids(oracle, bids)
    alloc, order = _greedy(oracle, bids, None, None)
    pay = {i: bids[i] * alloc[i] for i in range(oracle.n)}
    return MarketOutcome(allocation=alloc, payments=pay, order=order, rule="first_price")


def _posted_pass(oracle, bids, posted_price, arrival, phantom=None):
    """(allocation, phantom's take): serve each agent with b_i >= posted
    price, in `arrival` order, its marginal rank over those served before
    it.

    `phantom` = (source, level) adds a substitute clone of the source
    that arrives just ahead of it. Below the price it buys nothing. At or
    above the price it takes the source's place: the clone and its
    source hold one footprint (`SubstituteCloneOracle`), so the pass runs
    with the source lifted to the phantom's level, and the source's take
    becomes the phantom's undelivered take while the source, arriving on
    a drained slot, gets nothing. That ranks exactly the sets the clone
    run ranks, with no clone oracle and no spliced arrival.
    """
    source = phantom[0] if phantom is not None and phantom[1] >= posted_price else None
    alloc = _walk(oracle, [i for i in arrival if bids[i] >= posted_price or i == source])
    if source is None:
        return alloc, 0.0
    take, alloc[source] = alloc[source], 0.0
    return alloc, take


def _check_posted_price(posted_price):
    # a NaN or infinite price serves nobody and charges NaN
    if not (_is_real(posted_price) and 0 <= posted_price < math.inf):
        raise ConfigError(
            f"posted price must be a finite nonnegative number, got {posted_price!r}"
        )


def posted_price_outcome(oracle, bids, posted_price, seed):
    """Accept agents with b_i >= posted price in seeded random arrival order."""
    bids = _validate_bids(oracle, bids)
    _check_posted_price(posted_price)
    rng = np.random.default_rng(seed)
    arrival = list(rng.permutation(oracle.n))
    alloc, _ = _posted_pass(oracle, bids, posted_price, arrival)
    pay = {i: posted_price * alloc[i] for i in range(oracle.n)}
    return MarketOutcome(
        allocation=alloc,
        payments=pay,
        order=[int(a) for a in arrival],
        rule="posted_price",
        meta={"posted_price": float(posted_price), "seed": int(seed)},
    )


@dataclass
class Mechanism:
    """Bundled mechanism description used by the simulator and the commit stage."""

    payment_rule: str
    prior: UniformPrior = None
    posted_price: float = None

    def __post_init__(self):
        if self.payment_rule not in PAYMENT_RULES:
            raise ConfigError(f"unknown payment rule {self.payment_rule!r}")
        if self.payment_rule == "myerson" and self.prior is None:
            raise ConfigError("myerson needs a prior")
        if self.payment_rule == "posted_price":
            if self.posted_price is None:
                raise ConfigError("posted_price needs a price level")
            _check_posted_price(self.posted_price)

    def describe(self):
        return {
            "allocation": "priority_greedy",
            "payment_rule": self.payment_rule,
            "prior": [self.prior.lo, self.prior.hi] if self.prior else None,
            "posted_price": self.posted_price,
        }


def run_mechanism(oracle, bids, mechanism, seed=0):
    rule = mechanism.payment_rule
    if rule == "vcg":
        return vcg_outcome(oracle, bids)
    if rule == "myerson":
        return myerson_outcome(oracle, bids, mechanism.prior)
    if rule == "first_price":
        return first_price_outcome(oracle, bids)
    return posted_price_outcome(oracle, bids, mechanism.posted_price, seed)


# --------------------------------------------------------------------------
# Ascending-clock clinching auction with an audit transcript
# --------------------------------------------------------------------------


def _digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _round_tag(prev_tag, body):
    # one link of the transcript's hash chain: SHA-256 of the previous
    # link's tag followed by the compact sorted-key JSON of a round event
    # without its own tag
    return hashlib.sha256((prev_tag + _compact(body)).encode()).hexdigest()


@dataclass
class ClinchTranscript:
    """Event log of one clinching run.

    Events (dicts with an "event" key):
      demand  {"agent": i, "demand": d}                    -- agent-attested
      round   {"price": p, "active": [...], "rank": f(D),
               "drops": [f(D - i) for i in active],
               "clinches": [[i, q], ...], "tag": t}        -- operator-written
    Demands are treated as integrity-protected (signed by agents). Each
    clock round is one `round` event: the sorted active ids D, the rank
    values the round's supplies come from, and the quantities clinched at
    the round's price, the clearing payout included. Its tag chains the
    log: t = SHA-256(previous round's tag, or the commitment root for the
    first round, followed by the round's compact sorted-key JSON without
    "tag"), so a reordered, omitted or edited round breaks every later
    link. The chain is not a signature: anyone can recompute it over a
    lie, which only a replay against the committed rank function catches.
    """

    commitment_root: str
    events: list = field(default_factory=list)

    @property
    def head(self):
        """The tag the next round chains from."""
        for ev in reversed(self.events):
            if ev["event"] == "round":
                return ev["tag"]
        return self.commitment_root

    def demand(self, agent, d):
        self.events.append({"event": "demand", "agent": agent, "demand": d})

    def round(self, price, active, rank, drops, clinches):
        event = {
            "event": "round",
            "price": price,
            "active": active,
            "rank": rank,
            "drops": drops,
            "clinches": clinches,
        }
        event["tag"] = _round_tag(self.head, event)
        self.events.append(event)

    def to_json(self):
        return json.dumps(
            {"commitment_root": self.commitment_root, "events": self.events},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
            t = cls(commitment_root=obj["commitment_root"])
            t.events = list(obj["events"])
            for e in t.events:
                e["event"]
        except (KeyError, TypeError, ValueError) as exc:
            raise StructureError(f"malformed transcript: {exc}") from exc
        return t


def _round_clinches(members, demand, clinched, f_active, f_without):
    """The clinches of one clock round at its price, as ([[agent, qty], ...],
    cleared), for the active `members` in ascending order, their `demand`
    and `clinched` quantities so far, and the round's f(D) and f(D - i).

    Each member clinches up to the slack its opponents leave,
    max(0, min(d_i, f(D) - f(D - i)) - clinched_i). If the active demand
    then fits f(D) the market clears and every remaining quantity goes
    out too, listed after the takes. On a polymatroid that payout sells
    nothing: f(D - i) <= sum of d_j over D - i by subadditivity, so
    f(D) - f(D - i) >= d_i once the demand fits f(D). It stays because
    the auditor's replay applies the same rule to announced values that
    need not be a polymatroid's; see test_replay_sells_the_clearing_rest.
    """
    clinches, held = [], {}
    for i, drop in zip(members, f_without):
        d, supply = demand[i], f_active - drop
        # min(d, supply) as `min` picks it; only a take above 1e-12 is
        # kept, and there max(0, take) is the take itself
        take = (supply if supply < d else d) - clinched[i]
        if take > 1e-12:
            clinches.append([i, take])
            held[i] = clinched[i] + take
    cleared = sum(map(demand.__getitem__, members)) <= f_active + 1e-12
    if cleared:
        for i in members:
            rest = demand[i] - held.get(i, clinched[i])
            if rest > 1e-12:
                clinches.append([i, rest])
    return clinches, cleared


def clinching_auction(oracle, values, step=CLOCK_STEP, transcript=None):
    """Ascending clock with flat unit demands d_i(p) = f({i}) while p < v_i.

    The clock conceptually rises in increments of `step`, a positive finite
    number; between demand changes nothing else moves, so the loop
    fast-forwards to the next exit price (first clock multiple at or above
    an active value). Supply to each active agent is s_i = f(D) - f(D - i),
    which is non-decreasing as others drop out, so cumulative clinches never
    have to be revoked.

    The rounds' active sets depend only on the values: an agent leaves
    once the clock passes its value, whatever it has clinched, so D only
    shrinks. The whole chain D_0 > D_1 > ..., with each round's price and
    leavers, is built before the first rank value is read. Every round's
    f(D) and f(D - i) then come from one `oracle.rank_without_each_many`
    call over the chain when the oracle `batches_drops`, as a laminar
    oracle (one array pass) and a clone of one do; other oracles get one
    `rank_without_each` call per round, so that no round past the
    clearing one is ranked. Each round is logged with its clinches as one
    `round` event. The flat demands are the oracle's `singleton_ranks`,
    ranked once per oracle.
    """
    n = oracle.n
    values = _validate_bids(oracle, values)
    # NaN fails both comparisons; an infinite step would price at 0 * inf
    if not 0.0 < step < math.inf:
        raise ConfigError("clock step must be positive and finite")
    demand = oracle.singleton_ranks
    if transcript is not None:
        for i in range(n):
            # opening report is the demand at price 0: zero-value agents
            # are out before the clock moves, and auditors replaying the
            # log reconstruct the active set from these lines
            transcript.demand(i, demand[i] if values[i] > 0 else 0.0)

    chain, prices, exits = [], [], []
    members = [i for i in range(n) if values[i] > 0 and demand[i] > 0]
    price = 0.0
    while members:
        chain.append(members)
        prices.append(price)
        # fast-forward to the next exit: first clock multiple >= min active value
        exit_value = min(values[i] for i in members)
        price = math.ceil(exit_value / step - 1e-12) * step
        # the ceiling's tolerance is relative to the step: a large step can
        # put the clock just below the lowest value, whose holders then
        # leave at that multiple all the same
        cut = max(price + 1e-12, exit_value)
        exits.append([i for i in members if values[i] <= cut])
        members = [i for i in members if values[i] > cut]

    clinched = {i: 0.0 for i in range(n)}
    paid = {i: 0.0 for i in range(n)}
    if oracle.batches_drops:
        ranked = oracle.rank_without_each_many(chain)
    else:
        ranked = map(oracle.rank_without_each, chain)
    for price, members, leavers, (f_active, f_without) in zip(prices, chain, exits, ranked):
        clinches, cleared = _round_clinches(members, demand, clinched, f_active, f_without)
        for i, qty in clinches:
            clinched[i] += qty
            paid[i] += qty * price
        if transcript is not None:
            transcript.round(price, members, f_active, f_without, clinches)
        if cleared:
            break
        if transcript is not None:
            for i in leavers:
                transcript.demand(i, 0.0)
    return MarketOutcome(
        allocation=clinched,
        payments=paid,
        order=sorted(range(n), key=lambda i: (-values[i], i)),
        rule="clinching",
        meta={"step": step},
    )
