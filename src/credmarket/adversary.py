"""Operator deviations and the agent-side undetectability checker.

The operator runs the allocation; each agent sees only its own bid,
allocation, and payment. That information gap is what this module probes:

* ``DeviationStrategy`` enumerates the operator moves (phantom bids,
  targeted payment nudges, capacity misreports, posted-price markups,
  discriminatory priority).
* ``construct_perturbation`` builds the canonical profitable nudge: raise
  one losing bid inside its Walrasian window so a winner's threshold
  payment climbs by exactly delta * gamma_ij.
* ``apply_deviation`` executes a strategy against a bid profile and returns
  both worlds plus, per agent, a counterfactual bid profile ("certificate")
  under which honest execution reproduces what that agent saw. Every
  certificate it returns has been replayed: each strategy proposes
  certificate worlds, and one pass keeps the first whose honest run
  matches.
* ``ghost_certificates`` is the one statement of a phantom bid's
  certificate families, which ``apply_deviation`` and the simulator's
  exp1 both replay.
* ``check_safe_deviation`` is the agent-side tool: given only one agent's
  observation, decide whether ANY legitimate opponent profile explains it.

Certificates may extend the ground set by one substitute entrant (a new
bidder contesting an existing slot); the sealed-bid information set does
not reveal how many opponents showed up, so rationalizing profiles are not
confined to the original dimension.
"""

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NoDeviationError,
    NoWindowError,
)
from .mechanisms import (
    MarketOutcome,
    _is_real,
    _posted_pass,
    archer_tardos_payment,
    edmonds_greedy,
    run_mechanism,
)
from .polymatroid import RANK_TOL, RankOracle, SubstituteCloneOracle, agent_id, pair_gap

STRATEGY_KINDS = (
    "identity",
    "ghost_bid",
    "payment_perturb",
    "capacity_misreport",
    "posted_price_inflate",
    "discriminate",
)

#: default phantom amplitude: the extraction target per round is
#: GHOST_EPSILON_SCALE * (max realized value); the phantom's level itself
#: is placed by the operator, see `apply_deviation` / `sim.best_ghost`.
GHOST_EPSILON_SCALE = 1.1

MATCH_TOL = 1e-9


@dataclass
class DeviationStrategy:
    """One operator move. Only the fields of the chosen kind are read."""

    kind: str
    pair: tuple = None  # payment_perturb: (winner i, nudged loser j)
    delta: float = None  # payment_perturb: bid nudge, 0 < delta < window
    level: float = None  # ghost_bid: phantom bid, GHOST_EPSILON_SCALE * max bid if None
    source: int = None  # ghost_bid: whose slot the phantom contests
    shrink_factor: float = None  # capacity_misreport
    markup: float = None  # posted_price_inflate
    favored_set: frozenset = None  # discriminate

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown deviation kind {self.kind!r}")
        # agent ids (pair, source, favored_set) are checked against the
        # ground set when the strategy is applied, with a DomainError
        if self.kind == "payment_perturb":
            if not (isinstance(self.pair, (tuple, list)) and len(self.pair) == 2):
                raise ConfigError("payment_perturb needs a (winner, loser) pair")
            if not (_is_real(self.delta) and self.delta > 0):
                raise ConfigError(f"payment_perturb needs a number delta > 0, got {self.delta!r}")
        if self.kind == "ghost_bid" and self.level is not None:
            if not (_is_real(self.level) and 0 <= self.level < math.inf):
                raise ConfigError(f"ghost_bid needs a finite level >= 0, got {self.level!r}")
        if self.kind == "capacity_misreport":
            if not (_is_real(self.shrink_factor) and 0 < self.shrink_factor < 1):
                raise ConfigError("capacity_misreport needs shrink_factor in (0, 1)")
        if self.kind == "posted_price_inflate":
            if not (_is_real(self.markup) and 0 < self.markup < math.inf):
                raise ConfigError("posted_price_inflate needs a finite markup > 0")
        if self.kind == "discriminate":
            try:
                self.favored_set = frozenset(self.favored_set)
            except TypeError:  # not a collection of hashable ids
                self.favored_set = None
            if not self.favored_set:
                raise ConfigError("discriminate needs a nonempty favored set")


@dataclass
class AgentObservation:
    """Exactly the sealed-bid information set of one agent, nothing else."""

    agent: int
    own_bid: float
    own_allocation: float
    own_payment: float

    @classmethod
    def from_outcome(cls, outcome, bids, agent):
        return cls(
            agent=agent,
            own_bid=float(bids[agent]),
            own_allocation=float(outcome.allocation[agent]),
            own_payment=float(outcome.payments[agent]),
        )


def _world(profile, entrant=None):
    """The key of an honest-run world: equal for two worlds exactly when
    their runs on one oracle, mechanism and seed are the same run. It holds
    the exact bits of every bid (-0.0 apart from 0.0, an int bid as the
    float the mechanism reads) and the entrant's source and level."""
    bits = array("d", profile).tobytes()
    if entrant is None:
        return bits, None
    return bits, (entrant["source"], float(entrant["level"]).hex())


@dataclass
class Certificate:
    """A rationalizing counterfactual: honest execution of `profile` (plus
    an optional substitute entrant) reproduces the agent's observation."""

    agent: int
    profile: list
    entrant: dict = None  # {"source": agent id, "level": bid} or None

    def replay(self, mechanism, oracle, seed=0, outcomes=None):
        """Honest-run the certificate world; return (x_agent, p_agent).

        `outcomes`, when given, maps `_world` keys to runs already made on
        this oracle, mechanism and seed: a world found there is not run
        again, and a world run here is added to it.
        """
        if outcomes is None:
            outcomes = {}
        key = _world(self.profile, self.entrant)
        out = outcomes.get(key)
        if out is None:
            if self.entrant is not None:
                oracle = SubstituteCloneOracle(oracle, self.entrant["source"])
                profile = list(self.profile) + [self.entrant["level"]]
            else:
                profile = list(self.profile)
            out = outcomes[key] = run_mechanism(oracle, profile, mechanism, seed=seed)
        return out.allocation[self.agent], out.payments[self.agent]

    def matches(self, observation, mechanism, oracle, seed=0, tol=1e-7, outcomes=None):
        if abs(self.profile[self.agent] - observation.own_bid) > tol:
            return False
        x, p = self.replay(mechanism, oracle, seed=seed, outcomes=outcomes)
        return (
            abs(x - observation.own_allocation) <= tol
            and abs(p - observation.own_payment) <= tol
        )


@dataclass
class DeviationResult:
    """Honest vs deviated execution plus per-agent rationalizability."""

    strategy: DeviationStrategy
    bids: list
    honest: MarketOutcome
    deviated: MarketOutcome
    undetectable: dict  # agent -> bool
    certificates: dict  # agent -> Certificate or None
    ghost: dict = None  # {"source", "level", "undelivered"} for ghost_bid

    @property
    def operator_surplus(self):
        return self.deviated.revenue - self.honest.revenue

    def observation(self, agent):
        return AgentObservation.from_outcome(self.deviated, self.bids, agent)

    def verify_certificates(self, mechanism, oracle, seed=0, tol=1e-7):
        """Replay every certificate; True per agent iff it reproduces the
        deviated observation exactly under honest execution."""
        verdict = {}
        for i, cert in self.certificates.items():
            if cert is None:
                verdict[i] = False
                continue
            verdict[i] = cert.matches(
                self.observation(i), mechanism, oracle, seed=seed, tol=tol
            )
        return verdict


def walrasian_gap(bids, pair):
    """Largest symmetric nudge preserving the priority order around `pair`.

    For winner i and runner-up j this is min(b_i - b_j, b_j - max rest):
    any raise of b_j below the gap moves nobody across anybody. Zero bids
    are ignored (non-bidders are never served, so never crossed). Raises
    NoWindowError when the profile sits on a boundary (ties) or the pair
    is not strictly ordered above the field.
    """
    i, j = (agent_id(k, len(bids)) for k in pair)
    if i == j:
        raise DomainError("pair must name two distinct agents")
    b_i, b_j = float(bids[i]), float(bids[j])
    if not b_i > b_j > 0:
        raise NoWindowError(
            f"need b_{i} > b_{j} > 0, got ({b_i}, {b_j}); no perturbation window"
        )
    rest = [float(b) for k, b in enumerate(bids) if k not in (i, j) and b > 0]
    gap = b_i - b_j
    if rest:
        gap = min(gap, b_j - max(rest))
    if gap <= 0:
        raise NoWindowError(
            f"pair ({i}, {j}) is not strictly above the field; window is empty"
        )
    return gap


def construct_perturbation(bids, oracle, epsilon_target=None):
    """Build the canonical profitable payment perturbation.

    Sorts the profile, takes the top two bidders (the only pair that can
    own a Walrasian window), checks that they actually share capacity
    (gamma > 0), and returns a payment_perturb strategy with delta at the
    window midpoint — or delta = epsilon_target / gamma when a specific
    revenue increment is requested. The resulting payment increase is
    exactly delta * gamma.

    Cost: one sort plus O(1) rank calls, so O(n log n + T_f).
    """
    n = len(bids)
    if n < 2:
        raise NoWindowError("need at least two bidders")
    order = sorted(range(n), key=lambda k: (-bids[k], k))
    i, j = order[0], order[1]
    gap = walrasian_gap(bids, (i, j))  # NoWindowError on ties/boundaries
    gamma = pair_gap(oracle, i, j)
    if gamma <= RANK_TOL:
        raise NoDeviationError(
            f"top pair ({i}, {j}) shares no capacity (gamma = {gamma}); "
            "payment perturbation has nothing to lever"
        )
    delta = gap / 2.0
    if epsilon_target is not None:
        if not epsilon_target > 0:  # NaN included
            raise ConfigError("epsilon_target must be positive")
        delta = min(delta, epsilon_target / gamma)
    return DeviationStrategy(kind="payment_perturb", pair=(i, j), delta=delta)


class _ScaledOracle(RankOracle):
    """Capacity misreport: every rank scaled by a factor in (0, 1)."""

    def __init__(self, base, factor):
        self.base = base
        self.factor = float(factor)
        self.evaluator = "scaled"
        super().__init__(base.n)

    def _rank(self, subset):
        return self.factor * self.base.rank(subset)

    def describe(self):
        return {"evaluator": "scaled", "factor": self.factor, "base": self.base.describe()}


def _auto_ghost_source(bids, level):
    """Whose slot does a phantom at `level` contest: the highest bidder
    strictly below it, else the top bidder."""
    below = [k for k, b in enumerate(bids) if 0 < b < level]
    if below:
        return max(below, key=lambda k: (bids[k], -k))
    live = [k for k, b in enumerate(bids) if b > 0]
    if not live:
        raise NoDeviationError("no live bids for a phantom to contest")
    return max(live, key=lambda k: (bids[k], -k))


def _unchanged(honest, deviated, i, tol=MATCH_TOL):
    return (
        abs(honest.allocation[i] - deviated.allocation[i]) <= tol
        and abs(honest.payments[i] - deviated.payments[i]) <= tol
    )


def _phantom_world(oracle, bids, mechanism, seed, honest, source, level):
    """The rule run with a phantom, a substitute clone of `source` bidding
    `level`: (outcome over the real agents, the phantom's undelivered
    quantity). Under a posted price the phantom arrives just ahead of its
    source in the honest arrival order, which `_posted_pass` settles on
    `oracle` itself with the source lifted to the phantom's level; a
    sealed-bid rule runs on `SubstituteCloneOracle(oracle, source)`."""
    meta = {"ghost_level": level, "ghost_source": source}
    if mechanism.payment_rule == "posted_price":
        price = mechanism.posted_price
        alloc, take = _posted_pass(oracle, bids, price, honest.order, (source, level))
        pay = {i: price * x for i, x in alloc.items()}
        return MarketOutcome(alloc, pay, list(honest.order), "posted_price", meta), take
    plus = SubstituteCloneOracle(oracle, source)
    out = run_mechanism(plus, bids + [level], mechanism, seed=seed)
    return _restated(out, meta, oracle.n), out.allocation[plus.clone_id]


def ghost_certificates(bids, source, level, agent):
    """The certificates to try, in order, for an `agent` whose view of the
    run on `bids` moved when a phantom clone of `source` bid `level`.

    Everyone but the source sees the honest run of the profile with the
    source raised to `level`: the clone presses the same capacity slot. A
    displaced source is explained by opponents filling its slot, every one
    bidding max(max(bids), level), or, when the phantom outbids it, by a
    substitute entrant of it at `level`. These are the sealed-bid
    explanations of a phantom (Akbarpour and Li's certificates); every
    ghost certification replays them.
    """
    if agent != source:
        raised = list(bids)
        raised[source] = level
        return [Certificate(agent=agent, profile=raised)]
    fill = [max(max(bids), level)] * len(bids)
    fill[source] = bids[source]
    proposals = [Certificate(agent=source, profile=fill)]
    if level > bids[source]:
        entrant = {"source": source, "level": level}
        proposals.append(Certificate(agent=source, profile=list(bids), entrant=entrant))
    return proposals


def _restated(base, meta, n, payments=None):
    """`base` over agents 0..n-1 with new `meta`: copied allocation,
    payments (`payments` when given) and order, so editing the copy leaves
    `base` as it is."""
    payments = base.payments if payments is None else payments
    return MarketOutcome(
        allocation={i: base.allocation[i] for i in range(n)},
        payments={i: payments[i] for i in range(n)},
        order=[i for i in base.order if i < n],
        rule=base.rule,
        meta=meta,
    )


def apply_deviation(strategy, bids, mechanism, oracle, seed=0):
    """Execute an operator strategy; return both worlds plus certificates.

    Ghost bids insert one phantom (substitute clone of `source`, bidding
    `level`, default GHOST_EPSILON_SCALE * max bid) and rerun the mechanism; real
    agents are charged the resulting payments while the phantom's
    allocation goes undelivered. Payment perturbation recomputes the
    winner's threshold under the nudged counterfactual; the allocation is
    untouched. Misreports scale the oracle; markups scale posted payments;
    discrimination reorders priority.

    An agent cannot detect the deviation exactly when it holds a
    certificate, and every certificate returned has been replayed against
    that agent's view of the deviated world. Each strategy proposes its
    agents' certificates in order, and the first whose honest replay
    matches is kept; a strategy with no proposals (capacity misreport,
    discrimination) runs the agent-side checker instead. All replays of
    one call share one run per world.
    """
    bids = [float(b) for b in bids]
    n = oracle.n
    if len(bids) != n:
        raise DomainError(f"expected {n} bids, got {len(bids)}")
    rule = mechanism.payment_rule
    if strategy.kind == "posted_price_inflate" and rule != "posted_price":
        raise ConfigError("posted_price_inflate only applies to posted-price")
    if strategy.kind == "discriminate" and rule not in ("vcg", "first_price"):
        raise ConfigError("discriminate is implemented for vcg/first_price only")

    honest = run_mechanism(oracle, bids, mechanism, seed=seed)
    # certificate replays share one run per world; most certificates
    # replay the honest world or one other
    outcomes = {_world(bids): honest}
    agents = range(n)
    ghost = None

    def honest_profile(i):
        return [Certificate(agent=i, profile=list(bids))]

    if strategy.kind == "identity":
        deviated = honest
        candidates = honest_profile

    elif strategy.kind == "payment_perturb":
        winner, loser = strategy.pair
        gap = walrasian_gap(bids, strategy.pair)  # DomainError on a bad id
        if not strategy.delta < gap:
            raise DomainError(
                f"delta {strategy.delta} is outside the open window (0, {gap})"
            )
        perturbed = list(bids)
        perturbed[loser] += strategy.delta
        shadow = outcomes[_world(perturbed)] = run_mechanism(
            oracle, perturbed, mechanism, seed=seed
        )
        if abs(shadow.allocation[winner] - honest.allocation[winner]) > 1e-9:
            raise DomainError(
                "perturbation moved the winner's allocation; window logic is off"
            )
        payments = dict(honest.payments)
        payments[winner] = shadow.payments[winner]
        deviated = _restated(
            honest, {"perturbed_agent": loser, "delta": strategy.delta}, n, payments
        )

        def candidates(k):
            return [Certificate(agent=k, profile=list(perturbed if k == winner else bids))]

    elif strategy.kind == "ghost_bid":
        level = strategy.level
        if level is None:
            level = GHOST_EPSILON_SCALE * max(bids)
        source = strategy.source
        if source is None:
            source = _auto_ghost_source(bids, level)
        source = agent_id(source, n)
        deviated, undelivered = _phantom_world(
            oracle, bids, mechanism, seed, honest, source, level
        )
        ghost = {"source": source, "level": level, "undelivered": undelivered}

        def candidates(i):
            if _unchanged(honest, deviated, i):
                return honest_profile(i)
            return ghost_certificates(bids, source, level, i)

    elif strategy.kind == "capacity_misreport":
        shrunk = _ScaledOracle(oracle, strategy.shrink_factor)
        deviated = _restated(
            run_mechanism(shrunk, bids, mechanism, seed=seed),
            {"shrink_factor": strategy.shrink_factor},
            n,
        )
        candidates = None

    elif strategy.kind == "posted_price_inflate":
        factor = 1.0 + strategy.markup
        payments = {i: honest.payments[i] * factor for i in agents}
        # a charged agent sees a unit price above the posted one, which
        # the honest replay does not reproduce; at a price of 0 it does
        deviated = _restated(honest, {"markup": strategy.markup}, n, payments)
        candidates = honest_profile

    else:
        # discriminate: favored agents outrank everyone regardless of bid
        favored = frozenset(agent_id(k, n) for k in strategy.favored_set)
        lift = 2.0 * max(bids) + 1.0
        prio = [bids[k] + (lift if k in favored else 0.0) for k in agents]
        alloc, order = edmonds_greedy(oracle, bids, priority=prio)
        if rule == "first_price":
            payments = {i: bids[i] * alloc[i] for i in agents}
        else:
            def priority_of(k, b):
                return b + (lift if k in favored else 0.0)

            payments = {}
            for i in agents:
                same_class = [bids[k] for k in agents if k != i and (k in favored) == (i in favored)]
                payments[i] = (
                    archer_tardos_payment(
                        oracle, bids, i, priority_of=priority_of, breakpoints=same_class
                    )
                    if alloc[i] > 0
                    else 0.0
                )
        deviated = MarketOutcome(
            allocation=alloc,
            payments=payments,
            order=order,
            rule=rule,
            meta={"favored": sorted(favored)},
        )
        candidates = None

    certs = dict.fromkeys(agents)
    for i in agents:
        obs = AgentObservation.from_outcome(deviated, bids, i)
        if candidates is None:
            ok, cert = check_safe_deviation(
                obs, mechanism, oracle, prior=None, search_budget=64, seed=seed
            )
            certs[i] = cert if ok else None
            continue
        for cert in candidates(i):
            if cert.matches(obs, mechanism, oracle, seed=seed, outcomes=outcomes):
                certs[i] = cert
                break

    return DeviationResult(
        strategy=strategy,
        bids=bids,
        honest=honest,
        deviated=deviated,
        undetectable={i: cert is not None for i, cert in certs.items()},
        certificates=certs,
        ghost=ghost,
    )


# --------------------------------------------------------------------------
# Agent-side safety checker


def _support_cap(prior, bids):
    """Upper end of the rationalizable bid range.

    Latency decay maps base values below the prior ceiling, so realized
    bids live in [0, hi]; without a prior fall back to the observed range.
    """
    if prior is not None:
        return prior.hi
    return max(bids) if bids else 1.0


def check_safe_deviation(
    observation, mechanism, oracle, prior, search_budget=2000, seed=0, hint=None
):
    """Can ANY honest execution explain this agent's observation?

    Returns (safe, certificate). `certificate` is a Certificate when safe;
    otherwise a dict with a "flag" key: "ir" / "price" (provably no honest
    execution exists) or "budget" (search exhausted — inconclusive, never
    treated as proof of detectability).

    The analytic fast path for greedy mechanisms solves for a single
    opponent bid level beta making the threshold integral match, optionally
    under one capacity-consuming opponent (or substitute entrant) parked
    above the agent; a seeded grid search over opponent profiles spends
    whatever budget remains.
    """
    i = observation.agent
    b = observation.own_bid
    x = observation.own_allocation
    p = observation.own_payment
    n = oracle.n
    tol = 1e-7
    rule = mechanism.payment_rule

    if x < -tol or p < -tol:
        return False, {"flag": "ir"}
    if p > b * x + tol:
        return False, {"flag": "ir"}
    if x > oracle.rank({i}) + tol:
        return False, {"flag": "capacity"}
    if rule == "posted_price" and x > 0:
        unit = mechanism.posted_price
        if abs(p - unit * x) > tol:
            # honest posted-price charges exactly the posted unit price
            return False, {"flag": "price"}
    if rule == "first_price" and x > 0 and abs(p - b * x) > tol:
        return False, {"flag": "price"}

    budget = int(search_budget)
    spent = 0
    hi_cap = _support_cap(prior, [b])

    def try_cert(profile, entrant=None):
        nonlocal spent
        if spent >= budget:
            return None
        spent += 1
        cert = Certificate(agent=i, profile=list(profile), entrant=entrant)
        if cert.matches(observation, mechanism, oracle, seed=seed, tol=tol):
            return cert
        return None

    candidates = []
    if hint is not None:
        profile = list(hint)
        profile[i] = b
        candidates.append((profile, None))

    zeros = [0.0] * n
    solo = list(zeros)
    solo[i] = b
    candidates.append((solo, None))

    ceiling = max(hi_cap, b)
    walls = [ceiling if k != i else b for k in range(n)]
    candidates.append((walls, None))
    if ceiling > b:
        candidates.append((solo, {"source": i, "level": ceiling}))

    for profile, entrant in candidates:
        cert = try_cert(profile, entrant)
        if cert is not None:
            return True, cert

    # single-opponent solve: one opponent j parked above (optional), one
    # opponent k at the beta making the threshold integral come out to p
    if rule in ("vcg", "myerson", "first_price") and b > 0:
        opponents = [j for j in range(n) if j != i]

        def marginal_after(group):
            return max(0.0, oracle.rank(set(group) | {i}) - oracle.rank(set(group)))

        shades = [(None, None)]  # nobody parked above
        shades += [((j,), None) for j in opponents]
        shades += [((j, k), None) for j in opponents for k in opponents if j < k]
        shades += [((j,), ("entrant", j)) for j in opponents + [i]]
        for above, ent in shades:
            if spent >= budget:
                break
            # an entrant holds its source's footprint, so it leaves i what
            # its source parked above would
            x_top = marginal_after(above or ())
            if abs(x_top - x) > tol:
                continue
            base_profile = list(zeros)
            base_profile[i] = b
            entrant = None
            if ent is not None:
                entrant = {"source": ent[1], "level": ceiling}
            elif above:
                for j in above:
                    base_profile[j] = ceiling
            if rule == "first_price" or p <= tol:
                cert = try_cert(base_profile, entrant)
                if cert is not None:
                    return True, cert
                continue
            group = list(above) if (above and ent is None) else []
            for k in opponents:
                if k in group:
                    continue
                x_lo = marginal_after(group + [k])
                if x_lo >= x - tol:
                    continue
                beta = p / (x - x_lo)
                if not (tol < beta < b and beta <= hi_cap):
                    continue
                profile = list(base_profile)
                profile[k] = beta
                cert = try_cert(profile, entrant)
                if cert is not None:
                    return True, cert

    # seeded grid fallback over opponent profiles
    rng = np.random.default_rng(
        abs(hash((round(b, 9), round(x, 9), round(p, 9), i))) % (2**32)
    )
    while spent < budget:
        profile = list(rng.uniform(0.0, hi_cap, size=n))
        profile[i] = b
        cert = try_cert(profile)
        if cert is not None:
            return True, cert
    return False, {"flag": "budget"}
