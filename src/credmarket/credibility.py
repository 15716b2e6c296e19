"""Three ways to make the operator's execution checkable.

1. Broadcast commitment: every demand message and one `round` event per
   clock step land on a shared log, the rounds hash-chained from the
   commitment root; `verify_transcript` checks the chain, the active sets
   and (given the committed oracle) the rank values, replays the clinching
   run and flags any clinch the announced quantities do not justify, at
   one hash per round and one `rank_without_each_many` call per log.
2. Deposit-backed recomputation (token-matroid markets only): the operator
   commits to the rule, executes, and any per-agent mismatch against the
   committed rule's recomputation slashes the whole deposit.
3. Domain separation: the operator never touches agent payments, earning
   per-delivered-unit fees plus an optional stake share; its surplus from
   any payment perturbation is exactly stake * increment, pinning the
   knife edge at stake = 0.
"""

import copy
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

from .adversary import DeviationResult, DeviationStrategy, apply_deviation
from .errors import (
    CapacityNotBindingWarning,
    ConfigError,
    CredmarketError,
    DomainError,
    MatroidBoundaryError,
    StructureError,
    UnsupportedPriorError,
)
from .mechanisms import (
    ClinchTranscript,
    MarketOutcome,
    Mechanism,
    UniformPrior,
    _digest,
    _is_real,
    _round_clinches,
    _round_tag,
    run_mechanism,
)
from .polymatroid import Level1Matroid, RankOracle

CLINCH_TOL = 1e-9
_ROUND_FIELDS = ("price", "active", "rank", "drops", "clinches", "tag")
PHASES = ("commit", "execute", "verify")


# --------------------------------------------------------------------------
# Broadcast commitment


@dataclass
class Verdict:
    consistent: bool
    violations: list = field(default_factory=list)

    @classmethod
    def from_violations(cls, violations):
        violations = list(violations)
        return cls(consistent=not violations, violations=violations)

    def to_json(self):
        return {"consistent": self.consistent, "violations": list(self.violations)}


def make_commitment(oracle, allocation_rule="clinching", payment_rule="clinch_pay"):
    """Digest binding the rule pair and the rank oracle; the root a
    transcript's tag chain starts from."""
    return _digest(
        {"alloc": allocation_rule, "pay": payment_rule, "oracle": oracle.digest()}
    )


def _require(event, *keys):
    for k in keys:
        if k not in event:
            raise StructureError(f"event {event!r} is missing {k!r}")
    return event


def _coerce_transcript(transcript):
    if isinstance(transcript, ClinchTranscript):
        return transcript.events
    if isinstance(transcript, dict):
        try:
            return list(transcript["events"])
        except (KeyError, TypeError) as exc:
            raise StructureError(f"malformed transcript: {exc}") from exc
    if isinstance(transcript, str):
        return ClinchTranscript.from_json(transcript).events
    raise StructureError(f"cannot read a transcript from {type(transcript).__name__}")


def _active(demands):
    return sorted(i for i, d in demands.items() if d > CLINCH_TOL)


def _round_truths(events, oracle):
    """The committed (f(D), [f(D - i)]) of each round's demand-replayed
    active set D, in round order, from one `rank_without_each_many` call;
    None for a round whose set fails the id checks. The replay is
    `verify_transcript`'s own, so its sets are the rounds' own. It stops at
    the first event it cannot read: `verify_transcript` raises there, or
    earlier, before it reaches a later round."""
    sets, demands = [], {}
    try:
        for ev in events:
            if ev["event"] == "demand":
                demands[ev["agent"]] = float(ev["demand"])
            elif ev["event"] == "round":
                active = _active(demands)
                valid = all(type(i) is int and 0 <= i < oracle.n for i in active)
                sets.append(active if valid else None)
    except (KeyError, TypeError, ValueError):
        pass  # the replay below raises it at its own event
    ranked = iter(oracle.rank_without_each_many([s for s in sets if s is not None]))
    return [None if s is None else next(ranked) for s in sets]


def _replay_round(ev, r, demands, clinched, oracle, violations, ranked=None):
    """Check one `round` event against the demand-replayed active set and,
    with `oracle`, the committed rank function, whose values for the set
    are `ranked` when given; replay its clinches into `clinched`. Returns
    whether the round cleared the market."""
    price = float(ev["price"])
    announced, drops = ev["active"], ev["drops"]
    if not all(type(ev[key]) is list for key in ("active", "drops", "clinches")):
        raise StructureError(f"round {r}: active, drops and clinches must be lists")
    active = _active(demands)
    # an id equal to an agent's but not an int (1.0, True) is a wrong id
    complete = (
        len(announced) == len(active) == len(drops)
        and all(type(a) is int and a == i for a, i in zip(announced, active))
    )
    f_active = f_without = None
    if complete:
        f_active, f_without = float(ev["rank"]), [float(v) for v in drops]
    else:
        violations.append(
            {"kind": "missing_rank", "round": r, "price": price, "active": active}
        )
    if oracle is not None:
        true_full, true_drops = ranked or oracle.rank_without_each(active)
        if complete:
            for k, (value, truth) in enumerate(
                zip([f_active, *f_without], [true_full, *true_drops])
            ):
                if not abs(value - truth) <= CLINCH_TOL:  # NaN too
                    violations.append(
                        {
                            "kind": "wrong_rank",
                            "round": r,
                            "price": price,
                            "without": active[k - 1] if k else None,
                            "announced": value,
                            "recomputed": truth,
                        }
                    )
        else:
            f_active, f_without = true_full, true_drops

    # the auction's own rule on the announced (or recomputed) rank values
    expected = {}
    cleared = False
    if f_active is not None:
        clinches, cleared = _round_clinches(active, demands, clinched, f_active, f_without)
        for i, qty in clinches:
            expected[i] = expected.get(i, 0.0) + qty
    announced_qty = defaultdict(float)
    for agent, qty in ev["clinches"]:
        qty = float(qty)
        if type(agent) is int:
            announced_qty[agent] += qty
        else:
            violations.append(
                {
                    "kind": "wrong_clinch",
                    "round": r,
                    "price": price,
                    "agent": agent,
                    "expected_clinch": 0.0,
                    "announced_clinch": qty,
                    "note": "clinch for a non-integer agent id",
                }
            )
    for agent in sorted(set(expected) | set(announced_qty)):
        want = expected.get(agent, 0.0)
        if not abs(want - announced_qty[agent]) <= 1e-9:
            violations.append(
                {
                    "kind": "wrong_clinch",
                    "round": r,
                    "price": price,
                    "agent": agent,
                    "expected_clinch": want,
                    "announced_clinch": announced_qty[agent],
                }
            )
        clinched[agent] += want
    return cleared


def _missing_openings(demands, oracle):
    """A `missing_rank` violation for each of `oracle`'s agents without an
    opening demand line in `demands`; none without an oracle. Only an int
    id opens an agent's line, as only an int id matches an active set."""
    if oracle is None:
        return []
    opened = {a for a in demands if type(a) is int}
    return [
        {"kind": "missing_rank", "round": 0, "agent": i, "note": "no opening demand line"}
        for i in range(oracle.n)
        if i not in opened
    ]


def verify_transcript(transcript, commitment_root, oracle=None):
    """Replay a clinching log against the commitment; list every mismatch.

    Demand messages are agent-attested and trusted; they replay the active
    set. Each `round` event must carry the tag that extends the chain from
    `commitment_root` (else `inauthentic_rank`) and list exactly the
    replayed active set with one drop per member (else `missing_rank`).
    Its clinches are recomputed from the announced rank values, or from
    `oracle`'s when the announcement is incomplete (`wrong_clinch`); with
    `oracle`, every announced value is also checked against the committed
    rank function (`wrong_rank`). A first pass replays the demand lines
    alone for every round's active set, and one `rank_without_each_many`
    call ranks them all, one array pass for a laminar oracle; a round
    whose set fails the id checks is ranked on its own, so a bad id raises
    at its round as before.
    A log whose last round neither clears the market nor leaves the active
    set empty is unfinished (`missing_rank`). The oracle fixes the ground
    set, so with it every agent 0..n-1 needs an opening demand line, one
    before the first round (else `missing_rank`): an empty log is not a
    clean one. The chain catches a round edited, reordered or dropped
    after broadcast; an operator that chains a lie from the start is
    caught only by the replay.
    """
    events = _coerce_transcript(transcript)
    violations = []
    demands = {}
    clinched = defaultdict(float)
    head = commitment_root
    truths = _round_truths(events, oracle) if oracle is not None else []
    rounds = 0
    cleared = False
    # a field of the wrong type (a non-numeric price, an unhashable agent,
    # a non-list active set) fails its coercion; that is a malformed log
    try:
        for ev in events:
            if not isinstance(ev, dict) or "event" not in ev:
                raise StructureError(f"malformed event {ev!r}")
            kind = ev["event"]
            if kind == "demand":
                _require(ev, "agent", "demand")
                d = float(ev["demand"])
                if rounds and d > demands.get(ev["agent"], 0.0):
                    violations.append(
                        {
                            "kind": "wrong_clinch",
                            "round": rounds,
                            "agent": ev["agent"],
                            "expected_clinch": 0.0,
                            "announced_clinch": 0.0,
                            "note": "demand raised mid-auction",
                        }
                    )
                demands[ev["agent"]] = d
            elif kind == "round":
                _require(ev, *_ROUND_FIELDS)
                if not rounds:
                    violations += _missing_openings(demands, oracle)
                body = dict(ev)
                tag = body.pop("tag")
                if not isinstance(tag, str):
                    raise StructureError(f"round tag {tag!r} is not a string")
                if tag != _round_tag(head, body):
                    violations.append(
                        {"kind": "inauthentic_rank", "round": rounds, "price": ev["price"]}
                    )
                head = tag
                ranked = truths[rounds] if rounds < len(truths) else None
                cleared = _replay_round(ev, rounds, demands, clinched, oracle, violations, ranked)
                rounds += 1
            elif kind in ("price_step", "rank_announce"):
                raise StructureError(
                    f"{kind!r} events belong to the per-subset transcript format, "
                    "which is no longer read; rerun the auction to log round events"
                )
            else:
                raise StructureError(f"unknown event kind {kind!r}")
        if not rounds:
            violations += _missing_openings(demands, oracle)
        if not cleared and any(d > CLINCH_TOL for d in demands.values()):
            violations.append(
                {
                    "kind": "missing_rank",
                    "round": rounds,
                    "note": "the log ends before the auction does",
                }
            )
    except CredmarketError:
        raise
    except (TypeError, ValueError) as exc:
        raise StructureError(f"malformed transcript: {exc}") from exc
    return Verdict.from_violations(violations)


# ---- tamper fixtures: stored transcripts with a documented mutation


def _copy_transcript(transcript):
    return ClinchTranscript(
        commitment_root=transcript.commitment_root,
        events=copy.deepcopy(transcript.events),
    )


def _rounds(events):
    return [ev for ev in events if ev["event"] == "round"]


def _clinch_sites(events):
    # (round event, position in its clinch list) of every clinch, in order
    sites = [(ev, k) for ev in _rounds(events) for k in range(len(ev["clinches"]))]
    if not sites:
        raise DomainError("transcript has no clinches to tamper with")
    return sites


def tamper_inflate_clinch(transcript, factor=2.0, which=0):
    """Scale one recorded clinch quantity; the replay must flag it."""
    t = _copy_transcript(transcript)
    ev, k = _clinch_sites(t.events)[which]
    ev["clinches"][k][1] *= factor
    return t


def tamper_ghost_clinch(transcript, agent, qty=1.0, which=-1):
    """Insert a clinch for an agent the supply computation never justified."""
    t = _copy_transcript(transcript)
    ev, k = _clinch_sites(t.events)[which]
    ev["clinches"].insert(k + 1, [agent, qty])
    return t


def tamper_forge_rank(transcript, delta=1.0, which=0):
    """Alter one round's announced f(D) without recomputing its tag."""
    t = _copy_transcript(transcript)
    rounds = _rounds(t.events)
    if not rounds:
        raise DomainError("transcript has no rounds")
    rounds[which]["rank"] += delta
    return t


# --------------------------------------------------------------------------
# Deposit-backed recomputation on the token matroid


@dataclass
class DraState:
    """Commit / execute / verify ledger for one deposit-backed run."""

    commitment: str
    deposits: dict
    phase: str = "commit"
    slash_events: list = field(default_factory=list)

    def advance(self, phase):
        if PHASES.index(phase) <= PHASES.index(self.phase):
            raise ConfigError(f"phase cannot move {self.phase} -> {phase}")
        self.phase = phase

    def record_slash(self, agents, amount, detail):
        if self.phase != "verify":
            raise ConfigError("slashing is only allowed in the verify phase")
        self.slash_events.append(
            {"agents": sorted(agents), "amount": amount, "detail": detail}
        )
        self.deposits["operator"] -= amount

    @property
    def slashed_total(self):
        return sum(e["amount"] for e in self.slash_events)


def _matroid_oracle(matroid):
    if isinstance(matroid, Level1Matroid):
        return matroid.as_rank_oracle()
    if isinstance(matroid, RankOracle):
        # deposit-backed recomputation is only sound on unit-token markets:
        # reject any multi-unit or fractional feasibility up front
        for i in range(matroid.n):
            r = matroid.rank({i})
            if r > 1.0 + CLINCH_TOL or abs(r - round(r)) > CLINCH_TOL:
                raise MatroidBoundaryError(
                    "deposit-backed recomputation is not credible beyond "
                    f"unit-token feasibility: f({{{i}}}) = {r}",
                    witness=(i,),
                )
        if matroid.n <= 10:
            import itertools

            for s in (
                set(c)
                for r in range(2, matroid.n + 1)
                for c in itertools.combinations(range(matroid.n), r)
            ):
                r = matroid.rank(s)
                if abs(r - round(r)) > CLINCH_TOL:
                    raise MatroidBoundaryError(
                        f"fractional rank f({sorted(s)}) = {r} is outside the "
                        "token-matroid regime",
                        witness=tuple(sorted(s)),
                    )
        return matroid
    raise MatroidBoundaryError(
        f"cannot run deposit-backed recomputation on {type(matroid).__name__}"
    )


def _prior_bound(priors, n):
    if isinstance(priors, UniformPrior):
        return priors.hi
    if isinstance(priors, str):
        raise UnsupportedPriorError(
            f"{priors!r} is not strongly regular here; use uniform priors"
        )
    try:
        items = list(priors.values()) if isinstance(priors, dict) else list(priors)
    except TypeError:
        raise UnsupportedPriorError(
            "priors must be a uniform prior or a collection of them"
        )
    if len(items) not in (n, 1) or not items:
        raise ConfigError(f"expected 1 or {n} priors, got {len(items)}")
    for p in items:
        if not isinstance(p, UniformPrior):
            raise UnsupportedPriorError(
                f"{type(p).__name__} is not strongly regular here; use uniform priors"
            )
    return max(p.hi for p in items)


def run_dra(bids, matroid, priors, operator_deposit=None, operator_strategy=None):
    """Commit to the rule, let the operator execute, recompute and slash.

    The committed rule is greedy allocation with threshold payments on the
    token matroid. The operator may post a deviated outcome; verification
    recomputes the committed rule from the submitted bids and slashes the
    whole deposit on any per-agent mismatch. With the default deposit
    n * hi no implemented deviation nets positive: the gain is bounded by
    total bidder value, which the deposit dominates.
    """
    oracle = _matroid_oracle(matroid)
    n = oracle.n
    bids = [float(b) for b in bids]
    if len(bids) != n:
        raise DomainError(f"expected {n} bids, got {len(bids)}")
    hi = _prior_bound(priors, n)
    if operator_deposit is None:
        operator_deposit = n * hi
    # NaN fails the comparison, so one check rejects NaN, inf and negatives
    if not (_is_real(operator_deposit) and 0 <= operator_deposit < math.inf):
        raise ConfigError("operator deposit must be a nonnegative finite number")

    commitment = make_commitment(oracle, "greedy", "threshold")
    deposits = {str(i): bids[i] for i in range(n)}
    deposits["operator"] = float(operator_deposit)
    state = DraState(commitment=commitment, deposits=deposits)

    mech = Mechanism(payment_rule="vcg")
    state.advance("execute")
    committed = run_mechanism(oracle, bids, mech)
    if operator_strategy is None or (
        isinstance(operator_strategy, str) and operator_strategy == "identity"
    ):
        posted = committed
        gain = 0.0
    elif isinstance(operator_strategy, DeviationStrategy):
        result = apply_deviation(operator_strategy, bids, mech, oracle)
        posted = result.deviated
        gain = result.operator_surplus
    else:
        raise ConfigError(
            f"operator_strategy must be None, 'identity', or a DeviationStrategy, "
            f"got {type(operator_strategy).__name__}"
        )

    state.advance("verify")
    mismatched = [
        i
        for i in range(n)
        if abs(posted.allocation[i] - committed.allocation[i]) > CLINCH_TOL
        or abs(posted.payments[i] - committed.payments[i]) > CLINCH_TOL
    ]
    if mismatched:
        state.record_slash(
            mismatched,
            operator_deposit,
            {
                "posted_revenue": posted.revenue,
                "committed_revenue": committed.revenue,
            },
        )
    outcome = MarketOutcome(
        allocation=dict(posted.allocation),
        payments=dict(posted.payments),
        order=list(posted.order),
        rule=posted.rule,
        meta={
            "dra": True,
            "operator_gain": gain,
            "operator_net": gain - state.slashed_total,
        },
    )
    return outcome, state


# --------------------------------------------------------------------------
# Domain separation: fee operator and the knife edge


@dataclass
class FeeOperator:
    """Operator paid per delivered unit plus a stake share of payments."""

    fee_per_unit: float
    stake: float = 0.0

    def __post_init__(self):
        if not (_is_real(self.fee_per_unit) and 0 <= self.fee_per_unit < math.inf):
            raise ConfigError("fee per unit must be a nonnegative finite number")
        if not (_is_real(self.stake) and 0.0 <= self.stake <= 1.0):
            raise ConfigError("stake must be a number in [0, 1]")

    def revenue(self, outcome):
        delivered = sum(outcome.allocation.values())
        return self.fee_per_unit * delivered + self.stake * outcome.revenue


def fee_operator_surplus(op, deviation, oracle=None):
    """Operator gain from a deviation under fee-based settlement.

    Ghost allocations never enter the fee base: the deviated outcome
    carries real agents only, so a phantom that displaces delivered units
    shows up as a strictly negative fee component. Pure payment
    perturbations leave delivery untouched and earn exactly
    stake * increment.
    """
    if not isinstance(deviation, DeviationResult):
        raise DomainError("expected a DeviationResult")
    honest, deviated = deviation.honest, deviation.deviated
    if oracle is not None:
        cap = oracle.rank(set(range(oracle.n)))
        delivered = sum(honest.allocation.values())
        if delivered < cap - 1e-9:
            warnings.warn(
                CapacityNotBindingWarning(
                    f"honest delivery {delivered} is below capacity {cap}; "
                    "the case analysis assumes a binding instance"
                )
            )
    d_delivered = sum(deviated.allocation.values()) - sum(honest.allocation.values())
    d_payments = deviated.revenue - honest.revenue
    return op.fee_per_unit * d_delivered + op.stake * d_payments


def knife_edge_sweep(lambda_grid, instance, deviation):
    """Surplus of the fee operator across stake levels: exactly stake * eps.

    `instance` is (oracle, bids, mechanism); `deviation` either a strategy
    (applied to the instance) or a precomputed result. The deviation must
    leave delivery unchanged (a payment perturbation), so the per-unit fee
    cancels and the curve is linear through the origin.
    """
    oracle, bids, mechanism = instance
    if isinstance(deviation, DeviationStrategy):
        deviation = apply_deviation(deviation, bids, mechanism, oracle)
    if not isinstance(deviation, DeviationResult):
        raise DomainError("deviation must be a strategy or a result")
    d_delivered = sum(deviation.deviated.allocation.values()) - sum(
        deviation.honest.allocation.values()
    )
    if abs(d_delivered) > CLINCH_TOL:
        raise DomainError(
            "knife-edge sweep requires a delivery-preserving perturbation"
        )
    curve = []
    for lam in lambda_grid:
        op = FeeOperator(fee_per_unit=1.0, stake=float(lam))
        curve.append((float(lam), fee_operator_surplus(op, deviation)))
    return curve
