"""Three ways to make the operator's execution checkable.

1. Broadcast commitment: every demand message and rank announcement lands
   on a shared log; `verify_transcript` replays the clinching run from the
   log and flags any clinch the announced quantities do not justify.
2. Deposit-backed recomputation (token-matroid markets only): the operator
   commits to the rule, executes, and any per-agent mismatch against the
   committed rule's recomputation slashes the whole deposit.
3. Domain separation: the operator never touches agent payments, earning
   per-delivered-unit fees plus an optional stake share; its surplus from
   any payment perturbation is exactly stake * increment, pinning the
   knife edge at stake = 0.
"""

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
    rank_auth_tag,
    run_mechanism,
)
from .polymatroid import Level1Matroid, RankOracle

CLINCH_TOL = 1e-9
_is_int = int.__instancecheck__
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
    """Digest binding the rule pair and the rank oracle; the root that
    rank announcement tags are checked against."""
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


def verify_transcript(transcript, commitment_root, oracle=None):
    """Replay a clinching log against the commitment; list every mismatch.

    Demand messages are agent-attested and trusted; rank announcements must
    carry a tag matching `commitment_root`; clinch lines are recomputed
    from the announced quantities (or from `oracle` when given, which also
    cross-checks every announced rank value against the committed rank
    function). Segments are delimited by price steps, mirroring one clock
    round each.
    """
    events = _coerce_transcript(transcript)
    violations = []
    demands = {}
    clinched = defaultdict(float)
    price = None
    seen_price = False
    seg_ranks = {}
    seg_truth = {}
    seg_clinches = []

    def true_rank(subset):
        # the committed f(subset): one drop-one pass per segment over the
        # replayed active set, built on first use and keyed by subset,
        # serves every subset a clock round announces. A subset outside it,
        # or one with a non-int id (1.0 == 1 would match a key), goes to
        # oracle.rank, which rejects a bad id
        if not seg_truth:
            members = sorted(
                i
                for i, d in demands.items()
                if d > CLINCH_TOL and _is_int(i) and 0 <= i < oracle.n
            )
            full, drops = oracle.rank_without_each(members)
            seg_truth[frozenset(members)] = full
            for k, value in enumerate(drops):
                seg_truth[frozenset(members[:k] + members[k + 1 :])] = value
        value = seg_truth.get(subset)
        if value is None or not all(map(_is_int, subset)):
            return oracle.rank(subset)
        return value

    def lookup_rank(subset, p):
        key = frozenset(subset)
        if key in seg_ranks:
            return seg_ranks[key]
        violations.append(
            {"kind": "missing_rank", "price_step": p, "subset": sorted(subset)}
        )
        if oracle is not None:
            return true_rank(key)
        return None

    def flush_segment(p):
        # replay one clock round: per-agent supply takes, then the clearing
        # payout if aggregate demand fits inside the announced capacity
        if p is None:
            if seg_clinches:
                raise StructureError("clinch events before any price step")
            return
        active = {i for i, d in demands.items() if d > CLINCH_TOL}
        expected = defaultdict(float)
        f_active = lookup_rank(active, p) if (active or seg_clinches) else 0.0
        if f_active is not None and active:
            shadow = defaultdict(float, clinched)
            for i in sorted(active):
                f_wo = lookup_rank(active - {i}, p)
                if f_wo is None:
                    continue
                supply = f_active - f_wo
                take = max(0.0, min(demands[i], supply) - shadow[i])
                if take > 1e-12:
                    expected[i] += take
                    shadow[i] += take
            if sum(demands[i] for i in active) <= f_active + 1e-12:
                for i in sorted(active):
                    rest = demands[i] - shadow[i]
                    if rest > 1e-12:
                        expected[i] += rest
                        shadow[i] += rest
        announced = defaultdict(float)
        for agent, qty, cp in seg_clinches:
            announced[agent] += qty
            if abs(cp - p) > CLINCH_TOL:
                violations.append(
                    {
                        "kind": "wrong_clinch",
                        "price_step": p,
                        "agent": agent,
                        "expected_clinch": expected.get(agent, 0.0),
                        "announced_clinch": qty,
                        "note": f"clinch priced at {cp}, clock at {p}",
                    }
                )
        for agent in sorted(set(expected) | set(announced)):
            if abs(expected[agent] - announced[agent]) > 1e-9:
                violations.append(
                    {
                        "kind": "wrong_clinch",
                        "price_step": p,
                        "agent": agent,
                        "expected_clinch": expected[agent],
                        "announced_clinch": announced[agent],
                    }
                )
            clinched[agent] += expected[agent]
        seg_ranks.clear()
        seg_truth.clear()
        seg_clinches.clear()

    # a field of the wrong type (a non-numeric price, an unhashable agent or
    # subset element) fails its coercion; that is a malformed transcript
    try:
        for ev in events:
            if not isinstance(ev, dict) or "event" not in ev:
                raise StructureError(f"malformed event {ev!r}")
            kind = ev["event"]
            if kind == "price_step":
                _require(ev, "price")
                flush_segment(price)
                price = float(ev["price"])
                seen_price = True
            elif kind == "demand":
                _require(ev, "agent", "demand")
                if seen_price and float(ev["demand"]) > demands.get(ev["agent"], 0.0):
                    violations.append(
                        {
                            "kind": "wrong_clinch",
                            "price_step": price,
                            "agent": ev["agent"],
                            "expected_clinch": 0.0,
                            "announced_clinch": 0.0,
                            "note": "demand raised mid-auction",
                        }
                    )
                demands[ev["agent"]] = float(ev["demand"])
            elif kind == "rank_announce":
                _require(ev, "subset", "value", "auth_tag")
                subset = frozenset(ev["subset"])
                value = float(ev["value"])
                if ev["auth_tag"] != rank_auth_tag(commitment_root, subset, ev["value"]):
                    violations.append(
                        {"kind": "inauthentic_rank", "subset": sorted(subset)}
                    )
                elif oracle is not None:
                    recomputed = true_rank(subset)
                    if abs(recomputed - value) > CLINCH_TOL:
                        violations.append(
                            {
                                "kind": "wrong_rank",
                                "subset": sorted(subset),
                                "announced": value,
                                "recomputed": recomputed,
                            }
                        )
                seg_ranks[subset] = value
            elif kind == "clinch":
                _require(ev, "agent", "qty", "price")
                seg_clinches.append((ev["agent"], float(ev["qty"]), float(ev["price"])))
            else:
                raise StructureError(f"unknown event kind {kind!r}")
        flush_segment(price)
    except CredmarketError:
        raise
    except (TypeError, ValueError) as exc:
        raise StructureError(f"malformed transcript: {exc}") from exc
    return Verdict.from_violations(violations)


# ---- tamper fixtures: stored transcripts with a documented mutation


def _copy_transcript(transcript):
    t = ClinchTranscript(commitment_root=transcript.commitment_root)
    t.events = [dict(e) for e in transcript.events]
    return t


def _clinch_indices(events):
    idx = [k for k, e in enumerate(events) if e["event"] == "clinch"]
    if not idx:
        raise DomainError("transcript has no clinch events to tamper with")
    return idx


def tamper_inflate_clinch(transcript, factor=2.0, which=0):
    """Scale one recorded clinch quantity; the replay must flag it."""
    t = _copy_transcript(transcript)
    k = _clinch_indices(t.events)[which]
    t.events[k]["qty"] = t.events[k]["qty"] * factor
    return t

def tamper_ghost_clinch(transcript, agent, qty=1.0, which=-1):
    """Insert a clinch for an agent the supply computation never justified."""
    t = _copy_transcript(transcript)
    k = _clinch_indices(t.events)[which]
    price = t.events[k]["price"]
    t.events.insert(k + 1, {"event": "clinch", "agent": agent, "qty": qty, "price": price})
    return t


def tamper_forge_rank(transcript, delta=1.0, which=0):
    """Alter an announced rank value without recomputing its tag."""
    t = _copy_transcript(transcript)
    idx = [k for k, e in enumerate(t.events) if e["event"] == "rank_announce"]
    if not idx:
        raise DomainError("transcript has no rank announcements")
    k = idx[which]
    t.events[k]["value"] = t.events[k]["value"] + delta
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
    if operator_deposit < 0:
        raise ConfigError("operator deposit must be nonnegative")

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
        if self.fee_per_unit < 0:
            raise ConfigError("fee per unit must be nonnegative")
        if not 0.0 <= self.stake <= 1.0:
            raise ConfigError("stake must lie in [0, 1]")

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
