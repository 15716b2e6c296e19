"""Operator deviations: profitability, exactness, per-agent rationalizability."""

import math

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import given, settings
from hypothesis import strategies as st

import credmarket.adversary

from credmarket.adversary import (
    AgentObservation,
    DeviationStrategy,
    apply_deviation,
    check_safe_deviation,
    construct_perturbation,
    walrasian_gap,
)
from credmarket.errors import (
    ConfigError,
    DomainError,
    NoDeviationError,
    NoWindowError,
)
from credmarket.mechanisms import Mechanism, UniformPrior
from credmarket.polymatroid import LaminarOracle, TableOracle, pair_gap

from conftest import clone_splice_posted, random_bids, random_table_oracle, unshared_worlds

WORKED = TableOracle(2, {(): 0.0, (0,): 2.0, (1,): 2.0, (0, 1): 3.0})
VCG = Mechanism(payment_rule="vcg")


# --------------------------------------------------------------------------
# Perturbation construction


def test_worked_example_perturbation():
    strategy = construct_perturbation([10.0, 5.0], WORKED, epsilon_target=1.0)
    assert strategy.pair == (0, 1)
    assert strategy.delta == pytest.approx(1.0)
    result = apply_deviation(strategy, [10.0, 5.0], VCG, WORKED)
    assert result.honest.payments[0] == pytest.approx(5.0, abs=1e-9)
    assert result.deviated.payments[0] == pytest.approx(6.0, abs=1e-9)
    assert result.operator_surplus == pytest.approx(1.0, abs=1e-9)


def test_perturbation_surplus_is_delta_times_gamma(rng):
    hits = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        demands = rng.integers(1, 4, size=n).astype(float)
        cap = float(max(1, int(demands.sum()) - int(rng.integers(1, 4))))
        oracle = LaminarOracle(demands, [0] * n, [cap])
        bids = random_bids(rng, n)
        try:
            strategy = construct_perturbation(bids, oracle)
        except (NoWindowError, NoDeviationError):
            continue
        i, j = strategy.pair
        gamma = pair_gap(oracle, i, j)
        result = apply_deviation(strategy, bids, VCG, oracle)
        assert result.operator_surplus == pytest.approx(
            strategy.delta * gamma, abs=1e-9
        )
        assert result.deviated.allocation == result.honest.allocation
        hits += 1
    assert hits >= 10  # the generator must actually exercise the arm


def test_perturbation_certificates_all_safe():
    strategy = construct_perturbation([10.0, 5.0], WORKED)
    result = apply_deviation(strategy, [10.0, 5.0], VCG, WORKED)
    assert all(result.undetectable.values())
    assert all(result.verify_certificates(VCG, WORKED).values())


def test_no_window_on_ties():
    with pytest.raises(NoWindowError):
        construct_perturbation([5.0, 5.0], WORKED)
    with pytest.raises(NoWindowError):
        construct_perturbation([5.0], TableOracle(1, {(): 0.0, (0,): 1.0}))


def test_no_deviation_when_pair_is_modular():
    modular = TableOracle(2, {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 2.0})
    with pytest.raises(NoDeviationError):
        construct_perturbation([10.0, 5.0], modular)


def test_delta_outside_window_rejected():
    strategy = DeviationStrategy(kind="payment_perturb", pair=(0, 1), delta=6.0)
    with pytest.raises(DomainError):
        apply_deviation(strategy, [10.0, 5.0], VCG, WORKED)


def test_walrasian_gap_basics():
    assert walrasian_gap([10.0, 5.0], (0, 1)) == pytest.approx(5.0)
    with pytest.raises(NoWindowError):
        walrasian_gap([5.0, 5.0], (0, 1))


# --------------------------------------------------------------------------
# Ghost bids


def test_ghost_bid_profitable_and_certified():
    # two agents sharing one unit behind a common bottleneck
    oracle = LaminarOracle([1.0, 1.0], [0, 0], [1.0])
    strategy = DeviationStrategy(kind="ghost_bid", source=1, level=8.0)
    result = apply_deviation(strategy, [10.0, 5.0], VCG, oracle)
    # honest second price 5; phantom lifts the winner's threshold to 8
    assert result.honest.payments[0] == pytest.approx(5.0, abs=1e-9)
    assert result.deviated.payments[0] == pytest.approx(8.0, abs=1e-9)
    assert result.operator_surplus == pytest.approx(3.0, abs=1e-9)
    assert result.ghost["source"] == 1
    assert result.ghost["undelivered"] == pytest.approx(0.0, abs=1e-9)
    assert all(result.undetectable.values())
    assert all(result.verify_certificates(VCG, oracle).values())


def test_ghost_bid_displacement_goes_undelivered():
    oracle = LaminarOracle([1.0, 1.0], [0, 0], [2.0])
    strategy = DeviationStrategy(kind="ghost_bid", source=1, level=7.0)
    result = apply_deviation(strategy, [10.0, 5.0], VCG, oracle)
    # the phantom displaces the source's own unit: undelivered capacity
    assert result.deviated.allocation[1] == pytest.approx(0.0, abs=1e-9)
    assert result.ghost["undelivered"] == pytest.approx(1.0, abs=1e-9)
    welfare_h = result.honest.welfare([10.0, 5.0])
    welfare_d = result.deviated.welfare([10.0, 5.0])
    assert welfare_d < welfare_h


def test_ghost_deviated_outcome_holds_real_agents_only():
    oracle = LaminarOracle([1.0, 1.0, 1.0], [0, 0, 1], [2.0, 1.0])
    strategy = DeviationStrategy(kind="ghost_bid", source=0, level=4.0)
    result = apply_deviation(strategy, [6.0, 5.0, 3.0], VCG, oracle)
    assert set(result.deviated.allocation) == {0, 1, 2}
    assert set(result.deviated.payments) == {0, 1, 2}


def test_posted_ghost_leaves_zero_bidders_served():
    # at price 0 every agent, zero bidders included, is served honestly;
    # a phantom fronting agent 1 must not touch agent 0's outcome
    oracle = LaminarOracle([1.0, 1.0, 1.0], [0, 0, 0], [3.0])
    mech = Mechanism(payment_rule="posted_price", posted_price=0.0)
    strategy = DeviationStrategy(kind="ghost_bid", source=1, level=2.5)
    result = apply_deviation(strategy, [0.0, 2.0, 3.0], mech, oracle)
    assert result.deviated.allocation[0] == result.honest.allocation[0] == 1.0
    assert result.deviated.payments[0] == result.honest.payments[0]
    assert result.undetectable[0]
    assert result.deviated.allocation[1] == 0.0
    assert result.ghost["undelivered"] == 1.0


@pytest.mark.parametrize("phantom_level", [6.5, 2.0], ids=["above-price", "below-price"])
def test_posted_ghost_is_the_clone_splice(rng, phantom_level):
    # the phantom's posted world is one pass with its source lifted; the
    # reference runs the clone on `SubstituteCloneOracle`, arriving just
    # ahead of its source in the honest arrival order
    mech = Mechanism(payment_rule="posted_price", posted_price=4.0)
    takes = 0.0
    for trial in range(30):
        n = int(rng.integers(2, 7))
        demands = rng.integers(0, 5, size=n).astype(float)
        group_of = rng.integers(0, 2, size=n)
        oracle = LaminarOracle(demands, group_of, rng.integers(1, 8, size=2).astype(float))
        bids = [float(b) for b in rng.choice([0.0, 2.0, 4.0, 5.5, 9.0], size=n)]
        source = int(rng.integers(0, n))
        strategy = DeviationStrategy(kind="ghost_bid", source=source, level=phantom_level)
        result = apply_deviation(strategy, bids, mech, oracle, seed=trial)
        alloc, take = clone_splice_posted(oracle, bids, 4.0, result.honest.order, source, phantom_level)
        assert repr(result.deviated.allocation) == repr(alloc)
        assert repr(result.deviated.payments) == repr({i: 4.0 * x for i, x in alloc.items()})
        assert repr(result.ghost["undelivered"]) == repr(take)
        assert result.deviated.order == result.honest.order
        takes += take
    # the phantom buys above the price and never below it
    assert (takes > 0) == (phantom_level >= 4.0)


# --------------------------------------------------------------------------
# Detectable strategies


def test_posted_inflator_is_detectable():
    mech = Mechanism(payment_rule="posted_price", posted_price=4.0)
    strategy = DeviationStrategy(kind="posted_price_inflate", markup=0.1)
    result = apply_deviation(strategy, [10.0, 5.0], mech, WORKED)
    served = [i for i, x in result.deviated.allocation.items() if x > 0]
    assert served
    assert not any(result.undetectable[i] for i in served)
    assert result.operator_surplus == pytest.approx(
        0.1 * result.honest.revenue, abs=1e-9
    )


def test_inflator_at_price_zero_is_undetectable():
    # a markup on a price of 0 charges 0: every served agent sees the
    # honest payment, and its certificate replays to what it saw
    mech = Mechanism(payment_rule="posted_price", posted_price=0.0)
    strategy = DeviationStrategy(kind="posted_price_inflate", markup=0.1)
    result = apply_deviation(strategy, [10.0, 5.0], mech, WORKED)
    assert [i for i, x in result.deviated.allocation.items() if x > 0] == [0, 1]
    assert all(result.undetectable.values())
    assert all(result.verify_certificates(mech, WORKED).values())


@pytest.mark.parametrize("markup", [math.nan, math.inf, 0.0, -0.1, "0.1", True])
def test_inflator_markup_must_be_finite_and_positive(markup):
    # a NaN (inf) markup would make every payment and the surplus NaN (inf)
    with pytest.raises(ConfigError):
        DeviationStrategy(kind="posted_price_inflate", markup=markup)


def test_inflator_requires_posted_rule():
    strategy = DeviationStrategy(kind="posted_price_inflate", markup=0.1)
    with pytest.raises(ConfigError):
        apply_deviation(strategy, [10.0, 5.0], VCG, WORKED)


def test_capacity_misreport_squeezes_and_flags():
    oracle = LaminarOracle([2.0, 2.0], [0, 0], [4.0])
    strategy = DeviationStrategy(kind="capacity_misreport", shrink_factor=0.5)
    result = apply_deviation(strategy, [10.0, 5.0], VCG, oracle)
    assert result.deviated.allocation[1] < result.honest.allocation[1]


# --------------------------------------------------------------------------
# Agent-side safety checker


def test_checker_flags_ir_violation():
    obs = AgentObservation(agent=0, own_bid=5.0, own_allocation=1.0, own_payment=6.0)
    safe, cert = check_safe_deviation(obs, VCG, WORKED, prior=None)
    assert not safe and cert["flag"] == "ir"


def test_checker_flags_posted_price_mismatch():
    mech = Mechanism(payment_rule="posted_price", posted_price=4.0)
    obs = AgentObservation(agent=0, own_bid=5.0, own_allocation=1.0, own_payment=4.4)
    safe, cert = check_safe_deviation(obs, mech, WORKED, prior=None)
    assert not safe and cert["flag"] == "price"


def test_checker_certifies_honest_observation():
    out = apply_deviation(
        DeviationStrategy(kind="identity"), [10.0, 5.0], VCG, WORKED
    ).honest
    obs = AgentObservation.from_outcome(out, [10.0, 5.0], 0)
    safe, cert = check_safe_deviation(
        obs, VCG, WORKED, prior=UniformPrior(1.0, 11.0), hint=[10.0, 5.0]
    )
    assert safe
    assert cert.matches(obs, VCG, WORKED)


def test_checker_uses_hint_for_ghost_world():
    oracle = LaminarOracle([1.0, 1.0], [0, 0], [1.0])
    strategy = DeviationStrategy(kind="ghost_bid", source=1, level=8.0)
    result = apply_deviation(strategy, [10.0, 5.0], VCG, oracle)
    obs = result.observation(0)
    hint = [10.0, 8.0]  # source lifted to the phantom level
    safe, cert = check_safe_deviation(
        obs, VCG, oracle, prior=UniformPrior(1.0, 11.0), hint=hint
    )
    assert safe


POSTED = Mechanism(payment_rule="posted_price", posted_price=4.0)
FREE = Mechanism(payment_rule="posted_price", posted_price=0.0)
EVERY_KIND = [
    (DeviationStrategy(kind="identity"), VCG),
    (DeviationStrategy(kind="ghost_bid", source=1, level=7.0), VCG),
    (DeviationStrategy(kind="payment_perturb", pair=(0, 1), delta=1.0), VCG),
    (DeviationStrategy(kind="capacity_misreport", shrink_factor=0.5), VCG),
    (DeviationStrategy(kind="posted_price_inflate", markup=0.1), POSTED),
    (DeviationStrategy(kind="posted_price_inflate", markup=0.1), FREE),
    (DeviationStrategy(kind="discriminate", favored_set={2}), VCG),
]


@pytest.mark.parametrize(
    "strategy, mechanism", EVERY_KIND, ids=[s.kind + ("@0" if m is FREE else "") for s, m in EVERY_KIND]
)
def test_undetectable_iff_certified(strategy, mechanism):
    oracle = LaminarOracle([1.0, 1.0, 1.0], [0, 0, 0], [2.0])
    result = apply_deviation(strategy, [10.0, 5.0, 3.0], mechanism, oracle)
    assert set(result.undetectable) == set(result.certificates) == {0, 1, 2}
    for i, cert in result.certificates.items():
        assert result.undetectable[i] == (cert is not None)
        # every certificate returned has been replayed: it reproduces
        # what its agent saw
        if cert is not None:
            assert cert.agent == i
            assert cert.matches(result.observation(i), mechanism, oracle)
        # an agent that sees just what honest execution shows it holds the
        # honest profile as a certificate
        if _sees_honest(result, i):
            assert result.undetectable[i]


def _sees_honest(result, i):
    honest, seen = result.honest, result.deviated
    return (honest.allocation[i], honest.payments[i]) == (seen.allocation[i], seen.payments[i])


@given(seed=st.integers(0, 5_000))
@settings(max_examples=40, deadline=None)
def test_certificate_replay_is_exact(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    oracle = random_table_oracle(rng, n)
    bids = random_bids(rng, n)
    result = apply_deviation(DeviationStrategy(kind="identity"), bids, VCG, oracle)
    for i in range(n):
        cert = result.certificates[i]
        obs = result.observation(i)
        assert cert.matches(obs, VCG, oracle)


def _bits(bids):
    return tuple(float(b).hex() for b in bids)


@given(
    seed=st.integers(0, 5_000),
    kind=st.sampled_from(["ghost_bid", "payment_perturb"]),
    rule=st.sampled_from(["vcg", "myerson", "first_price"]),
    place=st.sampled_from(["auto", "below", "top", "tie"]),
)
@settings(max_examples=120, deadline=None)
def test_certificate_replays_run_each_world_once(seed, kind, rule, place):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    if rng.integers(2):
        oracle = random_table_oracle(rng, n)
    else:  # a binding root: every rule takes the generic route
        oracle = LaminarOracle(rng.integers(1, 4, size=n).tolist(), [0] * n, [9.0], root_cap=2.0)
    bids = [float(b) for b in rng.integers(1, 9, size=n) / 2.0]  # ties are common
    mechanism = Mechanism(payment_rule=rule, prior=UniformPrior(0.0, 8.0))
    if kind == "payment_perturb":
        try:
            strategy = construct_perturbation(bids, oracle)
        except (NoWindowError, NoDeviationError):
            assume(False)
    else:
        top = max(bids)
        level = {"auto": None, "below": top / 2.0, "top": top + 1.0, "tie": top}[place]
        strategy = DeviationStrategy(kind="ghost_bid", level=level)

    with unshared_worlds():
        want = apply_deviation(strategy, bids, mechanism, oracle)
    worlds = []
    run = credmarket.adversary.run_mechanism

    def logged(world_oracle, profile, *args, **kwargs):
        source = getattr(world_oracle, "position_agent", None)
        worlds.append((source, _bits(profile)))
        return run(world_oracle, profile, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(credmarket.adversary, "run_mechanism", logged)
        got = apply_deviation(strategy, bids, mechanism, oracle)

    for side in ("honest", "deviated"):
        a, b = getattr(got, side), getattr(want, side)
        assert repr(a.allocation) == repr(b.allocation) and repr(a.payments) == repr(b.payments)
    assert got.certificates == want.certificates
    assert got.undetectable == want.undetectable
    assert got.ghost == want.ghost
    # one run per world; the phantom's world is the one exception: the
    # operator runs it on its clone oracle, and the source's entrant
    # certificate replays it on a clone oracle of its own
    repeats = [w for w in set(worlds) if worlds.count(w) > 1]
    if kind == "ghost_bid" and repeats:
        ghost = got.ghost
        assert repeats == [(ghost["source"], _bits(bids + [ghost["level"]]))]
        assert worlds.count(repeats[0]) == 2
    else:
        assert repeats == []


def test_strategy_validation():
    with pytest.raises(ConfigError):
        DeviationStrategy(kind="mind_control")
    with pytest.raises(ConfigError):
        DeviationStrategy(kind="payment_perturb", pair=(0,), delta=1.0)
    with pytest.raises(ConfigError):
        DeviationStrategy(kind="payment_perturb", pair=(0, 1), delta=0.0)
    with pytest.raises(ConfigError):
        DeviationStrategy(kind="capacity_misreport", shrink_factor=1.5)
    with pytest.raises(ConfigError):
        DeviationStrategy(kind="capacity_misreport", shrink_factor="0.5")
    with pytest.raises(ConfigError):
        DeviationStrategy(kind="discriminate", favored_set=frozenset())


# --------------------------------------------------------------------------
# Bad agent ids fail with DomainError, bad fields with ConfigError

FOUR = LaminarOracle([1.0] * 4, [0] * 4, [2.0])
FOUR_BIDS = [10.0, 5.0, 3.0, 1.0]


@pytest.mark.parametrize("pair", [(0, 7), (0, 1.5), (-1, 0)])
def test_perturb_pair_off_the_ground_set(pair):
    strategy = DeviationStrategy(kind="payment_perturb", pair=pair, delta=0.5)
    with pytest.raises(DomainError, match="ground set"):
        apply_deviation(strategy, FOUR_BIDS, VCG, FOUR)


def test_walrasian_gap_pair_off_the_ground_set():
    with pytest.raises(DomainError, match="ground set"):
        walrasian_gap(FOUR_BIDS, (0, 5))


@pytest.mark.parametrize("favored", [{9}, {-1}, {1.5}])
def test_discriminate_favored_off_the_ground_set(favored):
    strategy = DeviationStrategy(kind="discriminate", favored_set=favored)
    with pytest.raises(DomainError, match="ground set"):
        apply_deviation(strategy, FOUR_BIDS, VCG, FOUR)


@pytest.mark.parametrize("source", [4, -1, 1.5, "1"])
def test_ghost_source_off_the_ground_set(source):
    strategy = DeviationStrategy(kind="ghost_bid", source=source, level=7.0)
    with pytest.raises(DomainError, match="ground set"):
        apply_deviation(strategy, FOUR_BIDS, VCG, FOUR)


@pytest.mark.parametrize("fields", [
    {"kind": "payment_perturb", "pair": (0, 1), "delta": "1"},
    {"kind": "payment_perturb", "pair": (0, 1), "delta": math.nan},
    {"kind": "payment_perturb", "pair": 5, "delta": 1.0},
    {"kind": "ghost_bid", "level": "7"},
    {"kind": "ghost_bid", "level": math.inf},
    {"kind": "ghost_bid", "level": -1.0},
    {"kind": "discriminate", "favored_set": 2},
    {"kind": "discriminate", "favored_set": [[1]]},
])
def test_malformed_strategy_fields_are_config_errors(fields):
    with pytest.raises(ConfigError):
        DeviationStrategy(**fields)
