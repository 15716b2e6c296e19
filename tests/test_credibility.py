"""Credibility devices: broadcast audit, deposit-backed recomputation, fees."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credmarket.adversary import DeviationStrategy, apply_deviation
from credmarket.credibility import (
    DraState,
    FeeOperator,
    fee_operator_surplus,
    knife_edge_sweep,
    make_commitment,
    run_dra,
    tamper_forge_rank,
    tamper_ghost_clinch,
    tamper_inflate_clinch,
    verify_transcript,
)
from credmarket.errors import (
    CapacityNotBindingWarning,
    ConfigError,
    DomainError,
    MatroidBoundaryError,
    StructureError,
    UnsupportedPriorError,
)
from credmarket.mechanisms import (
    ClinchTranscript,
    Mechanism,
    UniformPrior,
    clinching_auction,
)
from credmarket.polymatroid import (
    LaminarOracle,
    Level1Matroid,
    SubstituteCloneOracle,
    TableOracle,
)

from conftest import random_bids, random_table_oracle, rechain

WORKED = TableOracle(2, {(): 0.0, (0,): 2.0, (1,): 2.0, (0, 1): 3.0})


def run_with_transcript(oracle, values):
    root = make_commitment(oracle, "clinching", "clinch_pay")
    t = ClinchTranscript(commitment_root=root)
    out = clinching_auction(oracle, values, transcript=t)
    return root, t, out


# --------------------------------------------------------------------------
# Broadcast transcript verification


def test_honest_transcripts_verify_clean(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        oracle = random_table_oracle(rng, n)
        values = random_bids(rng, n)
        root, t, _ = run_with_transcript(oracle, values)
        verdict = verify_transcript(t, root, oracle=oracle)
        assert verdict.consistent, verdict.violations[:3]


@st.composite
def clinching_markets(draw):
    """(oracle, values) over a random table, laminar or clone oracle, with
    zero values and exact value ties among the draws."""
    kind = draw(st.sampled_from(("table", "laminar", "clone")))
    n = draw(st.integers(1, 6 if kind != "table" else 4))
    if kind == "table":
        oracle = random_table_oracle(np.random.default_rng(draw(st.integers(0, 10_000))), n)
    else:
        groups = draw(st.integers(1, n))
        oracle = LaminarOracle(
            draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, groups - 1), min_size=n, max_size=n)),
            draw(st.lists(st.integers(1, 4), min_size=groups, max_size=groups)),
            root_cap=draw(st.sampled_from((math.inf, 1.0, 3.0))),
        )
        if kind == "clone":
            oracle = SubstituteCloneOracle(oracle, draw(st.integers(0, n - 1)))
    levels = st.sampled_from((0.0, 1.0, 2.5, 2.5, 4.0, 7.25))
    values = draw(st.lists(levels, min_size=oracle.n, max_size=oracle.n))
    return oracle, values


@given(clinching_markets())
@settings(max_examples=150, deadline=None)
def test_honest_transcripts_replay_clean_on_every_evaluator(market):
    oracle, values = market
    root, t, _ = run_with_transcript(oracle, values)
    assert verify_transcript(t, root, oracle=oracle).consistent
    assert verify_transcript(t.to_json(), root).consistent


def test_inflated_clinch_is_flagged():
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    bad = tamper_inflate_clinch(t, factor=2.0)
    verdict = verify_transcript(bad, root)
    assert not verdict.consistent
    assert any(v["kind"] == "wrong_clinch" for v in verdict.violations)
    # chained over by the operator, the lie still fails the replay
    assert {v["kind"] for v in verify_transcript(rechain(bad), root).violations} == {
        "wrong_clinch"
    }


def test_ghost_clinch_is_flagged():
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    bad = tamper_ghost_clinch(t, agent=1, qty=0.5)
    verdict = verify_transcript(bad, root)
    assert not verdict.consistent
    assert any(v["kind"] == "wrong_clinch" for v in verdict.violations)
    assert {v["kind"] for v in verify_transcript(rechain(bad), root).violations} == {
        "wrong_clinch"
    }


def test_forged_rank_value_breaks_the_tag():
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    bad = tamper_forge_rank(t, delta=1.0)
    verdict = verify_transcript(bad, root)
    assert not verdict.consistent
    assert any(v["kind"] == "inauthentic_rank" for v in verdict.violations)


def test_retagged_forgery_needs_the_oracle():
    # an operator that chains its tags over a lie defeats the tag check but
    # not a verifier holding the committed rank function. Forging the last
    # round's f(D) upward leaves every clinch as it was: only the oracle
    # check sees it
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    bad = rechain(tamper_forge_rank(t, delta=1.0, which=-1))
    assert verify_transcript(bad, root).consistent
    verdict = verify_transcript(bad, root, oracle=WORKED)
    assert not verdict.consistent
    assert {v["kind"] for v in verdict.violations} == {"wrong_rank"}
    # forged in the first round, the lie moves the clinches too
    bad = rechain(tamper_forge_rank(t, delta=1.0, which=0))
    kinds = {v["kind"] for v in verify_transcript(bad, root, oracle=WORKED).violations}
    assert kinds == {"wrong_rank", "wrong_clinch"}


def test_oracle_needs_an_opening_demand_line_per_agent():
    # the committed oracle fixes the ground set: an empty log, or one that
    # withholds an agent's opening line, does not verify clean with it
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    empty = ClinchTranscript(commitment_root=root)
    assert verify_transcript(empty, root).consistent
    verdict = verify_transcript(empty, root, oracle=WORKED)
    assert [(v["kind"], v["agent"]) for v in verdict.violations] == [
        ("missing_rank", 0),
        ("missing_rank", 1),
    ]
    first = next(k for k, e in enumerate(t.events) if e["event"] == "demand" and e["agent"] == 1)
    withheld = ClinchTranscript(commitment_root=root, events=t.events[:first] + t.events[first + 1 :])
    missing = [
        v for v in verify_transcript(withheld, root, oracle=WORKED).violations
        if v.get("note") == "no opening demand line"
    ]
    assert [v["agent"] for v in missing] == [1]
    # a line that arrives only after the first round does not open the agent
    late = ClinchTranscript(commitment_root=root, events=[*withheld.events, t.events[first]])
    kinds = [v.get("agent") for v in verify_transcript(late, root, oracle=WORKED).violations
             if v.get("note") == "no opening demand line"]
    assert kinds == [1]


def test_replay_sells_the_clearing_rest():
    # under these chained values no supply covers a demand, yet the demands
    # fit f(D): the clinching rule sells each rest at the clock price. An
    # honest flat-demand run never gets here (each supply then already
    # covers its demand), so only a log like this one reaches the rule
    t = ClinchTranscript(commitment_root="root")
    t.demand(0, 2.0)
    t.demand(1, 2.0)
    t.round(0.0, [0, 1], 4.0, [4.0, 4.0], [[0, 2.0], [1, 2.0]])
    assert verify_transcript(t, "root").consistent
    unsold = ClinchTranscript(commitment_root="root", events=t.events[:2])
    unsold.round(0.0, [0, 1], 4.0, [4.0, 4.0], [])
    kinds = [v["kind"] for v in verify_transcript(unsold, "root").violations]
    assert kinds == ["wrong_clinch", "wrong_clinch"]


@pytest.mark.parametrize("bad", [1.0, True, 2, -1])
def test_oracle_replay_rejects_ids_rank_rejects(bad):
    # a round naming a non-id, chained over, is an incomplete announcement:
    # 1.0 and True are not folded into agent 1
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    first = next(e for e in t.events if e["event"] == "round")
    first["active"] = [0, bad]
    t = rechain(t)
    for oracle in (None, WORKED):
        verdict = verify_transcript(t, root, oracle=oracle)
        assert [v["kind"] for v in verdict.violations][:1] == ["missing_rank"]


#: three agents, three clock rounds: 0 and 4.0 and 6.0
THREE = TableOracle(
    3,
    {
        (): 0.0, (0,): 2.0, (1,): 2.0, (2,): 1.0,
        (0, 1): 3.0, (0, 2): 3.0, (1, 2): 3.0, (0, 1, 2): 4.0,
    },
)


def _three_round_log():
    root, t, _ = run_with_transcript(THREE, [9.0, 6.0, 4.0])
    kinds = [e["event"] for e in t.events]
    assert kinds == ["demand"] * 3 + ["round", "demand", "round", "demand", "round"]
    assert verify_transcript(t, root, oracle=THREE).consistent
    return root, t


@pytest.mark.parametrize(
    "edit, kind",
    [
        pytest.param(lambda ev: ev[:5] + [ev[7], ev[6], ev[5]], "inauthentic_rank",
                     id="rounds-swapped"),
        pytest.param(lambda ev: ev[:5] + ev[6:], "inauthentic_rank", id="middle-round-omitted"),
        # a cut tail keeps every link it has: the unfinished auction shows
        pytest.param(lambda ev: ev[:7], "missing_rank", id="tail-truncated"),
        # the next round lists an active set the demands do not give
        pytest.param(lambda ev: ev[:4] + ev[5:], "missing_rank", id="leaver-demand-withheld"),
    ],
)
def test_reordered_or_cut_logs_are_flagged(edit, kind):
    root, t = _three_round_log()
    t.events = edit(t.events)
    for oracle in (None, THREE):
        verdict = verify_transcript(t, root, oracle=oracle)
        assert kind in {v["kind"] for v in verdict.violations}


def test_truncated_log_is_flagged_when_chained_over():
    root, t = _three_round_log()
    t.events = t.events[:5]  # the first round and its leaver's demand
    verdict = verify_transcript(rechain(t), root)
    assert [v["kind"] for v in verdict.violations] == ["missing_rank"]


def test_verify_accepts_json_and_dict_forms():
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    as_dict = {"commitment_root": root, "events": t.events}
    assert verify_transcript(as_dict, root).consistent
    assert verify_transcript(json.dumps(as_dict), root).consistent


def _one_round(**fields):
    event = {"event": "round", "price": 0.0, "active": [0], "rank": 1.0, "drops": [0.0],
             "clinches": [], "tag": "x"}
    return {"events": [{"event": "demand", "agent": 0, "demand": 1.0}, {**event, **fields}]}


def test_malformed_transcript_raises():
    with pytest.raises(StructureError):
        verify_transcript({"events": [{"event": "teleport"}]}, "root")
    with pytest.raises(StructureError):
        verify_transcript({"events": [{"event": "demand", "agent": 0}]}, "root")
    with pytest.raises(StructureError):
        verify_transcript(42, "root")
    # the per-subset format is no longer read
    with pytest.raises(StructureError):
        verify_transcript({"events": [{"event": "price_step", "price": "abc"}]}, "root")
    with pytest.raises(StructureError):
        verify_transcript(
            {"events": [{"event": "rank_announce", "subset": [[0]], "value": 1.0,
                         "auth_tag": "x"}]},
            "root",
        )
    # a field that fails its coercion is malformed too
    for fields in ({"price": "abc"}, {"active": 5}, {"drops": None}, {"drops": "0"},
                   {"clinches": [[0]]}, {"tag": 7}):
        with pytest.raises(StructureError):
            verify_transcript(_one_round(**fields), "root")
    bare = _one_round()
    del bare["events"][1]["drops"]
    with pytest.raises(StructureError):
        verify_transcript(bare, "root")


def test_commitment_tracks_oracle_content():
    other = TableOracle(2, {(): 0.0, (0,): 2.0, (1,): 2.0, (0, 1): 4.0})
    assert make_commitment(WORKED) == make_commitment(WORKED)
    assert make_commitment(WORKED) != make_commitment(other)
    assert make_commitment(WORKED) != make_commitment(WORKED, payment_rule="vcg")


# --------------------------------------------------------------------------
# Deferred-revelation auction


def token_matroid():
    return Level1Matroid([1, 1], {0: {0}, 1: {0, 1}, 2: {1}})


def test_dra_honest_run_keeps_deposits():
    outcome, state = run_dra([9.0, 6.0, 3.0], token_matroid(), UniformPrior(1.0, 11.0))
    assert state.phase == "verify"
    assert not state.slash_events
    assert state.slashed_total == 0.0
    assert outcome.meta["operator_gain"] == pytest.approx(0.0)
    assert outcome.meta["operator_net"] == pytest.approx(0.0)


def test_dra_ghost_operator_is_slashed_to_a_loss():
    strategy = DeviationStrategy(kind="ghost_bid", source=2, level=8.0)
    outcome, state = run_dra(
        [9.0, 6.0, 3.0], token_matroid(), UniformPrior(1.0, 11.0),
        operator_strategy=strategy,
    )
    assert state.slash_events
    assert state.slashed_total > 0
    assert outcome.meta["operator_net"] < 0
    assert state.deposits["operator"] <= 0.0 + 1e-9


def test_dra_default_deposit_scales_with_stakes():
    _, state = run_dra([9.0, 6.0, 3.0], token_matroid(), UniformPrior(1.0, 11.0))
    assert state.deposits["operator"] == pytest.approx(3 * 11.0)


def test_dra_rejects_fractional_oracle():
    fractional = TableOracle(2, {(): 0.0, (0,): 0.5, (1,): 0.5, (0, 1): 1.0})
    with pytest.raises(MatroidBoundaryError):
        run_dra([5.0, 4.0], fractional, UniformPrior(1.0, 11.0))


def test_dra_accepts_unit_integer_rank_oracle():
    unit = TableOracle(2, {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 1.0})
    outcome, state = run_dra([5.0, 4.0], unit, UniformPrior(1.0, 11.0))
    assert outcome.allocation[0] == pytest.approx(1.0)
    assert not state.slash_events


def test_dra_rejects_non_uniform_priors():
    with pytest.raises(UnsupportedPriorError):
        run_dra([9.0, 6.0, 3.0], token_matroid(), "gaussian")


def test_dra_phase_machine_is_monotone():
    state = DraState(commitment="c", deposits={"operator": 10.0})
    state.advance("execute")
    state.advance("verify")
    with pytest.raises(ConfigError):
        state.advance("commit")
    fresh = DraState(commitment="c", deposits={"operator": 10.0})
    with pytest.raises(ConfigError):
        fresh.record_slash(["0"], 5.0, {})  # slashing before the verify phase


# --------------------------------------------------------------------------
# Domain separation


def ghost_result():
    oracle = LaminarOracle([1.0, 1.0], [0, 0], [1.0])
    strategy = DeviationStrategy(kind="ghost_bid", source=1, level=8.0)
    result = apply_deviation(strategy, [10.0, 5.0], Mechanism(payment_rule="vcg"), oracle)
    return oracle, result


def test_fee_operator_validation():
    with pytest.raises(ConfigError):
        FeeOperator(fee_per_unit=-1.0)
    with pytest.raises(ConfigError):
        FeeOperator(fee_per_unit=1.0, stake=1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1"])
def test_fee_and_deposit_must_be_finite_numbers(bad):
    # a NaN or infinite amount would reach the deposit ledger and every
    # surplus; a string would fail a comparison with a bare TypeError
    with pytest.raises(ConfigError):
        FeeOperator(fee_per_unit=bad)
    with pytest.raises(ConfigError):
        FeeOperator(fee_per_unit=1.0, stake=bad)
    with pytest.raises(ConfigError):
        run_dra([9.0, 6.0, 3.0], token_matroid(), UniformPrior(1.0, 11.0), operator_deposit=bad)


def test_zero_stake_operator_gains_nothing_from_payment_raise():
    oracle, result = ghost_result()
    op = FeeOperator(fee_per_unit=1.0, stake=0.0)
    assert fee_operator_surplus(op, result, oracle=oracle) == pytest.approx(0.0, abs=1e-12)


def test_positive_stake_reintroduces_the_incentive():
    oracle, result = ghost_result()
    op = FeeOperator(fee_per_unit=1.0, stake=0.25)
    gain = result.deviated.revenue - result.honest.revenue
    assert fee_operator_surplus(op, result, oracle=oracle) == pytest.approx(
        0.25 * gain, abs=1e-12
    )


def test_non_binding_capacity_warns():
    oracle = LaminarOracle([1.0, 1.0], [0, 1], [1.0, 1.0])
    strategy = DeviationStrategy(kind="identity")
    result = apply_deviation(
        strategy, [10.0, 0.0], Mechanism(payment_rule="vcg"), oracle
    )
    op = FeeOperator(fee_per_unit=1.0, stake=0.0)
    with pytest.warns(CapacityNotBindingWarning):
        fee_operator_surplus(op, result, oracle=oracle)


def test_knife_edge_curve_is_exactly_linear():
    oracle, result = ghost_result()
    mech = Mechanism(payment_rule="vcg")
    points = knife_edge_sweep(
        [0.0, 0.01, 0.1, 1.0], (oracle, [10.0, 5.0], mech), result
    )
    eps = result.deviated.revenue - result.honest.revenue
    assert points[0] == (0.0, 0.0)
    for lam, surplus in points:
        assert surplus == pytest.approx(lam * eps, abs=1e-12)


def test_knife_edge_requires_delivery_preservation():
    oracle = LaminarOracle([1.0, 1.0], [0, 0], [2.0])
    strategy = DeviationStrategy(kind="ghost_bid", source=1, level=7.0)
    result = apply_deviation(
        strategy, [10.0, 5.0], Mechanism(payment_rule="vcg"), oracle
    )
    mech = Mechanism(payment_rule="vcg")
    with pytest.raises(DomainError):
        knife_edge_sweep([0.0, 0.1], (oracle, [10.0, 5.0], mech), result)
