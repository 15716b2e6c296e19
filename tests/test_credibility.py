"""Credibility devices: broadcast audit, deposit-backed recomputation, fees."""

import json

import pytest

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
    rank_auth_tag,
)
from credmarket.polymatroid import LaminarOracle, Level1Matroid, TableOracle

from conftest import random_bids, random_table_oracle

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


def test_inflated_clinch_is_flagged():
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    bad = tamper_inflate_clinch(t, factor=2.0)
    verdict = verify_transcript(bad, root)
    assert not verdict.consistent
    assert any(v["kind"] == "wrong_clinch" for v in verdict.violations)


def test_ghost_clinch_is_flagged():
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    bad = tamper_ghost_clinch(t, agent=1, qty=0.5)
    verdict = verify_transcript(bad, root)
    assert not verdict.consistent
    assert any(v["kind"] == "wrong_clinch" for v in verdict.violations)


def test_forged_rank_value_breaks_the_tag():
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    bad = tamper_forge_rank(t, delta=1.0)
    verdict = verify_transcript(bad, root)
    assert not verdict.consistent
    assert any(v["kind"] == "inauthentic_rank" for v in verdict.violations)


def test_retagged_forgery_needs_the_oracle():
    # an operator that recomputes tags over lies defeats the tag check but
    # not a verifier holding the committed rank function
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    bad = tamper_forge_rank(t, delta=1.0)
    for e in bad.events:
        if e["event"] == "rank_announce":
            e["auth_tag"] = rank_auth_tag(root, set(e["subset"]), e["value"])
    verdict = verify_transcript(bad, root, oracle=WORKED)
    assert not verdict.consistent
    kinds = {v["kind"] for v in verdict.violations}
    assert "wrong_rank" in kinds or "wrong_clinch" in kinds


@pytest.mark.parametrize("bad", [1.0, 2, -1])
def test_oracle_replay_rejects_ids_rank_rejects(bad):
    # a retagged announcement naming a non-id reaches the oracle check; the
    # replay's per-round pass must not fold 1.0 into agent 1
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    e = next(e for e in t.events if e["event"] == "rank_announce")
    e["subset"] = [0, bad]
    e["auth_tag"] = rank_auth_tag(root, e["subset"], e["value"])
    with pytest.raises(DomainError):
        verify_transcript(t, root, oracle=WORKED)


def test_verify_accepts_json_and_dict_forms():
    root, t, _ = run_with_transcript(WORKED, [10.0, 5.0])
    as_dict = {"commitment_root": root, "events": t.events}
    assert verify_transcript(as_dict, root).consistent
    assert verify_transcript(json.dumps(as_dict), root).consistent


def test_malformed_transcript_raises():
    with pytest.raises(StructureError):
        verify_transcript({"events": [{"event": "teleport"}]}, "root")
    with pytest.raises(StructureError):
        verify_transcript({"events": [{"event": "clinch", "agent": 0}]}, "root")
    with pytest.raises(StructureError):
        verify_transcript(42, "root")
    # a field that fails its coercion is malformed too
    with pytest.raises(StructureError):
        verify_transcript({"events": [{"event": "price_step", "price": "abc"}]}, "root")
    with pytest.raises(StructureError):
        verify_transcript(
            {"events": [{"event": "rank_announce", "subset": [[0]], "value": 1.0,
                         "auth_tag": "x"}]},
            "root",
        )


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
