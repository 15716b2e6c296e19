"""Measurement layer: CoNC ratios, effect sizes, distributions, scaling."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credmarket.errors import ConfigError, DomainError, UndefinedRatioError
from credmarket.mechanisms import UniformPrior
from credmarket.metrics import (
    MAX_GRID_VALUE,
    StaircaseOracle,
    _witness_tree,
    bertrand_price,
    cliffs_delta,
    conc,
    gamma_distribution,
    orthogonality_decompose,
    salop_markup,
    scaling_sweep,
)
from credmarket.polymatroid import verify_axioms

from conftest import bruteforce_cut_rank, reference_staircase_rank

PRIOR = UniformPrior(1.0, 11.0)


# --------------------------------------------------------------------------
# CoNC ratios


def test_conc_hand_example():
    honest = [(10.0, 20.0, 10.0)]
    deviated = [(12.0, 18.0, 12.0)]
    report = conc(honest, deviated)
    assert report.conc_op == pytest.approx(0.2)
    assert report.conc_w == pytest.approx(0.1)
    # agent surplus drop: (12-10) + (20-18) over payment baseline 10
    assert report.conc_ag == pytest.approx(0.4)
    assert report.concabs_op == pytest.approx(2.0)
    assert report.rounds == 1


@given(
    rev_h=st.floats(1.0, 100.0),
    drev=st.floats(-0.5, 50.0),
    w_h=st.floats(1.0, 200.0),
    dw=st.floats(0.0, 0.9),
)
@settings(max_examples=100, deadline=None)
def test_conc_additive_identity(rev_h, drev, w_h, dw):
    # with the payment baseline equal to honest revenue,
    # conc_ag = conc_op + conc_w * (W*/P*)
    honest = [(rev_h, w_h, rev_h)]
    deviated = [(rev_h + drev, w_h * (1.0 - dw), rev_h + drev)]
    r = conc(honest, deviated)
    assert r.conc_ag == pytest.approx(
        r.conc_op + r.conc_w * (w_h / rev_h), rel=1e-9, abs=1e-12
    )


def test_conc_zero_baseline_raises_with_absolute():
    honest = [(0.0, 5.0, 0.0)]
    deviated = [(2.0, 5.0, 2.0)]
    with pytest.raises(UndefinedRatioError) as exc:
        conc(honest, deviated)
    assert exc.value.concabs == pytest.approx(2.0)


def test_conc_requires_matched_rounds():
    with pytest.raises(DomainError):
        conc([(1.0, 1.0, 1.0)], [])
    # a round is a (revenue, welfare, payments) triple and nothing else
    for bad in ((1.0, 1.0), SimpleNamespace(revenue=1.0, welfare=1.0, payments_total=1.0)):
        with pytest.raises(DomainError):
            conc([bad], [bad])


# --------------------------------------------------------------------------
# Cliff's delta


def test_cliffs_delta_known_values():
    assert cliffs_delta([1, 2, 3], [4, 5, 6]) == pytest.approx(-1.0)
    assert cliffs_delta([4, 5, 6], [1, 2, 3]) == pytest.approx(1.0)
    assert cliffs_delta([1, 2], [1, 2]) == pytest.approx(0.0)
    # pairs: greater 4 (2>1, 4>1, 4>2, 4>3), less 3 (1<2, 1<3, 2<3) -> 1/9
    assert cliffs_delta([1, 2, 4], [1, 2, 3]) == pytest.approx(1.0 / 9.0)


@given(
    a=st.lists(st.floats(-50, 50), min_size=1, max_size=12),
    b=st.lists(st.floats(-50, 50), min_size=1, max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_cliffs_delta_bounded_and_antisymmetric(a, b):
    d = cliffs_delta(a, b)
    assert -1.0 <= d <= 1.0
    assert cliffs_delta(b, a) == pytest.approx(-d)


def test_cliffs_delta_rejects_empty():
    with pytest.raises(DomainError):
        cliffs_delta([], [1.0])


# --------------------------------------------------------------------------
# Non-modularity distributions


def test_modular_class_gaps_are_identically_zero():
    dist = gamma_distribution("modular", PRIOR, n_samples=50, seed=1)
    assert dist["mean"] == pytest.approx(0.0, abs=1e-12)
    assert max(dist["samples"]) == pytest.approx(0.0, abs=1e-12)


def test_gamma_distribution_is_seed_deterministic():
    a = gamma_distribution("tree", PRIOR, n_samples=60, seed=9)
    b = gamma_distribution("tree", PRIOR, n_samples=60, seed=9)
    assert np.array_equal(a["samples"], b["samples"])
    assert a["mean"] == b["mean"]


def test_gamma_class_ordering_small_sample():
    tree = gamma_distribution("tree", PRIOR, n_samples=120, seed=2)
    sp = gamma_distribution("sp", PRIOR, n_samples=120, seed=2)
    ent = gamma_distribution("entangled", PRIOR, n_samples=120, seed=2)
    assert tree["mean"] < sp["mean"] < ent["mean"]
    assert tree["latency_ms"] > sp["latency_ms"] > ent["latency_ms"]


def test_gamma_rejects_tiny_sample():
    with pytest.raises(DomainError):
        gamma_distribution("tree", PRIOR, n_samples=1)
    with pytest.raises(ConfigError):
        gamma_distribution("tree", PRIOR, seed=-1)


# --------------------------------------------------------------------------
# Scaling witnesses and sweep


def test_witness_oracles_are_polymatroids():
    assert verify_axioms(StaircaseOracle([1, 1, 2, 2])).ok
    assert verify_axioms(_witness_tree(3, np.random.default_rng(0))[0]).ok


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_tree_witness_ranks_its_minimum_cuts(h):
    oracle, bids, losers = _witness_tree(h, np.random.default_rng(h))
    assert oracle.n == len(bids) == h + 1 and losers == list(range(1, h + 1))
    for r in range(h + 2):
        for subset in itertools.combinations(range(h + 1), r):
            assert oracle.rank(subset) == bruteforce_cut_rank(oracle.dag, subset)


def test_staircase_closed_form():
    oracle = StaircaseOracle([1, 1, 2, 2])
    # f(S) = min(|S|, min over node levels m of m + #entries strictly above m)
    assert oracle.rank({0, 1}) == pytest.approx(1.0)  # both squeeze through node 1
    assert oracle.rank({0, 2}) == pytest.approx(2.0)  # staggered entries pass
    assert oracle.rank({0, 1, 2, 3}) == pytest.approx(2.0)  # node 2 caps at 2


@given(st.lists(st.integers(1, 6), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_staircase_rank_is_bitwise_the_node_loop(entries):
    oracle = StaircaseOracle(entries)
    for r in range(len(entries) + 1):
        for subset in itertools.combinations(range(len(entries)), r):
            got = oracle._rank(frozenset(subset))
            want = reference_staircase_rank(entries, frozenset(subset))
            assert type(got) is float and repr(got) == repr(want)


@pytest.mark.parametrize("bad", [1.5, 2.0, "2", True, np.True_, 0, -3, None])
def test_staircase_rejects_entries_that_are_not_node_numbers(bad):
    with pytest.raises(ConfigError, match=r"^staircase entries must be integers >= 1"):
        StaircaseOracle([1, bad, 2])
    # numpy integers are integers
    assert StaircaseOracle([np.int64(1), 2]).rank({0, 1}) == 2.0


def test_series_sweep_is_pinned():
    # pinned from the per-node staircase loop and the per-segment payment
    # sort
    assert scaling_sweep("series", [2, 4, 8, 16], seeds=(0, 1, 2)).to_json() == {
        "class": "series",
        "parameters": [2, 4, 8, 16],
        "concabs": [0.5, 1.0, 2.0, 4.0],
        "slope": 0.9999999999999998,
        "slope_ci": [0.9999999999999998, 0.9999999999999998],
    }


def test_tree_sweep_is_pinned():
    # pinned from the nested-chain evaluator the tree witness had before it
    # was ranked as a tree
    assert scaling_sweep("tree", [1, 2, 3, 4], seeds=(0, 1, 2)).to_json() == {
        "class": "tree",
        "parameters": [1, 2, 3, 4],
        "concabs": [0.25, 0.5000000000000023, 0.75, 1.0],
        "slope": 0.9999999999999993,
        "slope_ci": [0.9999999999999986, 0.9999999999999999],
    }


def test_deep_tree_sweep_keeps_unit_slope():
    # the chosen agent must stay above its rivals at every depth, or they
    # outbid it and the fit flattens
    fit = scaling_sweep("tree", [8, 16, 32, 64], seeds=(0, 1, 2))
    assert fit.slope == pytest.approx(1.0, abs=0.05)


def test_sweep_linear_classes_have_unit_slope():
    for cls in ("series", "parallel", "tree"):
        fit = scaling_sweep(cls, [2, 3, 4, 5], seeds=(0, 1))
        assert fit.slope == pytest.approx(1.0, abs=1e-9), cls
        assert fit.slope_ci[0] <= fit.slope <= fit.slope_ci[1]


def test_sweep_entangled_is_superlinear():
    fit = scaling_sweep("entangled", [4, 6, 8, 10], seeds=(0,))
    assert fit.slope > 1.5


def test_sweep_validates_grid():
    with pytest.raises(ConfigError):
        scaling_sweep("series", [2, 3, 4], seeds=(0,))
    with pytest.raises(ConfigError):
        scaling_sweep("series", [2, 3, 3, 4], seeds=(0,))
    with pytest.raises(ConfigError):
        scaling_sweep("moebius", [2, 3, 4, 5], seeds=(0,))
    # a negative grid value or seed reached numpy's rng as a raw ValueError
    for grid, seeds in (([-1, 2, 3, 4], (0,)), ([0, 1, 2, 3], (0,)), ([2, 4, 8, 16], (-2,))):
        with pytest.raises(ConfigError):
            scaling_sweep("series", grid, seeds=seeds)
    # a point's cost grows about 7x per doubling: past the cap, no point runs
    with pytest.raises(ConfigError, match="at most"):
        scaling_sweep("series", [2, 4, 8, MAX_GRID_VALUE + 1], seeds=(0,))


def test_sweep_increments_are_exact_multiples():
    # the series witness charges exactly d * delta per instance
    fit = scaling_sweep("series", [2, 4, 8, 16], seeds=(3,), delta=0.25)
    for d, mean in zip(fit.parameters, fit.concabs):
        assert mean == pytest.approx(d * 0.25, abs=1e-9)


# --------------------------------------------------------------------------
# Competition benchmarks


def test_salop_and_bertrand():
    assert salop_markup(2.0, 4) == pytest.approx(0.5)
    assert bertrand_price(3.0) == pytest.approx(3.0)
    with pytest.raises(DomainError):
        salop_markup(0.0, 4)
    with pytest.raises(DomainError):
        salop_markup(1.0, 1)
    with pytest.raises(DomainError):
        bertrand_price(-1.0)


def test_orthogonality_components_do_not_interact():
    out = orthogonality_decompose(0.1, 5.0, 2.0, 4, consumer_mass=10.0)
    assert out["cred_component"] == pytest.approx(0.5)
    assert out["salop_component"] == pytest.approx(5.0)
    assert out["total"] == pytest.approx(5.5)
