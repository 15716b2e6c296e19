"""Acceptance gate: twelve numbered end-to-end criteria.

Each criterion prints exactly one `[acceptance] C{n} <label>: PASS|FAIL`
line. Tolerances and wall-clock budgets are part of the contract; the
numeric checks run against independent reference computations (dense
quadrature, exhaustive grid search, exhaustive matroid expansion) rather
than the production code paths they audit.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    bruteforce_welfare,
    ghost_settle,
    quadrature_payment,
    random_bids,
    random_table_oracle,
    vcg_externality,
)
from credmarket.adversary import (
    DeviationStrategy,
    apply_deviation,
    construct_perturbation,
)
from credmarket.credibility import knife_edge_sweep
from credmarket.mechanisms import (
    Mechanism,
    UniformPrior,
    clinching_auction,
    edmonds_greedy,
    archer_tardos_payment,
    vcg_outcome,
)
from credmarket.metrics import (
    cliffs_delta,
    gamma_distribution,
    orthogonality_decompose,
    scaling_sweep,
)
from credmarket.polymatroid import (
    LaminarOracle,
    TableOracle,
    generate_topology,
    level1_matroid,
    make_oracle,
    pair_gap,
    random_sp_instance,
)
from credmarket.sim import (
    ScenarioConfig,
    generate_round,
    run_experiment,
)

WORKED = TableOracle(2, {(): 0.0, (0,): 2.0, (1,): 2.0, (0, 1): 3.0})
PRIOR = UniformPrior(1.0, 11.0)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{num} {label}: FAIL", flush=True)
        raise
    print(f"[acceptance] C{num} {label}: PASS", flush=True)


# --------------------------------------------------------------------------


def test_c01_worked_example_exact_increment():
    with criterion(1, "worked two-agent increment"):
        bids = [10.0, 5.0]
        vcg_outcome(WORKED, bids)  # warm the memo before timing
        t0 = time.perf_counter()
        honest = vcg_outcome(WORKED, bids)
        strategy = DeviationStrategy(kind="payment_perturb", pair=(0, 1), delta=1.0)
        result = apply_deviation(strategy, bids, Mechanism(payment_rule="vcg"), WORKED)
        elapsed = time.perf_counter() - t0
        assert abs(honest.payments[0] - 5.0) <= 1e-9
        assert abs(result.deviated.payments[0] - 6.0) <= 1e-9
        assert abs(result.operator_surplus - 1.0 * pair_gap(WORKED, 0, 1)) <= 1e-9
        assert abs(result.operator_surplus - 1.0) <= 1e-9
        assert elapsed < 1e-3


def _random_class_oracle(rng):
    cls = ("tree", "sp", "entangled")[int(rng.integers(3))]
    if cls == "tree":
        h, beta = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2)][int(rng.integers(6))]
        dag = generate_topology("tree", h=h, beta=beta)
    elif cls == "sp":
        dag = random_sp_instance(int(rng.integers(2, 7)), int(rng.integers(10**9)))
        return make_oracle(dag)
    else:
        dag = generate_topology("entangled", n=int(rng.integers(4, 7)))
    for v in dag.nodes:
        dag.node_capacity[v] = float(rng.integers(1, 5))
    return make_oracle(dag)


def test_c02_threshold_payments_match_quadrature_and_externality():
    with criterion(2, "threshold = quadrature = externality on 200 instances"):
        rng = np.random.default_rng(20260814)
        t0 = time.perf_counter()
        checked = 0
        for _ in range(200):
            oracle = _random_class_oracle(rng)
            bids = random_bids(rng, oracle.n)
            alloc, _ = edmonds_greedy(oracle, bids)
            for i in range(oracle.n):
                at = archer_tardos_payment(oracle, bids, i) if alloc[i] > 0 else 0.0
                assert abs(at - vcg_externality(oracle, bids, i)) <= 1e-9
            winners = [i for i in range(oracle.n) if alloc[i] > 1e-12]
            if winners:
                i = winners[int(rng.integers(len(winners)))]
                at = archer_tardos_payment(oracle, bids, i)
                assert abs(at - quadrature_payment(oracle, bids, i)) <= 1e-6 * bids[i]
                checked += 1
        elapsed = time.perf_counter() - t0
        assert checked >= 150
        assert elapsed < 30.0


def test_c03_greedy_welfare_is_grid_optimal():
    with criterion(3, "greedy welfare = exhaustive grid on 100 instances"):
        rng = np.random.default_rng(31415)
        t0 = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(2, 6))
            oracle = random_table_oracle(rng, n, cap_max=4)
            bids = random_bids(rng, n)
            alloc, _ = edmonds_greedy(oracle, bids)
            greedy_welfare = sum(bids[i] * alloc[i] for i in range(n))
            assert abs(greedy_welfare - bruteforce_welfare(oracle, bids)) <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0


def test_c04_clinching_tracks_vcg_within_clock_step():
    with criterion(4, "clinching within one clock step of threshold prices"):
        rng = np.random.default_rng(271828)
        t0 = time.perf_counter()
        for _ in range(50):
            m = int(rng.integers(2, 4))
            caps = [int(rng.integers(1, 4)) for _ in range(m)]
            n = int(rng.integers(4, 8))
            elig = {
                a: set(
                    rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
                    .tolist()
                )
                for a in range(n)
            }
            oracle = level1_matroid(caps, elig).as_rank_oracle()
            values = [float(v) for v in rng.uniform(0.5, 10.0, oracle.n)]
            clinch = clinching_auction(oracle, values, step=0.01)
            vcg = vcg_outcome(oracle, values)
            for i in range(oracle.n):
                tol = clinch.allocation[i] * 0.01 + 1e-9
                assert abs(clinch.payments[i] - vcg.payments[i]) <= tol
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0


def test_c05_sealed_bid_ghost_profits_and_stays_plausible():
    with criterion(5, "phantom-bid run: positive, certified, welfare band"):
        t0 = time.perf_counter()
        config = ScenarioConfig()
        report = run_experiment("exp1", config)
        summary = report["summary"]
        assert summary["positive_rate"] >= 0.95
        assert summary["all_certified"]
        assert 0.05 <= summary["conc"]["conc_w"] <= 0.20
        # independent replay of a sample of the logged phantom placements,
        # through the generic engine: every agent holds a certificate, and
        # none needs an entrant, so real opponents explain the source
        picks = report["picks"]
        vcg = Mechanism(payment_rule="vcg")
        for pick in (picks[0], picks[len(picks) // 2], picks[-1]):
            profile = generate_round(config, pick["seed"], pick["round"])
            strategy = DeviationStrategy("ghost_bid", source=pick["source"], level=pick["level"])
            result = apply_deviation(strategy, profile.bids.tolist(), vcg, profile.oracle)
            assert all(result.undetectable.values())
            assert all(cert.entrant is None for cert in result.certificates.values())
            deviated = (result.deviated.allocation, result.deviated.payments)
            assert deviated == ghost_settle(profile, pick["source"], pick["level"])
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0


def test_c06_broadcast_detects_and_penalizes_every_phantom():
    with criterion(6, "broadcast: 100% detection, negative net surplus"):
        t0 = time.perf_counter()
        report = run_experiment("exp2", ScenarioConfig())
        summary = report["summary"]
        assert summary["deviated_rounds"] > 0
        assert summary["detection_rate"] == 1.0
        assert summary["max_net_surplus"] < 0.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0


def test_c07_perturbation_survives_the_optimal_auction():
    with criterion(7, "perturbation surplus = delta * gamma under reserves"):
        t0 = time.perf_counter()
        report = run_experiment("exp3", ScenarioConfig())
        summary = report["summary"]
        assert summary["applied_rounds"] > 0
        assert summary["all_exact"]
        assert summary["all_positive"]
        assert summary["min_surplus"] > 0.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0


def test_c08_scaling_slopes_sit_in_their_bands():
    with criterion(8, "log-log scaling slopes per topology class"):
        t0 = time.perf_counter()
        grids = {
            "series": ([2, 4, 8, 16], (0.8, 1.2)),
            "parallel": ([1, 2, 4, 8], (0.8, 1.2)),
            "tree": ([1, 2, 3, 4], (0.8, 1.2)),
            "entangled": ([4, 6, 8, 12], (1.7, 2.3)),
        }
        for cls, (grid, band) in grids.items():
            fit = scaling_sweep(cls, grid, seeds=(0, 1, 2))
            assert band[0] <= fit.slope <= band[1], (cls, fit.slope)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0


def test_c09_fee_surplus_is_exactly_linear_in_stake():
    with criterion(9, "knife edge: surplus identically stake * increment"):
        t0 = time.perf_counter()
        bids = [10.0, 5.0]
        strategy = construct_perturbation(bids, WORKED, epsilon_target=1.0)
        instance = (WORKED, bids, Mechanism(payment_rule="vcg"))
        curve = knife_edge_sweep([0.0, 0.01, 0.1, 1.0], instance, strategy)
        assert curve[0] == (0.0, 0.0)
        for lam, surplus in curve[1:]:
            assert surplus == lam * 1.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0


def test_c10_rule_invariance_incidence_and_class_ordering():
    with criterion(10, "rule-invariant phantom cost, incidence, class order"):
        t0 = time.perf_counter()
        report = run_experiment("r5", ScenarioConfig())
        conds = report["conditions"]
        for topo in ("tree", "sp", "entangled"):
            vcg = conds[f"{topo}:vcg-ghost"]["conc"]["conc_op"]
            fp = conds[f"{topo}:first_price-ghost"]["conc"]["conc_op"]
            assert abs(vcg - fp) <= 1e-9
        for name, entry in conds.items():
            if "-ghost" not in name and "-inflator" not in name:
                continue
            stats = entry["conc"]
            assert "error" not in stats, (name, stats)
            assert stats["conc_ag"] >= stats["conc_op"] - 1e-12, name
        dists = {
            cls: gamma_distribution(cls, PRIOR, n_samples=500, seed=0)
            for cls in ("tree", "sp", "entangled")
        }
        assert dists["tree"]["mean"] < dists["sp"]["mean"] < dists["entangled"]["mean"]
        assert cliffs_delta(dists["sp"]["samples"], dists["tree"]["samples"]) > 0
        assert cliffs_delta(dists["entangled"]["samples"], dists["sp"]["samples"]) > 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0


def test_c11_profit_decomposition_is_additive_without_interaction():
    with criterion(11, "additive profit split, vanishing cross term"):
        t0 = time.perf_counter()
        lams = [0.0, 0.25, 0.5, 0.75, 1.0]
        epss = [0.0, 1.0, 2.0, 3.0, 4.0]
        ts = [0.5, 1.0, 1.5, 2.0, 2.5]
        k, mass = 4, 10.0
        total = lambda lam, eps, t: orthogonality_decompose(lam, eps, t, k, mass)["total"]
        for lam in lams:
            for eps in epss:
                for t in ts:
                    out = orthogonality_decompose(lam, eps, t, k, mass)
                    assert abs(out["total"] - (lam * eps + (t / k) * mass)) <= 1e-12
                    assert out["total"] == out["cred_component"] + out["salop_component"]
        # mixed second difference in (stake, transport) is identically zero
        for eps in epss:
            for a, b in zip(lams, lams[1:]):
                for u, v in zip(ts, ts[1:]):
                    cross = total(b, eps, v) - total(b, eps, u) - total(a, eps, v) + total(a, eps, u)
                    assert abs(cross) <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0


def _perturbation_instance(n, seed):
    rng = np.random.default_rng(seed)
    oracle = LaminarOracle(
        np.ones(n), np.zeros(n, dtype=int), np.array([1.5]), root_cap=math.inf
    )
    return list(rng.uniform(0.5, 10.0, n)), oracle


def _best_time(fn, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_c12_perturbation_construction_scales_quasilinearly():
    with criterion(12, "construction time within 2x of n log n reference"):
        t0 = time.perf_counter()
        times = {}
        for n in (100, 1000, 10000):
            bids, oracle = _perturbation_instance(n, seed=n)
            times[n] = _best_time(
                lambda: construct_perturbation(bids, oracle), repeats=5
            )
        # reference constant calibrated at n=100, floored at timer resolution
        ref = max(times[100], 1e-4)
        for n in (1000, 10000):
            bound = 2.0 * ref * (n * math.log(n)) / (100 * math.log(100))
            assert times[n] <= bound, (n, times[n], bound)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
