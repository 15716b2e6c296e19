"""Cost-of-non-credibility ratios, gap statistics, and scaling sweeps.

Everything here is measurement: the ratio variants of operator gain /
welfare loss / agent burden between honest and deviated executions, the
distribution of pairwise non-modularity gaps in realized-value units, the
log-log growth of the stacked perturbation surplus per topology class, and
the closed-form competition quantities (Bertrand, circular-city markup,
and the additive credibility/competition decomposition).
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, UndefinedRatioError
from .mechanisms import archer_tardos_payment, edmonds_greedy
from .polymatroid import (
    CapacityDag,
    LaminarOracle,
    RankOracle,
    TreeCutOracle,
    entangled_oracle,
    generate_topology,
    make_oracle,
    pair_gap,
)

#: jitter on the class witness latency when sampling realized values
LATENCY_JITTER = (0.5, 2.0)

#: value decay per millisecond of service latency (simulator default)
VALUE_DECAY_PER_MS = 0.005

#: one-hop-equivalent service latency per topology class: deeper
#: aggregation means more hops before the sink
CLASS_LATENCY_MS = {"tree": 70.0, "sp": 20.0, "entangled": 5.0, "modular": 20.0}

#: largest accepted scaling-sweep grid value: a witness point's cost grows
#: steeply with its parameter (a series point takes about 0.3 s at 64 and
#: 2.2 s at 128, some 7x per doubling)
MAX_GRID_VALUE = 64


# --------------------------------------------------------------------------
# CoNC ratios


@dataclass
class ConcReport:
    """Relative cost of a deviation, three ways, plus the absolute gain.

    conc_op: operator revenue gain over the honest revenue baseline.
    conc_w: welfare destroyed over the honest welfare baseline.
    conc_ag: aggregate agent burden (extra payments plus forgone value,
        i.e. the drop in total agent surplus) over the honest payment
        baseline. When payments and revenue baselines coincide (direct
        settlement under VCG), conc_ag = conc_op + conc_w * (W*/P*).
    """

    conc_op: float
    conc_w: float
    conc_ag: float
    concabs_op: float
    baselines: dict
    rounds: int

    def to_json(self):
        return {
            "conc_op": self.conc_op,
            "conc_w": self.conc_w,
            "conc_ag": self.conc_ag,
            "concabs_op": self.concabs_op,
            "baselines": dict(self.baselines),
            "rounds": self.rounds,
        }


def _round_triple(record):
    """(revenue, welfare, total agent payments) from a round record."""
    if not isinstance(record, (tuple, list)) or len(record) != 3:
        raise DomainError("round records must be (revenue, welfare, payments) triples")
    return float(record[0]), float(record[1]), float(record[2])


def conc(honest_rounds, deviated_rounds):
    """Cost of non-credibility between matched honest and deviated rounds."""
    honest = [_round_triple(r) for r in honest_rounds]
    deviated = [_round_triple(r) for r in deviated_rounds]
    if not honest or len(honest) != len(deviated):
        raise DomainError(
            f"need equal nonzero round counts, got {len(honest)} vs {len(deviated)}"
        )
    rev_h, w_h, pay_h = (float(np.mean(col)) for col in zip(*honest))
    rev_d, w_d, pay_d = (float(np.mean(col)) for col in zip(*deviated))
    concabs = rev_d - rev_h
    burden = (rev_d - rev_h) + (w_h - w_d)  # agents pay more and receive less
    if rev_h <= 0:
        raise UndefinedRatioError(
            "honest revenue baseline is zero; only the absolute variant is defined",
            concabs=concabs,
        )
    if w_h <= 0:
        raise UndefinedRatioError(
            "honest welfare baseline is zero", concabs=concabs
        )
    if pay_h <= 0:
        raise UndefinedRatioError(
            "honest payment baseline is zero", concabs=concabs
        )
    return ConcReport(
        conc_op=concabs / rev_h,
        conc_w=(w_h - w_d) / w_h,
        conc_ag=burden / pay_h,
        concabs_op=concabs,
        baselines={"revenue": rev_h, "welfare": w_h, "payments": pay_h},
        rounds=len(honest),
    )


def cliffs_delta(sample_a, sample_b):
    """Rank effect size: P(a > b) - P(a < b) over all cross pairs.

    Counted through a sorted copy of `b` (O((n+m) log m)); the pairwise
    difference matrix would need n*m cells and the simulator feeds in
    tens of thousands of utilities per side.
    """
    a = np.asarray(list(sample_a), dtype=float)
    b = np.asarray(list(sample_b), dtype=float)
    if a.size == 0 or b.size == 0:
        raise DomainError("both samples must be non-empty")
    b_sorted = np.sort(b)
    greater = np.searchsorted(b_sorted, a, side="left")
    less = b.size - np.searchsorted(b_sorted, a, side="right")
    return float((greater.sum() - less.sum()) / (a.size * b.size))


# --------------------------------------------------------------------------
# Gap distribution in realized-value units


def gamma_distribution(topology_class, prior, n_samples=500, seed=0):
    """Sample pairwise non-modularity gaps weighted by realized values.

    Draws agent pairs from the class witness instance and, per endpoint, a
    base value from the prior discounted by the class's service latency
    (deeper aggregation = more hops = longer latency). The per-pair gap in
    value units is min(v_i, v_j) * gamma_ij: the welfare lost to the pair's
    capacity overlap, which is what the lower-valued partner forgoes.
    Means are therefore on a ratio scale set by the prior — comparable
    across classes sampled here, not across papers.
    """
    if n_samples < 2:
        raise DomainError("need n_samples >= 2")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if topology_class == "modular":
        # every agent on its own path: all gaps identically zero
        n = 8
        dag = generate_topology("parallel", n=n, k=n)
    elif topology_class == "tree":
        dag = generate_topology("tree", h=3, beta=2)
    elif topology_class == "sp":
        dag = generate_topology("sp", n=8)
    elif topology_class == "entangled":
        dag = generate_topology("entangled", n=8)
    else:
        raise ConfigError(f"unknown topology class {topology_class!r}")
    oracle = make_oracle(dag)
    n = oracle.n
    latency = CLASS_LATENCY_MS[topology_class]
    rng = np.random.default_rng(seed)
    lo, hi = prior.lo, prior.hi

    samples = np.empty(n_samples)
    for s in range(n_samples):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        lat_i = latency * rng.uniform(*LATENCY_JITTER)
        lat_j = latency * rng.uniform(*LATENCY_JITTER)
        v_i = rng.uniform(lo, hi) * math.exp(-VALUE_DECAY_PER_MS * lat_i)
        v_j = rng.uniform(lo, hi) * math.exp(-VALUE_DECAY_PER_MS * lat_j)
        samples[s] = min(v_i, v_j) * pair_gap(oracle, i, j)

    density, bin_edges = np.histogram(samples, bins=24, density=True)
    return {
        "class": topology_class,
        "latency_ms": latency,
        "samples": samples,
        "mean": float(samples.mean()),
        "bin_edges": bin_edges.tolist(),
        "density": density.tolist(),
    }


# --------------------------------------------------------------------------
# Topology-class scaling sweeps


class StaircaseOracle(RankOracle):
    """Suffix-interval chain: node m has capacity m, an agent entering at
    node m transits nodes m..d. The max throughput of S is the tightest
    node cut: min over m of (m + demand of S entering after m), capped by
    |S|. With one high/low pair entering per node the chain carries exactly
    d units, one per pair. Entries are integers >= 1."""

    evaluator = "staircase"

    def __init__(self, entries):
        super().__init__(len(entries))
        self.entries = []
        for e in entries:
            try:
                node = 0 if isinstance(e, bool) else operator.index(e)
            except TypeError:
                node = 0
            if node < 1:
                raise ConfigError(f"staircase entries must be integers >= 1, got {e!r}")
            self.entries.append(node)
        self.depth = max(self.entries)

    def _rank(self, subset):
        # one count of the entries at each node, accumulated from node 1
        # up: the cut at node m is m + (|S| - entries at or before m); all
        # integers, so the minimum is exact; at witness sizes (d <= 16)
        # the plain loop beats numpy's per-call overhead
        counts = [0] * (self.depth + 1)
        entries = self.entries
        for a in subset:
            counts[entries[a]] += 1
        above = best = len(subset)
        for m in range(1, self.depth + 1):
            above -= counts[m]
            if m + above < best:
                best = m + above
        return float(best)

    def describe(self):
        return {"evaluator": self.evaluator, "entries": list(self.entries)}


def _witness_series(d, rng):
    """d saturated chain nodes, one high/low pair entering per node. The
    final node is the shared bottleneck, so each of the d winners is priced
    at the top displaced rival; raising every loser moves that threshold
    for all d of them at once and stacks d increments."""
    entries = []
    for m in range(1, d + 1):
        entries += [m, m]
    oracle = StaircaseOracle(entries)
    bids = np.zeros(2 * d)
    pos_w = rng.uniform(1.0, 2.0, size=d).cumsum()
    pos_l = rng.uniform(1.0, 2.0, size=d).cumsum()
    top = 10.0 + 5.0 * pos_w / pos_w[-1]  # winners in (10, 15]
    low = 1.0 + 5.0 * pos_l / pos_l[-1]  # losers in (1, 6], all below winners
    for m in range(d):
        bids[2 * m] = top[m]
        bids[2 * m + 1] = low[m]
    losers = [2 * m + 1 for m in range(d)]
    return oracle, list(bids), losers


def _witness_parallel(m, rng):
    """Eight unit paths; m of them carry a two-agent contest, the rest one
    lone agent. Only the m contested paths contribute increments."""
    k = 8
    if m > k:
        raise ConfigError(f"cannot saturate {m} of {k} paths")
    demands, group_of, bids, losers = [], [], [], []
    spacing = rng.uniform(1.0, 2.0, size=2 * k)
    for path in range(k):
        demands.append(1.0)
        group_of.append(path)
        bids.append(10.0 + spacing[path])
        if path < m:
            demands.append(1.0)
            group_of.append(path)
            bids.append(1.0 + spacing[k + path])
            losers.append(len(bids) - 1)
    oracle = LaminarOracle(demands, group_of, [1.0] * k)
    return oracle, bids, losers


def _witness_tree(h, rng):
    """Binary tree, one saturated leaf-to-root path of depth h. The chosen
    agent wants h units; the sibling subtree joining at each level carries
    one unit rival, so every level contributes one threshold to the chosen
    agent's payment. The path is a chain v1 -> ... -> vh of capacity h:
    agent 0 and rival 1 enter it at v1, rival m at vm. Agent 0 bids 10
    above the top rival, and at least 20, so it stays first in the greedy
    order at every depth."""
    leaves = {a: f"leaf{a}" for a in range(h + 1)}
    chain = [f"v{m}" for m in range(1, h + 1)]
    caps = dict.fromkeys(chain, float(h))
    caps.update(dict.fromkeys(leaves.values(), 1.0))
    caps["leaf0"] = float(h)
    edges = [("leaf0", "v1")] + [(f"leaf{m}", f"v{m}") for m in range(1, h + 1)]
    edges += list(zip(chain, chain[1:]))
    dag = CapacityDag([*leaves.values(), *chain], caps, edges, leaves, chain[-1], "tree")
    oracle = TreeCutOracle(dag)
    spacing = rng.uniform(1.0, 2.0, size=h)
    rivals = list(1.0 + spacing.cumsum())
    bids = [max(20.0, rivals[-1] + 10.0), *rivals]
    losers = list(range(1, h + 1))
    return oracle, bids, losers


def _witness_entangled(n, rng):
    """Fully entangled: every pair shares a unit slot, so the agent at rank
    k is priced at the sum of all bids below it. A uniform raise of every
    non-top bid therefore bumps C(n,2) threshold terms at once."""
    oracle = entangled_oracle(n)
    spacing = rng.uniform(1.0, 2.0, size=n)
    bids = list(1.0 + spacing.cumsum())[::-1]
    losers = list(range(1, n))  # everyone below the top bidder
    return oracle, bids, losers


_WITNESSES = {
    "series": _witness_series,
    "parallel": _witness_parallel,
    "tree": _witness_tree,
    "entangled": _witness_entangled,
}


def _stacked_increment(oracle, bids, losers, delta):
    """Enact every per-contest perturbation on one profile and measure the
    exact revenue increment: every allocated agent is charged its threshold
    payment against the raised field. (In the entangled witness the raised
    agents are themselves allocated, so the sum runs over all winners, not
    just the unperturbed ones.)"""
    n = oracle.n
    raised = list(bids)
    for j in losers:
        raised[j] += delta
    alloc, _ = edmonds_greedy(oracle, bids)
    honest = dev = 0.0
    for i in range(n):
        if alloc[i] <= 0:
            continue
        honest += archer_tardos_payment(oracle, bids, i)
        dev += archer_tardos_payment(oracle, raised, i)
    return dev - honest


@dataclass
class ScalingFit:
    topology_class: str
    parameters: list
    concabs: list  # mean over seeds per parameter value
    slope: float
    slope_ci: tuple  # (lo, hi) from per-seed slopes

    def to_json(self):
        return {
            "class": self.topology_class,
            "parameters": list(self.parameters),
            "concabs": list(self.concabs),
            "slope": self.slope,
            "slope_ci": list(self.slope_ci),
        }


def scaling_sweep(topology_class, parameter_grid, seeds, delta=0.25):
    """Measure how the stacked perturbation surplus grows with the class
    parameter; fit the log-log slope.

    Every grid point builds the class witness (all contests saturated),
    applies the joint perturbation — per-contest delta, one profile — and
    records the exact revenue increment in absolute units.
    """
    grid = list(parameter_grid)
    if len(grid) < 4:
        raise ConfigError("need at least 4 grid values for a slope fit")
    if any(b >= a for a, b in zip(grid[1:], grid[:-1])):
        raise ConfigError("grid values must be strictly increasing")
    if grid[0] <= 0:
        raise ConfigError(f"grid values must be positive, got {grid[0]}")
    if grid[-1] > MAX_GRID_VALUE:
        raise ConfigError(f"grid values must be at most {MAX_GRID_VALUE}, got {grid[-1]}")
    if topology_class not in _WITNESSES:
        raise ConfigError(f"no scaling witness for class {topology_class!r}")
    build = _WITNESSES[topology_class]
    seeds = list(seeds)
    if not seeds or any(s < 0 for s in seeds):
        raise ConfigError(f"seeds must be a non-empty list of nonnegative integers, got {seeds}")
    per_seed = {s: [] for s in seeds}
    for param in grid:
        for s in seeds:
            rng = np.random.default_rng((s, param))
            oracle, bids, losers = build(param, rng)
            inc = _stacked_increment(oracle, bids, losers, delta)
            if inc <= 0:
                raise ConfigError(
                    f"witness for {topology_class}@{param} produced no increment; "
                    "saturation failed"
                )
            per_seed[s].append(inc)
    means = [
        float(np.mean([per_seed[s][k] for s in seeds])) for k in range(len(grid))
    ]
    logp = np.log(np.asarray(grid, dtype=float))
    slope = float(np.polyfit(logp, np.log(means), 1)[0])
    seed_slopes = [
        float(np.polyfit(logp, np.log(per_seed[s]), 1)[0]) for s in seeds
    ]
    lo, hi = float(min(seed_slopes)), float(max(seed_slopes))
    return ScalingFit(
        topology_class=topology_class,
        parameters=grid,
        concabs=means,
        slope=slope,
        slope_ci=(lo, hi),
    )


# --------------------------------------------------------------------------
# Competition formulas


def salop_markup(t, k):
    """Symmetric circular-city equilibrium markup t/k."""
    if t <= 0:
        raise DomainError("transport cost t must be positive")
    if int(k) != k or k < 2:
        raise DomainError("need an integer number of firms k >= 2")
    return t / k


def bertrand_price(c):
    """Homogeneous-good price competition: price at marginal cost."""
    if c < 0:
        raise DomainError("marginal cost must be nonnegative")
    return float(c)


def orthogonality_decompose(lam, eps, t, k, consumer_mass):
    """Additive split of integrator profit into the credibility component
    (stake times extractable increment) and the competition component
    (markup times mass). No interaction term: the two contributions are
    computed independently and summed."""
    if lam < 0 or eps < 0:
        raise DomainError("stake and increment must be nonnegative")
    if consumer_mass < 0:
        raise DomainError("consumer mass must be nonnegative")
    cred = lam * eps
    salop = salop_markup(t, k) * consumer_mass
    return {"cred_component": cred, "salop_component": salop, "total": cred + salop}
