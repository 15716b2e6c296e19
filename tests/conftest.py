"""Shared fixtures: independent reference oracles and instance generators.

The reference implementations here deliberately avoid the package's own
closed forms — payments come from pointwise allocation-curve quadrature,
welfare from grid enumeration, ranks from explicit cut enumeration — so a
bug in the production path cannot hide in its own mirror.
"""

import bisect
import contextlib
import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

import credmarket.adversary
from credmarket.errors import NonMonotoneAllocationError
from credmarket.mechanisms import (
    ClinchTranscript,
    MarketOutcome,
    _negative_marginal,
    _posted_pass,
    _validate_bids,
    archer_tardos_payment,
    edmonds_greedy,
    priority_order,
    vcg_outcome,
)
from credmarket.polymatroid import RANK_TOL, LaminarOracle, SubstituteCloneOracle, TableOracle
from credmarket.sim import (
    POS_TOL,
    TIER_JITTER_HI,
    VALUE_HI,
    VALUE_LO,
    GhostCandidate,
    RoundProfile,
    settle_threshold,
)

QUADRATURE_POINTS = 10_000
GRID_STEP = 0.25


# --------------------------------------------------------------------------
# Reference oracle 1: brute-force node-cut enumeration on a capacity DAG


def bruteforce_cut_rank(dag, subset):
    """f(S) as the minimum node cut separating S's leaves from the sink.

    Enumerates every node subset; a candidate cut counts if removing it
    disconnects each of the subset's leaf nodes from the sink. Exponential
    and honest — only for small graphs.
    """
    subset = set(subset)
    if not subset:
        return 0.0
    g = nx.DiGraph(dag.edges)
    g.add_nodes_from(dag.nodes)
    leaves = {dag.leaves[a] for a in subset}
    best = float("inf")
    nodes = list(dag.nodes)
    for r in range(len(nodes) + 1):
        for cut in itertools.combinations(nodes, r):
            cut_set = set(cut)
            cap = sum(dag.node_capacity.get(v, 0.0) for v in cut_set)
            if cap >= best:
                continue
            h = g.subgraph([v for v in nodes if v not in cut_set])
            blocked = all(
                leaf in cut_set
                or dag.sink in cut_set
                or (leaf not in h or dag.sink not in h)
                or not nx.has_path(h, leaf, dag.sink)
                for leaf in leaves
            )
            if blocked:
                best = cap
    return best


def networkx_flow_rank(dag, subset):
    """f(S) as networkx's maximum flow on the node-split graph: node v
    becomes the edge (v, in) -> (v, out) of its capacity, an infinite
    capacity leaves the edge uncapacitated, and a source feeds S's leaves."""
    if not subset:
        return 0.0
    g = nx.DiGraph()
    for v in dag.nodes:
        cap = dag.node_capacity[v]
        if cap == float("inf"):
            g.add_edge((v, "in"), (v, "out"))
        else:
            g.add_edge((v, "in"), (v, "out"), capacity=cap)
    for u, v in dag.edges:
        g.add_edge((u, "out"), (v, "in"))
    for agent in subset:
        g.add_edge("__src__", (dag.leaves[agent], "in"))
    value, _ = nx.maximum_flow(g, "__src__", (dag.sink, "out"))
    return float(value)


def networkx_matroid_rank(capacities, eligibility, subset):
    """The token matroid's rank as networkx's maximum flow through
    source -> agent -> eligible integrator -> sink, unit arcs up to the
    integrators' token budgets."""
    g = nx.DiGraph()
    g.add_nodes_from(("s", "t"))
    for a in subset:
        g.add_edge("s", ("a", a), capacity=1)
        for k in eligibility[a]:
            g.add_edge(("a", a), ("k", k), capacity=1)
    for k, c in enumerate(capacities):
        g.add_edge(("k", k), "t", capacity=c)
    value, _ = nx.maximum_flow(g, "s", "t")
    return int(value)


def matroid_axiom_check(independent, ground):
    """Exhaustive downward-closure + augmentation check of an independence predicate."""
    ground = list(ground)
    n = len(ground)
    fams = []
    for r in range(n + 1):
        for s in itertools.combinations(ground, r):
            if independent(frozenset(s)):
                fams.append(frozenset(s))
    fam = set(fams)
    if frozenset() not in fam:
        return False, {"kind": "empty-set", "witness": ()}
    for s in fam:
        for x in s:
            if s - {x} not in fam:
                return False, {"kind": "downward-closure", "witness": tuple(sorted(s))}
    for a in fam:
        for b in fam:
            if len(a) < len(b):
                if not any(a | {x} in fam for x in b - a):
                    return False, {
                        "kind": "augmentation",
                        "witness": (tuple(sorted(a)), tuple(sorted(b))),
                    }
    return True, None


# --------------------------------------------------------------------------
# Reference oracle 2: payment by dense-grid quadrature of the bid-axis
# allocation curve (pointwise greedy reruns; no breakpoint integral)


def allocation_at(oracle, bids, agent, z):
    """The agent's greedy allocation when its bid is moved to z."""
    probe = list(bids)
    probe[agent] = z
    alloc, _ = edmonds_greedy(oracle, probe)
    return alloc[agent]


def quadrature_payment(oracle, bids, agent, n_points=QUADRATURE_POINTS):
    """Threshold payment p_i = b_i x_i - integral of x_i(z) dz over [0, b_i].

    The grid is the uniform n-point lattice refined at opponent bid levels
    (the only places the piecewise-constant curve can jump); each cell is
    evaluated at its midpoint, making the quadrature exact up to float
    error while still being a pointwise, implementation-blind probe.
    """
    b_i = bids[agent]
    if b_i <= 0:
        return 0.0
    knots = {z for j, z in enumerate(bids) if j != agent and 0.0 < z < b_i}
    grid = np.union1d(np.linspace(0.0, b_i, n_points + 1), sorted(knots))
    area = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        area += allocation_at(oracle, bids, agent, (lo + hi) / 2.0) * (hi - lo)
    x_i = allocation_at(oracle, bids, agent, b_i)
    return b_i * x_i - area


def vcg_externality(oracle, bids, agent):
    """Payment as the welfare externality on the other agents."""
    alloc, _ = edmonds_greedy(oracle, bids)
    others_now = sum(bids[j] * alloc[j] for j in alloc if j != agent)
    absent = list(bids)
    absent[agent] = 0.0
    alloc_wo, _ = edmonds_greedy(oracle, absent)
    others_best = sum(absent[j] * alloc_wo[j] for j in alloc_wo if j != agent)
    return others_best - others_now


# --------------------------------------------------------------------------
# Reference oracle 2b: the threshold payment with the opponents' greedy order
# rebuilt for every segment of the allocation curve, as `archer_tardos_payment`
# computed it before it kept one order per payment. Its rank calls, their
# subsets' iteration order and its float operations are the contract the
# one-order curve must reproduce bitwise.


def reference_share(oracle, bids, i, priority, active):
    """Agent i's greedy share from two rank calls, P grown in a full
    priority order of all n agents."""
    if bids[i] <= 0.0 or (active is not None and i not in active):
        return 0.0
    taken = set()
    for j in priority_order(bids, priority):
        if j == i:
            break
        if active is not None and j not in active:
            continue
        if bids[j] > 0.0:
            taken.add(j)
    base = oracle.rank(taken) if taken else 0.0
    taken.add(i)
    gain = oracle.rank(taken) - base
    if gain < -RANK_TOL:
        raise _negative_marginal(i, gain)
    return gain


def reference_allocation_curve(oracle, bids, i, priority_of, breakpoints, active=None, lower=0.0):
    """x_i at each segment midpoint, every priority recomputed per segment."""
    pts = sorted({p for p in breakpoints if p > lower})
    cuts = [lower] + pts + [bids[i]]
    cuts = sorted({c for c in cuts if lower <= c <= bids[i]})
    if bids[i] not in cuts:
        cuts.append(bids[i])
    segments = []
    last_x = None
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo <= 0:
            continue
        z = (lo + hi) / 2.0
        trial = list(bids)
        trial[i] = z
        prio = [priority_of(j, trial[j]) for j in range(len(bids))]
        x = reference_share(oracle, trial, i, prio, active)
        if last_x is not None and x < last_x - 1e-9:
            raise NonMonotoneAllocationError(
                f"allocation of agent {i} fell from {last_x} to {x} as its bid rose past {lo}"
            )
        last_x = x
        segments.append((lo, hi, x))
    return segments


def reference_threshold_payment(
    oracle, bids, i, priority_of=None, breakpoints=None, active=None, eligible_from=0.0
):
    """`archer_tardos_payment` with a full priority sort per segment."""
    bids = _validate_bids(oracle, bids)
    if priority_of is None:
        priority_of = lambda j, b: b
    if breakpoints is None:
        breakpoints = [bids[j] for j in range(len(bids)) if j != i]
    if bids[i] <= eligible_from:
        return 0.0
    segments = reference_allocation_curve(
        oracle, bids, i, priority_of, breakpoints, active, lower=eligible_from
    )
    prio = [priority_of(j, bids[j]) for j in range(len(bids))]
    integral = sum((hi - lo) * x for lo, hi, x in segments)
    return bids[i] * reference_share(oracle, bids, i, prio, active) - integral


def reference_myerson_outcome(oracle, bids, prior):
    """`myerson_outcome` as a virtual-welfare greedy: agents at or above
    the reserve ranked by virtual value 2b - hi, and each payment
    integrated in bid space over breakpoints mapped back from virtual
    values, (phi(b_j) + hi) / 2."""
    bids = _validate_bids(oracle, bids)
    reserve = prior.reserve()
    active = {i for i in range(oracle.n) if bids[i] >= reserve}

    def priority_of(j, b):
        return prior.virtual_value(b)

    prio = [priority_of(j, bids[j]) for j in range(oracle.n)]
    alloc, order = edmonds_greedy(oracle, bids, priority=prio, active=active)

    def pay(i):
        if alloc[i] <= 0:
            return 0.0
        pts = [
            (prior.virtual_value(bids[j]) + prior.hi) / 2.0
            for j in range(oracle.n)
            if j != i and j in active
        ]
        return archer_tardos_payment(
            oracle, bids, i, priority_of=priority_of, breakpoints=pts,
            active=active, eligible_from=reserve,
        )

    payments = {i: pay(i) for i in range(oracle.n)}
    return MarketOutcome(
        allocation=alloc, payments=payments, order=order, rule="myerson",
        meta={"reserve": reserve},
    )


def recording(oracle):
    """Turn `oracle` into an instance of a subclass of its own class that
    appends ("rank", tuple(subset)) for every `rank` call and ("eval",
    tuple(subset)) for every `_rank` evaluation to `oracle.log`; the tuples
    keep each subset's iteration order. Returns the oracle."""
    base = type(oracle)

    class Recording(base):
        def rank(self, subset):
            if not isinstance(subset, (frozenset, set, list, tuple)):
                subset = tuple(subset)
            self.log.append(("rank", tuple(subset)))
            return base.rank(self, subset)

        def _rank(self, subset):
            self.log.append(("eval", tuple(subset)))
            return base._rank(self, subset)

    oracle.__class__ = Recording
    oracle.log = []
    return oracle


def reference_staircase_rank(entries, subset):
    """The staircase rank as one numpy reduction per node: min(|S|,
    min over m of m + #entries of S strictly above m)."""
    entries = np.asarray(entries, dtype=int)
    if not subset:
        return 0.0
    ent = entries[list(subset)]
    best = float(len(ent))
    for m in range(1, int(entries.max()) + 1):
        best = min(best, m + float((ent > m).sum()))
    return best


@contextlib.contextmanager
def unshared_worlds():
    """Give every certificate world a key of its own, so `apply_deviation`
    replays each certificate with a run of its own, as it did before the
    runs of one call were shared."""
    shared = credmarket.adversary._world
    credmarket.adversary._world = lambda profile, entrant=None: object()
    try:
        yield
    finally:
        credmarket.adversary._world = shared


def ghost_settle(profile, source, level):
    """Deviated allocation and threshold payments of the real agents, with
    the phantom folded in: the generic clone route, `vcg_outcome` on a
    `SubstituteCloneOracle` with the clone bidding `level`, which the
    runners' scan-row read (`sim._ghost_world`) equals."""
    plus = SubstituteCloneOracle(profile.oracle, source)
    out = vcg_outcome(plus, [*profile.bids.tolist(), level])
    real = range(profile.n)
    return {a: out.allocation[a] for a in real}, {a: out.payments[a] for a in real}


def clone_splice_posted(oracle, bids, price, arrival, source, level):
    """The posted pass with a phantom as a clone run: `_posted_pass` on
    `SubstituteCloneOracle(oracle, source)`, the clone bidding `level` and
    arriving just ahead of its source. Returns (allocation over the real
    agents, the clone's take)."""
    plus = SubstituteCloneOracle(oracle, source)
    spliced = [k for a in arrival for k in ((plus.clone_id, a) if a == source else (a,))]
    alloc, _ = _posted_pass(plus, list(bids) + [level], price, spliced)
    return alloc, alloc.pop(plus.clone_id)


# --------------------------------------------------------------------------
# Reference oracle 3: welfare by grid enumeration of the feasible region


def bruteforce_welfare(oracle, bids, step=GRID_STEP):
    """max sum(b_i x_i) over the grid {0, step, ...}^n inside the polytope.

    Feasibility is checked against every subset constraint x(S) <= f(S).
    Vectorized but still exponential; keep n <= 5 and caps <= 4.
    """
    n = oracle.n
    axes = [np.arange(0.0, oracle.rank({i}) + step / 2, step) for i in range(n)]
    mesh = np.stack(
        [m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1
    )
    subsets = []
    caps = []
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            mask = np.zeros(n)
            mask[list(combo)] = 1.0
            subsets.append(mask)
            caps.append(oracle.rank(set(combo)))
    loads = mesh @ np.array(subsets).T
    feasible = (loads <= np.array(caps) + 1e-12).all(axis=1)
    values = mesh @ np.asarray(bids, dtype=float)
    return float(values[feasible].max())


# --------------------------------------------------------------------------
# Reference simulator paths: numpy-built round streams, the scalar pod
# settlement and the per-window ghost scan


def reference_generate_round(config, seed, round_index):
    """`sim.generate_round` on numpy's own objects: one
    `default_rng(SeedSequence([seed, round, agent]))` per agent and scalar
    numpy draws."""
    pods = config.pods()
    lam = config.value_decay_per_ms
    bids, demands, pod_of = [], [], []
    agent = 0
    for pid, pod in enumerate(pods):
        base_lat = config.tier_latencies_ms[pod.tier]
        jit_hi = TIER_JITTER_HI[pod.tier]
        for units in pod.units:
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, round_index, agent])
            )
            k = int(rng.poisson(config.arrival_rate))
            best = 0.0
            for _ in range(k):
                latency = base_lat * rng.uniform(0.5, jit_hi)
                deadline = config.deadlines_ms[rng.integers(len(config.deadlines_ms))]
                if latency <= deadline:
                    value = rng.uniform(VALUE_LO, VALUE_HI) * math.exp(-lam * latency)
                    best = max(best, value)
            bids.append(best)
            demands.append(float(units * k))
            pod_of.append(pid)
            agent += 1
    return RoundProfile(
        bids=np.array(bids),
        demands=np.array(demands),
        pod_of=np.array(pod_of),
        pod_caps=np.array([p.capacity for p in pods]),
        root_cap=config.tier_capacities[-1],
    )


def reference_settle_group(oracle, g, bids, clone_of=None, clone_level=0.0):
    """Greedy allocation and threshold payments of group `g` of a
    `LaminarOracle` alone, one footprint sort at a time: the scalar engine
    that `LaminarOracle.settle` replaced, kept as its reference.

    With a slack root this is the group's share of the market's outcome
    (the closed form behind `threshold_outcome`); with a binding root it
    is the group standing on its own cap. `bids` is indexed by agent id,
    finite and nonnegative. `clone_of` (a member) adds a substitute
    clone bidding `clone_level`, reported under id n as in
    `SubstituteCloneOracle`. Returns (alloc, pay); only agents served
    more than RANK_TOL are priced, the rest pay zero.

    One footprint list, sorted once by (-level, id), drives both halves:
    every live member at its bid, but the clone and its source share one
    footprint (perfect substitutes: the first in that order consumes,
    the other gets nothing, and each is zero wherever the other outbids
    it). The greedy fill walks the list and keeps running totals: T(z),
    the footprint demand strictly above z, is the total of the list's
    prefix above z. Below its bid a served agent's curve is
    max(0, min(d_a, cap - (T(z) - d_a))). T(z) is constant between
    footprint levels, so the same prefix totals price every served
    agent: p_a = b_a x_a - integral_0^b_a x_a(z) dz (Archer & Tardos),
    O(m^2) for a group of m members.

    Exactness invariant: with integer-valued demands and caps (the
    simulator's unit sizes times arrival counts, integer pod capacities)
    every load is an exact float whatever order it is summed in. Each
    agent keeps the breakpoints [0.0] + sorted(levels below b_a) +
    [b_a], the midpoint evaluation and the ascending `sum` of segment
    areas, which makes each payment bitwise equal to integrating the
    curve segment by segment, as the generic route does. That `sum` is
    CPython 3.11's plain left-to-right float addition (3.12 compensates
    it), which `LaminarOracle.settle` reproduces by adding the areas one
    segment at a time.
    """
    members = oracle.group_members[g]
    demands, cap = oracle._demand_list, oracle._cap_list[g]
    clone = oracle.n
    feet = [(-bids[a], a) for a in members if a != clone_of and bids[a] > 0]
    levels = {bids[a] for a in members if bids[a] > 0}
    alloc = dict.fromkeys(members, 0.0)
    if clone_of is not None:
        b_s = bids[clone_of]
        if b_s > 0 and b_s >= clone_level:
            feet.append((-b_s, clone_of))
        elif clone_level > 0:
            feet.append((-clone_level, clone))
        levels.add(clone_level)
        alloc[clone] = 0.0
    feet.sort()
    pay = dict.fromkeys(alloc, 0.0)
    residual = cap
    above = [0.0]  # above[k]: demand of the k highest footprints
    for _, a in feet:
        d = demands[clone_of if a == clone else a]
        take = min(d, residual)
        alloc[a] = take
        residual -= take
        above.append(above[-1] + d)
    served = [a for a in alloc if alloc[a] > RANK_TOL]
    neg_levels = [neg for neg, _ in feet]
    zs = [0.0] + sorted(levels)
    # segment k spans zs[k]..zs[k+1]; an agent bidding zs[j] uses 0..j-1,
    # all below its own footprint
    mids = [(lo + hi) / 2.0 for lo, hi in zip(zs[:-1], zs[1:])]
    segs = [  # (T at the midpoint, width)
        (above[bisect.bisect_left(neg_levels, -z)], hi - lo)
        for z, lo, hi in zip(mids, zs[:-1], zs[1:])
    ]
    for a in served:
        # the clone and its source are each zero below the other's level
        k = 0
        if a == clone:
            b_a, d_a = clone_level, demands[clone_of]
            k = bisect.bisect_left(mids, bids[clone_of])
        else:
            b_a, d_a = bids[a], demands[a]
            if a == clone_of:
                k = bisect.bisect_left(mids, clone_level)
        j = bisect.bisect_left(zs, b_a, 1)
        area = sum(max(0.0, min(d_a, cap - (t - d_a))) * w for t, w in segs[k:j])
        pay[a] = b_a * alloc[a] - area
    return alloc, pay



def reference_ghost_candidates(profile, alloc=None, pay=None):
    """`sim.ghost_candidates` with one `reference_settle_group` call per
    placement, and surplus and damage as running sums over the pod's
    members."""
    if alloc is None or pay is None:
        alloc, pay = settle_threshold(profile)
    oracle = profile.oracle
    bids, demands = profile.bids.tolist(), profile.demands.tolist()
    caps = profile.pod_caps.tolist()
    out = []
    for p, members in enumerate(oracle.group_members):
        cap = caps[p]
        levels = sorted((bids[a] for a in members if bids[a] > 0), reverse=True)
        if not levels:
            continue
        total = sum(demands[m] for m in members)
        for source in members:
            if demands[source] <= 0:
                continue
            if bids[source] > 0 and alloc.get(source, 0.0) > POS_TOL:
                if total - demands[source] < cap - POS_TOL:
                    continue
            tops = [lv for lv in levels if lv > bids[source]]
            for w in range(len(tops)):
                lo = tops[w + 1] if w + 1 < len(tops) else bids[source]
                hi = tops[w]
                if hi - lo <= 1e-6:
                    continue
                level = lo + 0.9 * (hi - lo)
                dev_alloc, dev_pay = reference_settle_group(oracle, p, bids, source, level)
                surplus = damage = 0.0
                for m in members:
                    surplus += dev_pay[m] - pay.get(m, 0.0)
                    damage += (alloc.get(m, 0.0) - dev_alloc[m]) * bids[m]
                if surplus > POS_TOL:
                    out.append(GhostCandidate(surplus, damage, source, level, p))
    return out


# --------------------------------------------------------------------------
# Transcript forgery


def rechain(transcript):
    """The transcript with every round tag recomputed in order: what an
    operator that broadcasts a lie from the start would publish. The tag
    chain then holds, so only the replay can flag the lie."""
    out = ClinchTranscript(commitment_root=transcript.commitment_root)
    for e in transcript.events:
        if e["event"] == "round":
            out.round(e["price"], e["active"], e["rank"], e["drops"], e["clinches"])
        else:
            out.events.append(dict(e))
    return out


# --------------------------------------------------------------------------
# Instance generators


def random_table_oracle(rng, n, cap_max=4):
    """Random integer-valued polymatroid on n agents via capped coverage:
    each agent owns a random item multiset; f(S) = min(sum of S's items
    clipped by shared item caps, ...) — built directly as a coverage rank,
    so monotone submodular integer by construction."""
    n_items = int(rng.integers(n, 2 * n + 1))
    item_cap = rng.integers(1, cap_max + 1, size=n_items)
    owns = rng.integers(0, 2, size=(n, n_items)).astype(bool)
    # give every agent at least one item
    for i in range(n):
        if not owns[i].any():
            owns[i, rng.integers(n_items)] = True
    table = {}
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            joint = np.zeros(n_items)
            for i in combo:
                joint += owns[i]
            table[frozenset(combo)] = float(np.minimum(joint, item_cap).sum())
    # intersect with the per-agent demand box via truncation,
    # f'(S) = min_{T <= S} f(T) + c(S - T), which stays a polymatroid rank
    demand = rng.integers(1, cap_max + 1, size=n)
    truncated = {}
    for s in table:
        members = sorted(s)
        best = float("inf")
        for r in range(len(members) + 1):
            for t in itertools.combinations(members, r):
                rest = sum(demand[i] for i in s - set(t))
                best = min(best, table[frozenset(t)] + rest)
        truncated[s] = float(best)
    return TableOracle(n, truncated)


def random_bids(rng, n, lo=0.5, hi=10.0):
    return [float(b) for b in rng.uniform(lo, hi, size=n)]


@st.composite
def laminar_markets(draw, integer, root):
    """A laminar market of 1-9 members in 1-3 groups, bids from a small grid
    so zeros and exact ties are common, and an optional substitute clone
    whose level sits below, at, between or above its source's bid. `root`
    is "slack" (inf, or exactly the ground set's capped load) or "binding"
    (half of it)."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 3))
    if integer:
        demands = draw(st.lists(st.integers(0, 12).map(float), min_size=n, max_size=n))
        caps = draw(st.lists(st.integers(1, 40).map(float), min_size=k, max_size=k))
    else:
        demands = draw(st.lists(st.integers(0, 1200).map(lambda c: c / 100), min_size=n, max_size=n))
        caps = draw(st.lists(st.integers(1, 4000).map(lambda c: c / 100), min_size=k, max_size=k))
    group_of = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    bids = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.5]), min_size=n, max_size=n))
    ground = LaminarOracle(demands, group_of, caps).rank(range(n))
    if root == "slack":
        root_cap = draw(st.sampled_from((math.inf, ground)))
    else:
        assume(ground > 0)
        root_cap = ground // 2 if integer else ground / 2
    oracle = LaminarOracle(demands, group_of, caps, root_cap=root_cap)
    source = draw(st.none() | st.integers(0, n - 1))
    if source is None:
        return oracle, bids
    b = bids[source]
    level = draw(st.sampled_from([
        b, b + 0.5, b + 3.0, max(0.0, b - 0.5), b / 2.0, 11.0,
        *(x + 0.25 for x in bids), *bids,
    ]))
    return SubstituteCloneOracle(oracle, source), bids + [level]


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
