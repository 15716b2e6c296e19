"""Allocation and payment rules against independent references."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credmarket.adversary import _ScaledOracle
from credmarket.errors import ConfigError, DomainError, StructureError, UnsupportedPriorError
from credmarket.mechanisms import (
    ClinchTranscript,
    MarketOutcome,
    Mechanism,
    UniformPrior,
    archer_tardos_payment,
    clinching_auction,
    edmonds_greedy,
    first_price_outcome,
    myerson_outcome,
    posted_price_outcome,
    run_mechanism,
    vcg_outcome,
    _greedy,
    _share,
)
from credmarket.polymatroid import (
    LaminarOracle,
    Level1Matroid,
    RankOracle,
    SubstituteCloneOracle,
    TableOracle,
    generate_topology,
    make_oracle,
    random_sp_instance,
)

from conftest import (
    bruteforce_welfare,
    laminar_markets,
    quadrature_payment,
    random_bids,
    random_table_oracle,
    recording,
    reference_myerson_outcome,
    reference_threshold_payment,
    vcg_externality,
)

WORKED = TableOracle(2, {(): 0.0, (0,): 2.0, (1,): 2.0, (0, 1): 3.0})


def all_subsets(n):
    for r in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), r))


# --------------------------------------------------------------------------
# Greedy allocation


def test_greedy_welfare_matches_bruteforce(rng):
    for _ in range(15):
        n = int(rng.integers(2, 5))
        oracle = random_table_oracle(rng, n, cap_max=3)
        bids = random_bids(rng, n)
        alloc, _ = edmonds_greedy(oracle, bids)
        welfare = sum(bids[i] * alloc[i] for i in alloc)
        assert welfare == pytest.approx(bruteforce_welfare(oracle, bids), abs=1e-9)


def test_greedy_allocation_feasible(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        oracle = random_table_oracle(rng, n)
        bids = random_bids(rng, n)
        alloc, _ = edmonds_greedy(oracle, bids)
        for s in all_subsets(n):
            assert sum(alloc[i] for i in s) <= oracle.rank(s) + 1e-9


def test_zero_bids_receive_no_service():
    alloc, _ = edmonds_greedy(WORKED, [10.0, 0.0])
    assert alloc[1] == 0.0
    # and the winner is unaffected by the dead bid
    assert alloc[0] == pytest.approx(2.0)


def test_negative_bid_rejected():
    with pytest.raises(DomainError):
        edmonds_greedy(WORKED, [10.0, -1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_bids_rejected(bad):
    # every public entry checks its bids once; only the private greedy
    # reruns behind a threshold payment trust them unchecked
    bids = [bad, 5.0]
    entries = {
        "edmonds_greedy": lambda: edmonds_greedy(WORKED, bids),
        "archer_tardos_payment": lambda: archer_tardos_payment(WORKED, bids, 1),
        "vcg": lambda: vcg_outcome(LaminarOracle([1, 1], [0, 0], [1]), bids),
        "myerson": lambda: myerson_outcome(WORKED, bids, UniformPrior(1.0, 11.0)),
        "first_price": lambda: first_price_outcome(WORKED, bids),
        "posted_price": lambda: posted_price_outcome(WORKED, bids, 2.5, seed=0),
        "clinching": lambda: clinching_auction(WORKED, bids),
    }
    for name, entry in entries.items():
        try:
            entry()
        except DomainError:
            continue
        pytest.fail(f"{name} accepted the bid {bad}")


# --------------------------------------------------------------------------
# Threshold payments vs quadrature and externality


def test_worked_example_exact():
    out = vcg_outcome(WORKED, [10.0, 5.0])
    assert out.allocation[0] == pytest.approx(2.0, abs=1e-12)
    assert out.allocation[1] == pytest.approx(1.0, abs=1e-12)
    assert out.payments[0] == pytest.approx(5.0, abs=1e-9)


def test_threshold_matches_quadrature_and_externality(rng):
    for _ in range(12):
        n = int(rng.integers(2, 6))
        oracle = random_table_oracle(rng, n)
        bids = random_bids(rng, n)
        out = vcg_outcome(oracle, bids)
        for i in range(n):
            if out.allocation[i] <= 0:
                continue
            assert out.payments[i] == pytest.approx(
                quadrature_payment(oracle, bids, i), abs=1e-6 * bids[i]
            )
            assert out.payments[i] == pytest.approx(
                vcg_externality(oracle, bids, i), abs=1e-9
            )


# --------------------------------------------------------------------------
# Closed-form threshold outcomes vs the generic greedy + threshold route


class _GenericRoute(RankOracle):
    """Forwards `_rank` only: `vcg_outcome` finds no closed form here and
    runs the greedy + Archer-Tardos loop."""

    def __init__(self, inner):
        super().__init__(inner.n)
        self.inner = inner

    def _rank(self, subset):
        return self.inner.rank(subset)


@given(laminar_markets(integer=True, root="slack"))
@settings(max_examples=300, deadline=None)
def test_slack_laminar_closed_form_is_bitwise_generic(market):
    oracle, bids = market
    assert oracle.threshold_outcome(bids) is not None
    got, want = vcg_outcome(oracle, bids), vcg_outcome(_GenericRoute(oracle), bids)
    assert got.order == want.order
    # every id, the clone's included
    for a in range(oracle.n):
        assert repr(got.allocation[a]) == repr(want.allocation[a])
        assert repr(got.payments[a]) == repr(want.payments[a])


@given(laminar_markets(integer=False, root="slack"))
@settings(max_examples=200, deadline=None)
def test_slack_laminar_closed_form_matches_generic_on_float_demands(market):
    oracle, bids = market
    got, want = vcg_outcome(oracle, bids), vcg_outcome(_GenericRoute(oracle), bids)
    for a in range(oracle.n):
        assert got.allocation[a] == pytest.approx(want.allocation[a], rel=1e-9, abs=1e-9)
        assert got.payments[a] == pytest.approx(want.payments[a], rel=1e-9, abs=1e-9)


@given(laminar_markets(integer=True, root="binding"))
@settings(max_examples=100, deadline=None)
def test_binding_root_takes_the_generic_route(market):
    oracle, bids = market
    assert oracle.threshold_outcome(bids) is None
    out = vcg_outcome(oracle, bids)
    assert out.allocation == vcg_outcome(_GenericRoute(oracle), bids).allocation
    for a in range(oracle.n):
        if out.allocation[a] > 0:
            assert out.payments[a] == pytest.approx(
                vcg_externality(oracle, bids, a), abs=1e-9
            )


def test_a_second_clone_takes_the_generic_route():
    # a clone hands its source to the base's hook; a clone of a clone has
    # no closed form, nor has a clone whose base has none
    once = SubstituteCloneOracle(LaminarOracle([2, 1, 3], [0, 0, 1], [2, 5]), 0)
    twice = SubstituteCloneOracle(once, 1)
    bids = [4.0, 2.5, 1.0, 3.0, 5.0]
    assert once.threshold_outcome(bids[:4]) is not None
    assert once.threshold_outcome(bids[:4], clone_of=0, clone_level=1.0) is None
    assert twice.threshold_outcome(bids) is None
    assert SubstituteCloneOracle(WORKED, 0).threshold_outcome([1.0, 2.0, 3.0]) is None
    got, want = vcg_outcome(twice, bids), vcg_outcome(_GenericRoute(twice), bids)
    assert got.allocation == want.allocation and got.payments == want.payments


def _capped(dag, rng, floats=False):
    # random node capacities on a generated topology, in place
    for v in dag.nodes:
        dag.node_capacity[v] = float(rng.uniform(0.5, 4.0) if floats else rng.integers(1, 5))
    return dag


def _laminar(rng, n, root="slack"):
    # float demands and caps, so group loads depend on summation order
    demands = rng.uniform(0.0, 3.0, size=n).round(3).tolist()
    group_of = rng.integers(0, 4, size=n).tolist()
    caps = rng.uniform(1.0, 9.0, size=4).round(3).tolist()
    ground = LaminarOracle(demands, group_of, caps).rank(range(n))
    root_cap = ground / 2 if root == "binding" else math.inf
    return lambda: LaminarOracle(demands, group_of, caps, root_cap=root_cap)


def _oracle_maker(kind, seed):
    """A zero-argument builder of one fresh oracle of `kind` (own memo)."""
    rng = np.random.default_rng(seed)
    if kind == "table":
        n = int(rng.integers(2, 7))
        return lambda: random_table_oracle(np.random.default_rng(seed), n)
    if kind == "tree_cut":
        h, beta = [(1, 2), (1, 3), (1, 5), (2, 2)][int(rng.integers(4))]
        dag = _capped(generate_topology("tree", h=h, beta=beta), rng, floats=True)
        return lambda: make_oracle(dag, "tree_cut")
    if kind == "sp":
        dag = random_sp_instance(int(rng.integers(2, 7)), seed)
        return lambda: make_oracle(dag, "sp_compositional")
    if kind == "maxflow":
        dag = _capped(generate_topology("entangled", n=int(rng.integers(4, 6))), rng)
        return lambda: make_oracle(dag, "maxflow")
    if kind == "clone":
        base = _laminar(rng, int(rng.integers(2, 8)))
        source = int(rng.integers(0, 2))
        return lambda: SubstituteCloneOracle(base(), source)
    if kind == "scaled":
        n = int(rng.integers(2, 7))
        return lambda: _ScaledOracle(random_table_oracle(np.random.default_rng(seed), n), 0.37)
    # 40 agents: above the memo's size limit, every rank call evaluates
    return _laminar(rng, 40, root="binding")


@st.composite
def share_cases(draw):
    """A fresh-oracle builder, grid bids (zeros and ties common), agent i,
    a priority vector (None, virtual values, or arbitrary with ties) and an
    optional `active` subset."""
    kind = draw(st.sampled_from(["table", "tree_cut", "sp", "maxflow", "clone", "scaled", "laminar40"]))
    make = _oracle_maker(kind, draw(st.integers(0, 10_000)))
    n = make().n
    bids = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.5]), min_size=n, max_size=n))
    priority = draw(st.sampled_from(["bids", "virtual", "arbitrary"]))
    if priority == "bids":
        prio = None
    elif priority == "virtual":
        prio = [2.0 * b - 11.0 for b in bids]
    else:
        prio = draw(st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n))
    active = draw(st.none() | st.sets(st.integers(0, n - 1)))
    return make, bids, draw(st.integers(0, n - 1)), prio, active


@given(share_cases())
@settings(max_examples=300, deadline=None)
def test_share_is_bitwise_the_greedy_share(case):
    # each side ranks through its own fresh oracle, so the memo cannot
    # carry a value from one to the other
    make, bids, i, prio, active = case
    priority_of = None if prio is None else (lambda j, b: prio[j])
    share = _share(make(), bids, i, priority_of, active)
    assert share(bids[i]) == _greedy(make(), bids, prio, active)[0][i]


NON_MONOTONE = TableOracle(3, {
    (): 0, (0,): 2, (1,): 2, (2,): 1, (0, 1): 3, (0, 2): 3, (1, 2): 3, (0, 1, 2): 1,
})


def test_non_monotone_oracle_fails_loudly():
    # f(D) = 1 < f({0, 1}) = 3: the greedy would give agent 2 a share of -2
    message = r"^rank oracle is not monotone: agent 2's marginal rank is -2\.0$"
    bids = [9.0, 5.0, 1.0]
    with pytest.raises(StructureError, match=message):
        vcg_outcome(NON_MONOTONE, bids)
    with pytest.raises(StructureError, match=message):
        edmonds_greedy(NON_MONOTONE, bids)
    with pytest.raises(StructureError, match=message):
        _share(NON_MONOTONE, bids, 2)(bids[2])
    # agents ahead of the drop keep their monotone shares
    assert _share(NON_MONOTONE, bids, 1)(bids[1]) == 1.0


def test_posted_pass_fails_loudly_on_a_non_monotone_oracle():
    # whoever arrives last adds f(D) - f(pair) = 1 - 3 = -2
    with pytest.raises(StructureError, match=r"^rank oracle is not monotone: agent \d's marginal rank is -2\.0$"):
        posted_price_outcome(NON_MONOTONE, [9.0, 5.0, 1.0], 1.0, seed=0)


@st.composite
def payment_cases(draw):
    """A fresh-oracle builder (a table, a small float laminar market with a
    slack or binding root, or a 40-agent one, above the memo's size limit),
    bids with ties, and per agent the keyword arguments `vcg_outcome`,
    `myerson_outcome` or a `discriminate` deviation pass to
    `archer_tardos_payment`."""
    kind = draw(st.sampled_from(["table", "laminar", "laminar40"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "table":
        make = _oracle_maker("table", seed)
    else:
        n = 40 if kind == "laminar40" else draw(st.integers(1, 9))
        make = _laminar(np.random.default_rng(seed), n, draw(st.sampled_from(["slack", "binding"])))
    n = make().n
    grid = st.sampled_from([0.0, 1.0, 2.5, 4.0, 5.5, 7.5, 11.0])
    bid = draw(st.sampled_from([grid, st.floats(0.0, 12.0)]))
    bids = draw(st.lists(bid, min_size=n, max_size=n))
    rule = draw(st.sampled_from(["vcg", "myerson", "discriminate"]))
    if rule == "vcg":
        return make, bids, rule, lambda i: {}
    if rule == "myerson":
        prior = UniformPrior(1.0, draw(st.sampled_from([8.0, 11.0])))
        reserve = prior.reserve()
        active = {j for j in range(n) if bids[j] >= reserve}

        def myerson_args(i):
            pts = [(prior.virtual_value(bids[j]) + prior.hi) / 2.0 for j in active if j != i]
            return dict(priority_of=lambda j, b: prior.virtual_value(b), breakpoints=pts,
                        active=active, eligible_from=reserve)

        return make, bids, rule, myerson_args
    favored = draw(st.sets(st.integers(0, n - 1), min_size=1))
    lift = 2.0 * max(bids) + 1.0

    def discriminate_args(i):
        same = [bids[k] for k in range(n) if k != i and (k in favored) == (i in favored)]
        return dict(priority_of=lambda k, b: b + (lift if k in favored else 0.0), breakpoints=same)

    return make, bids, rule, discriminate_args


@given(payment_cases())
@settings(max_examples=150, deadline=None)
def test_threshold_payment_ranks_what_the_per_segment_sort_ranked(case):
    # every agent's payment in turn on one oracle per side, so the memo
    # carries across agents as it does inside an outcome; the logs hold
    # each rank call's and each evaluation's subset in iteration order
    make, bids, rule, args = case
    got, want = recording(make()), recording(make())
    for i in range(got.n):
        p = archer_tardos_payment(got, bids, i, **args(i))
        q = reference_threshold_payment(want, bids, i, **args(i))
        assert repr(p) == repr(q), (rule, i)
    assert got.log == want.log


@pytest.mark.parametrize("i", [2, -1, 1.0, "1", None])
def test_threshold_payment_rejects_an_agent_outside_the_ground_set(i):
    with pytest.raises(DomainError, match=r"is not in the ground set$"):
        archer_tardos_payment(WORKED, [10.0, 5.0], i)
    # numpy ids are ids, as in `rank`
    assert archer_tardos_payment(WORKED, [10.0, 5.0], np.int64(0)) == 5.0


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_threshold_payment_rejects_a_bad_eligibility_threshold(bad):
    # unchecked, -1.0 priced agent 0 at 4.0 (the segment below 0 at the
    # share of bids above it) and nan at 20.0 (no cut, no area)
    with pytest.raises(DomainError, match=r"^eligible_from must be finite and nonnegative"):
        archer_tardos_payment(WORKED, [10.0, 5.0], 0, eligible_from=bad)
    assert archer_tardos_payment(WORKED, [10.0, 5.0], 0) == 5.0
    assert archer_tardos_payment(WORKED, [10.0, 5.0], 0, eligible_from=-0.0) == 5.0


class _Counting:
    """Counts `rank` calls and `_rank` evaluations on one oracle instance."""

    def __init__(self, oracle):
        self.calls = self.evals = 0
        rank, evaluate = oracle.rank, oracle._rank

        def counted_rank(subset):
            self.calls += 1
            return rank(subset)

        def counted_eval(subset):
            self.evals += 1
            return evaluate(subset)

        oracle.rank, oracle._rank = counted_rank, counted_eval


def rank_work_instances():
    """Fixed generic-route markets by name: (oracle, bids)."""
    rng = np.random.default_rng(20261019)
    tree = _capped(generate_topology("tree", h=1, beta=5), rng)
    flow = _capped(generate_topology("entangled", n=5), rng)
    return {
        "table": (random_table_oracle(rng, 6), [float(b) for b in rng.uniform(0.5, 10.0, 6)]),
        "tree_cut": (make_oracle(tree, "tree_cut"), [float(b) for b in rng.uniform(0.5, 10.0, 5)]),
        "sp": (make_oracle(random_sp_instance(6, 11), "sp_compositional"),
               [8.0, 2.5, 2.5, 6.0, 0.0, 9.5]),
        "maxflow": (make_oracle(flow, "maxflow"), [float(b) for b in rng.uniform(0.5, 10.0, 5)]),
    }


# (rank evaluations, rank calls) of `vcg_outcome` on each instance when a
# threshold payment reran the whole greedy for every segment of the curve
RERUN_RANK_WORK = {
    "table": (21, 168),
    "tree_cut": (9, 35),
    "sp": (14, 65),
    "maxflow": (9, 35),
}


@pytest.mark.parametrize("name", RERUN_RANK_WORK)
def test_threshold_payments_do_less_rank_work(name):
    # two rank calls per segment evaluate no subset the rerun did not
    oracle, bids = rank_work_instances()[name]
    count = _Counting(oracle)
    vcg_outcome(oracle, bids)
    evals, calls = RERUN_RANK_WORK[name]
    assert count.evals <= evals
    assert count.calls < calls


# (rank evaluations, rank calls) of `vcg_outcome` on each instance when
# every segment of a threshold payment's curve sorted all n priorities
PER_SEGMENT_SORT_RANK_WORK = {
    "table": (21, 58),
    "tree_cut": (9, 15),
    "sp": (11, 27),
    "maxflow": (9, 15),
}


@pytest.mark.parametrize("name", PER_SEGMENT_SORT_RANK_WORK)
def test_one_opponent_order_keeps_the_rank_work(name):
    oracle, bids = rank_work_instances()[name]
    count = _Counting(oracle)
    vcg_outcome(oracle, bids)
    assert (count.evals, count.calls) == PER_SEGMENT_SORT_RANK_WORK[name]


@given(seed=st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_payment_individual_rationality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    oracle = random_table_oracle(rng, n)
    bids = random_bids(rng, n)
    out = vcg_outcome(oracle, bids)
    for i in range(n):
        assert -1e-9 <= out.payments[i] <= bids[i] * out.allocation[i] + 1e-9


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_truthful_dominance_under_threshold_payments(seed):
    # fixed opponents: no misreport beats truthful utility
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    oracle = random_table_oracle(rng, n)
    values = random_bids(rng, n)
    i = int(rng.integers(n))
    honest = vcg_outcome(oracle, values)
    u_truth = values[i] * honest.allocation[i] - honest.payments[i]
    for shade in (0.25, 0.5, 0.8, 1.2, 1.6):
        probe = list(values)
        probe[i] = values[i] * shade
        out = run_mechanism(oracle, probe, Mechanism(payment_rule="vcg"))
        u = values[i] * out.allocation[i] - out.payments[i]
        assert u <= u_truth + 1e-7


# --------------------------------------------------------------------------
# Rule-specific behavior


def test_first_price_pays_bid():
    out = run_mechanism(WORKED, [10.0, 5.0], Mechanism(payment_rule="first_price"))
    assert out.payments[0] == pytest.approx(10.0 * out.allocation[0])
    assert out.payments[1] == pytest.approx(5.0 * out.allocation[1])


def test_posted_price_charges_exactly_the_level():
    mech = Mechanism(payment_rule="posted_price", posted_price=4.0)
    out = run_mechanism(WORKED, [10.0, 3.0], mech, seed=3)
    assert out.allocation[1] == 0.0  # bid below the level
    assert out.payments[0] == pytest.approx(4.0 * out.allocation[0])


def test_posted_price_arrival_is_seeded():
    oracle = LaminarOracle([1.0, 1.0, 1.0], [0, 0, 0], [1.0])
    mech = Mechanism(payment_rule="posted_price", posted_price=1.0)
    a = run_mechanism(oracle, [2.0, 2.0, 2.0], mech, seed=5)
    b = run_mechanism(oracle, [2.0, 2.0, 2.0], mech, seed=5)
    assert a.allocation == b.allocation


def test_myerson_reserve_excludes_low_bids():
    prior = UniformPrior(1.0, 11.0)
    mech = Mechanism(payment_rule="myerson", prior=prior)
    out = run_mechanism(WORKED, [10.0, 4.0], mech)
    assert out.meta["reserve"] == pytest.approx(5.5)
    assert out.allocation[1] == 0.0
    assert out.allocation[0] == pytest.approx(2.0)
    # alone above reserve: pays the reserve on its whole quantity
    assert out.payments[0] == pytest.approx(5.5 * 2.0, abs=1e-9)


@st.composite
def myerson_cases(draw):
    """A fresh-oracle builder (a table, a small float laminar market with a
    slack or binding root, or a 40-agent one), a uniform prior, and bids
    below, at and above its reserve, zeros and ties common. Bids reach hi,
    where 2b - hi is exact by Sterbenz's lemma for every b >= hi / 2, or
    3 hi for an integer hi, where it is exact as well."""
    kind = draw(st.sampled_from(["table", "laminar", "laminar40"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "table":
        make = _oracle_maker("table", seed)
    else:
        n = 40 if kind == "laminar40" else draw(st.integers(1, 9))
        make = _laminar(np.random.default_rng(seed), n, draw(st.sampled_from(["slack", "binding"])))
    n = make().n
    prior = UniformPrior(draw(st.sampled_from([0.0, 1.0, 4.5])), draw(st.sampled_from([8.0, 11.0, 7.7, 10.3])))
    r, hi = prior.reserve(), prior.hi
    top = 3.0 * hi if hi.is_integer() else hi
    grid = st.sampled_from([
        0.0, r / 2.0, math.nextafter(r, 0.0), r, math.nextafter(r, math.inf), (r + hi) / 2.0, hi, top,
    ])
    bids = draw(st.lists(st.one_of(grid, st.floats(0.0, top)), min_size=n, max_size=n))
    return make, prior, bids


@given(myerson_cases())
@settings(max_examples=150, deadline=None)
def test_myerson_is_the_virtual_value_greedy(case):
    # the threshold auction with a reserve against the virtual-welfare
    # greedy with breakpoints mapped back from virtual values: the same
    # allocation and payments, bit for bit, from the same rank calls
    make, prior, bids = case
    got, want = recording(make()), recording(make())
    new, old = myerson_outcome(got, bids, prior), reference_myerson_outcome(want, bids, prior)
    for i in range(got.n):
        assert repr(new.allocation[i]) == repr(old.allocation[i]), i
        assert repr(new.payments[i]) == repr(old.payments[i]), i
    assert new.meta == old.meta
    assert got.log == want.log


def test_myerson_serves_a_rounding_tie_above_hi_in_bid_order():
    # above hi, 2b - hi can round: these two adjacent bids share the
    # virtual value 2b - hi = 39.986968873009175, so the virtual-value
    # greedy breaks the tie by id and serves the lower bid first. Their
    # exact virtual values differ, and Myerson serves the higher one first,
    # as the bid order does
    prior = UniformPrior(1.0, 10.3)
    bids = [25.143484436504586, 25.14348443650459]
    assert bids[0] < bids[1] and prior.virtual_value(bids[0]) == prior.virtual_value(bids[1])
    assert reference_myerson_outcome(WORKED, bids, prior).allocation == {0: 2.0, 1: 1.0}
    out = myerson_outcome(WORKED, bids, prior)
    assert out.order == [1, 0] and out.allocation == {0: 1.0, 1: 2.0}
    assert out.allocation == vcg_outcome(WORKED, bids).allocation


def test_myerson_rejects_non_uniform_prior():
    from credmarket.mechanisms import myerson_outcome

    with pytest.raises(UnsupportedPriorError):
        myerson_outcome(WORKED, [10.0, 5.0], prior="lognormal")


def test_mechanism_validation():
    with pytest.raises(ConfigError):
        Mechanism(payment_rule="second_price")
    with pytest.raises(ConfigError):
        Mechanism(payment_rule="myerson")
    with pytest.raises(ConfigError):
        Mechanism(payment_rule="posted_price")
    with pytest.raises(ConfigError):
        UniformPrior(5.0, 5.0)


@pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf, -1.0, "4", True])
def test_posted_price_must_be_finite_and_nonnegative(price):
    # a NaN or infinite price would serve nobody and charge NaN; a string
    # or a bool is no price
    with pytest.raises(ConfigError):
        Mechanism(payment_rule="posted_price", posted_price=price)
    with pytest.raises(ConfigError):
        posted_price_outcome(WORKED, [10.0, 5.0], price, seed=0)


@pytest.mark.parametrize(
    "lo, hi",
    [(0.0, math.inf), (math.nan, 11.0), (1.0, math.nan), ("1", "11"), (False, 11.0), (0.0, True)],
)
def test_uniform_prior_needs_a_bounded_support(lo, hi):
    # an infinite hi would put the reserve at inf, where nobody is served
    with pytest.raises(ConfigError):
        UniformPrior(lo, hi)


# --------------------------------------------------------------------------
# Clinching


def test_clinching_close_to_vcg_on_token_matroids(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 3))
        caps = [int(c) for c in rng.integers(1, 3, size=k)]
        elig = {
            a: set(
                int(x)
                for x in rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
            )
            for a in range(n)
        }
        oracle = Level1Matroid(caps, elig).as_rank_oracle()
        values = random_bids(rng, n)
        clinch = clinching_auction(oracle, values, step=0.01)
        vcg = vcg_outcome(oracle, values)
        for i in range(n):
            assert clinch.allocation[i] == pytest.approx(vcg.allocation[i], abs=1e-9)
            assert abs(clinch.payments[i] - vcg.payments[i]) <= (
                clinch.allocation[i] * 0.01 + 1e-9
            )


def test_clinching_revenue_is_payment_sum():
    oracle = WORKED
    out = clinching_auction(oracle, [10.0, 5.0])
    assert out.revenue == pytest.approx(sum(out.payments.values()))
    assert out.rule == "clinching"


def test_clinching_rejects_bad_step():
    # an infinite step would put the clock at 0 * inf = nan, where no agent
    # ever leaves and the clock never stops
    for step in (0.0, -0.01, math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError):
            clinching_auction(WORKED, [10.0, 5.0], step=step)


def test_clinching_clock_stops_just_below_a_value():
    # 3000 + 5e-10 is within the ceiling's 1e-12 tolerance of 3 steps of
    # 1000, so the clock stops at 3000, more than 1e-12 below the value:
    # its holder leaves there, where the clock once stood for ever
    oracle = LaminarOracle([1.0, 1.0], [0, 0], [1.0])
    out = clinching_auction(oracle, [3000 + 5e-10, 5000.0], step=1000.0)
    assert out.allocation == {0: 0.0, 1: 1.0}
    assert out.payments == {0: 0.0, 1: 3000.0}


def test_clinching_ranks_fractional_laminar_rounds_in_one_call(monkeypatch):
    # every laminar oracle batches its drops, integer or not: one
    # `rank_without_each_many` call per run ranks all of its rounds
    oracle = LaminarOracle([1.5, 0.25, 2.75], [0, 0, 1], [1.0, 2.5])
    calls, many = [], oracle.rank_without_each_many

    def counted(sets):
        calls.append(len(sets))
        return many(sets)

    monkeypatch.setattr(oracle, "rank_without_each_many", counted)
    monkeypatch.setattr(oracle, "rank_without_each", None)
    for transcript in (None, ClinchTranscript(commitment_root="r00t")):
        calls.clear()
        clinching_auction(oracle, [3.0, 2.0, 5.0], step=0.5, transcript=transcript)
        assert calls == [3]


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_clinching_ranks_only_the_sets_it_logs(seed, n, grid):
    # a generic oracle is ranked round by round, so no round past the
    # clearing one is ranked: every set in the memo is some round's D or
    # D - i, or a singleton, whose rank is an opening demand line
    rng = np.random.default_rng(seed)
    oracle = random_table_oracle(rng, n)
    if grid:
        values = [float(v) for v in rng.choice([0.0, 1.0, 2.5, 4.0], n)]
    else:
        values = random_bids(rng, n)
    t = ClinchTranscript(commitment_root="r00t")
    clinching_auction(oracle, values, transcript=t)
    logged = {1 << i for i in range(n)}
    for e in t.events:
        if e["event"] == "round":
            d = sum(1 << i for i in e["active"])
            logged |= {d, *(d ^ 1 << i for i in e["active"])}
    assert set(oracle._memo) <= logged


@given(
    st.one_of(
        laminar_markets(integer=True, root="slack"),
        laminar_markets(integer=True, root="binding"),
        laminar_markets(integer=False, root="slack"),
    ),
    st.sampled_from([0.01, 0.5, 2.0]),
)
@settings(max_examples=150, deadline=None)
def test_clinching_outcome_does_not_depend_on_the_log(market, step):
    # exp2 logs the honest run only when it audits it, in a rerun
    oracle, values = market
    logged = clinching_auction(oracle, values, step, ClinchTranscript(commitment_root="r00t"))
    bare = clinching_auction(oracle, values, step)
    for field in ("allocation", "payments", "order"):
        assert repr(getattr(bare, field)) == repr(getattr(logged, field))


def _chained(prev_tag, event):
    # the chain link, written out: SHA-256 of the previous tag followed by
    # the round's sorted-key compact JSON without its own tag
    body = {k: v for k, v in event.items() if k != "tag"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((prev_tag + text).encode()).hexdigest()


@pytest.mark.parametrize("members", [[], [7], [0, 3, 12], [9, 10, 11, 100, 1000]])
def test_round_events_chain_their_tags(members):
    t = ClinchTranscript(commitment_root="r00t")
    t.demand(7, 1.0)
    assert t.head == "r00t"
    drops = [float(k) for k in range(len(members))]
    t.round(0.0, members, 1.5, drops, [[m, 0.5] for m in members[:1]])
    t.demand(7, 0.0)
    t.round(0.25, members[1:], 2.5, drops[1:], [])
    first, second = (e for e in t.events if e["event"] == "round")
    # drops[k] is f(D - members[k]): the event keeps the writer's order
    assert first["active"] == members and first["drops"] == drops
    assert first["tag"] == _chained("r00t", first)
    assert second["tag"] == _chained(first["tag"], second)
    assert t.head == second["tag"]


def test_transcript_roundtrip_and_malformed():
    t = ClinchTranscript(commitment_root="r00t")
    clinching_auction(WORKED, [10.0, 5.0], transcript=t)
    kinds = {e["event"] for e in t.events}
    assert kinds == {"demand", "round"}
    back = ClinchTranscript.from_json(t.to_json())
    assert back.events == t.events
    assert back.head == t.head
    with pytest.raises(StructureError):
        ClinchTranscript.from_json('{"events": [{}]}')
    with pytest.raises(StructureError):
        ClinchTranscript.from_json("not json")


def _first_round_tag(root, active, rank, drops=()):
    t = ClinchTranscript(commitment_root=root)
    t.round(0.0, active, rank, list(drops), [])
    return t.events[0]["tag"]


def test_rank_auth_tag_binds_root_subset_value():
    # a round's tag authenticates its rank values: it binds the chain's
    # root, the active set, f(D) and the drops
    base = _first_round_tag("root", [0, 1], 3.0, [2.0, 2.0])
    assert _first_round_tag("root", [0, 1], 3.0, [2.0, 2.0]) == base
    assert _first_round_tag("other", [0, 1], 3.0, [2.0, 2.0]) != base
    assert _first_round_tag("root", [0, 1], 3.5, [2.0, 2.0]) != base
    assert _first_round_tag("root", [0, 2], 3.0, [2.0, 2.0]) != base
    assert _first_round_tag("root", [0, 1], 3.0, [2.0, 1.0]) != base


@pytest.mark.parametrize(
    "root, subset, value",
    [
        ("root", {0, 1}, 3.0),
        ("a" * 64, set(range(40)), 123.456),
        ("r\u00f6\"t\n", [], 0.0),
        ("root", {5}, -0.0),
        ("root", {2, 1}, math.inf),
        ("root", {2, 1}, math.nan),
        ("root", {3}, np.float64(0.1)),
        ("root", {3}, 7),
        ("root", {3}, "7.5"),
        ("root", {3}, True),
        ("root", {"b", "a"}, 1e300),
    ],
)
def test_rank_auth_tag_is_the_sorted_compact_json_digest(root, subset, value):
    # the tag of a first round: SHA-256 of the commitment root followed by
    # the sorted-key, compact JSON of the round without its tag
    active = sorted(subset)
    text = json.dumps(
        {"active": active, "clinches": [], "drops": [value], "event": "round",
         "price": 0.0, "rank": value},
        sort_keys=True,
        separators=(",", ":"),
    )
    expected = hashlib.sha256((root + text).encode()).hexdigest()
    assert _first_round_tag(root, active, value, [value]) == expected


def test_outcome_accessors():
    out = MarketOutcome(
        allocation={0: 2.0, 1: 1.0}, payments={0: 5.0, 1: 0.0}, order=[0, 1], rule="vcg"
    )
    assert out.revenue == pytest.approx(5.0)
    assert out.welfare([10.0, 5.0]) == pytest.approx(25.0)
