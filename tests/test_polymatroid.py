"""Rank oracles: axioms, cut-enumeration cross-checks, matroid boundary."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credmarket.adversary import _ScaledOracle
from credmarket.errors import (
    ConfigError,
    DomainError,
    Level2RegimeError,
    MatroidBoundaryError,
    StructureError,
)
from credmarket.metrics import StaircaseOracle
from credmarket.polymatroid import (
    EXHAUSTIVE_AXIOM_LIMIT,
    RANK_TOL,
    CapacityDag,
    LaminarOracle,
    Level1Matroid,
    MaxflowOracle,
    SubstituteCloneOracle,
    TableOracle,
    entangled_oracle,
    generate_topology,
    level1_matroid,
    make_oracle,
    pair_gap,
    random_sp_instance,
    verify_axioms,
)

from conftest import (
    bruteforce_cut_rank,
    matroid_axiom_check,
    networkx_flow_rank,
    networkx_matroid_rank,
    random_table_oracle,
    recording,
    reference_settle_group,
)


def all_subsets(n):
    for r in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), r))


# --------------------------------------------------------------------------
# Axioms


def test_random_table_oracles_satisfy_axioms(rng):
    for _ in range(20):
        oracle = random_table_oracle(rng, int(rng.integers(2, 6)))
        verdict = verify_axioms(oracle)
        assert verdict.ok, verdict.violations[:3]


def test_laminar_oracle_axioms_and_closed_form():
    demands = [3.0, 2.0, 5.0, 1.0, 4.0]
    group_of = [0, 0, 1, 1, 1]
    caps = [4.0, 7.0]
    oracle = LaminarOracle(demands, group_of, caps, root_cap=9.0)
    assert verify_axioms(oracle).ok
    dag = oracle.to_dag()
    # hand expansion: groups clip, then the root clips the total
    for s in all_subsets(5):
        loads = [0.0, 0.0]
        for a in s:
            loads[group_of[a]] += demands[a]
        expected = min(sum(min(l, c) for l, c in zip(loads, caps)), 9.0)
        assert oracle.rank(s) == pytest.approx(expected, abs=1e-12)
        # and the closed form is the min cut of its own capacity tree
        assert oracle.rank(s) == bruteforce_cut_rank(dag, s)


@given(
    n=st.integers(2, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_generated_topology_oracles_are_polymatroids(n, seed):
    rng = np.random.default_rng(seed)
    cls = ["series", "parallel", "tree", "sp", "entangled"][seed % 5]
    if cls == "series":
        dag = generate_topology("series", n=n, d=2)
        oracle = make_oracle(dag)
    elif cls == "parallel":
        dag = generate_topology("parallel", n=n, k=max(2, n - 1))
        oracle = make_oracle(dag)
    elif cls == "tree":
        dag = generate_topology("tree", h=2, beta=2)
        oracle = make_oracle(dag)
    elif cls == "sp":
        dag = generate_topology("sp", n=n, seed=int(rng.integers(1 << 30)))
        oracle = make_oracle(dag)
    else:
        oracle = entangled_oracle(n)
    verdict = verify_axioms(oracle)
    assert verdict.ok, verdict.violations[:3]


# --------------------------------------------------------------------------
# Cut enumeration agrees with the production evaluators


CUT_DAGS = [
    lambda: generate_topology("series", n=3, d=2),
    lambda: generate_topology("parallel", n=4, k=2),
    lambda: generate_topology("tree", h=2, beta=2),
    lambda: generate_topology("sp", n=4),
    lambda: generate_topology("sp", n=5, seed=7),
    lambda: generate_topology("sp", n=4, seed=99),
]


@pytest.mark.parametrize("dag_factory", CUT_DAGS)
def test_rank_matches_bruteforce_cut(dag_factory):
    dag = dag_factory()
    oracle = make_oracle(dag)
    for s in all_subsets(dag.n_agents):
        assert oracle.rank(s) == pytest.approx(
            bruteforce_cut_rank(dag, s), abs=1e-9
        ), f"subset {sorted(s)}"


@pytest.mark.parametrize("dag_factory", CUT_DAGS)
def test_maxflow_matches_bruteforce_cut(dag_factory):
    dag = dag_factory()
    oracle = make_oracle(dag, "maxflow")
    for s in all_subsets(dag.n_agents):
        assert oracle.rank(s) == bruteforce_cut_rank(dag, s), f"subset {sorted(s)}"


@pytest.mark.parametrize("n", [4, 5, 6])
def test_maxflow_matches_entangled_closed_form(n):
    flow = make_oracle(generate_topology("entangled", n), "maxflow")
    closed = entangled_oracle(n)
    for s in all_subsets(n):
        assert flow.rank(s) == closed.rank(s), f"subset {sorted(s)}"


@st.composite
def flow_dags(draw, integer):
    """A random DAG on v0..v{m-1} with sink v{m-1}: every other node has an
    edge to a later one, so every node reaches the sink. Inner nodes may be
    uncapacitated; the sink is not, which bounds every flow."""
    m = draw(st.integers(3, 8))
    nodes = [f"v{i}" for i in range(m)]
    edges = []
    for i in range(m - 1):
        later = st.sampled_from(nodes[i + 1 :])
        edges += [(nodes[i], v) for v in draw(st.lists(later, min_size=1, max_size=3, unique=True))]
    cap = st.integers(0, 4).map(float) if integer else st.floats(0.1, 10.0)
    caps = {v: draw(st.one_of(cap, st.just(math.inf))) for v in nodes[:-1]}
    caps[nodes[-1]] = draw(cap)
    n_agents = draw(st.integers(1, 4))
    leaves = {a: draw(st.sampled_from(nodes[:-1])) for a in range(n_agents)}
    return CapacityDag(nodes, caps, edges, leaves, nodes[-1], "general")


@settings(max_examples=80, deadline=None)
@given(flow_dags(integer=True))
def test_maxflow_is_networkx_flow_on_integer_capacities(dag):
    oracle = MaxflowOracle(dag)
    for s in all_subsets(dag.n_agents):
        assert oracle.rank(s) == networkx_flow_rank(dag, s), f"subset {sorted(s)}"


@settings(max_examples=80, deadline=None)
@given(flow_dags(integer=False))
def test_maxflow_matches_networkx_flow_on_float_capacities(dag):
    oracle = MaxflowOracle(dag)
    for s in all_subsets(dag.n_agents):
        assert math.isclose(oracle.rank(s), networkx_flow_rank(dag, s), rel_tol=1e-12)


def test_maxflow_reroutes_along_reverse_arcs():
    # the first shortest path sends agent 0 through x, the only way out for
    # agent 1; the maximum needs that unit pushed back and sent through y
    nodes = ["a", "b", "x", "y", "s"]
    caps = {"a": 1.0, "b": 1.0, "x": 1.0, "y": 1.0, "s": math.inf}
    edges = [("a", "x"), ("a", "y"), ("b", "x"), ("x", "s"), ("y", "s")]
    dag = CapacityDag(nodes, caps, edges, {0: "a", 1: "b"}, "s", "general")
    assert MaxflowOracle(dag).rank({0, 1}) == 2.0


@pytest.mark.parametrize("caps, edges, leaves, message", [
    pytest.param(
        {"a": math.inf, "s": math.inf}, [("a", "s")], {0: "a"}, "agent 0 reaches",
        id="bare-leaf",
    ),
    pytest.param(
        # agent 0's own leaf is bounded; agent 1 enters past it
        {"a": 2.0, "b": math.inf, "s": math.inf}, [("a", "b"), ("b", "s")],
        {0: "a", 1: "b"}, "agent 1 reaches", id="behind-a-bounded-leaf",
    ),
])
def test_unbounded_flow_is_a_structure_error(caps, edges, leaves, message):
    dag = CapacityDag(list(caps), caps, edges, leaves, "s", "general")
    with pytest.raises(StructureError, match=f"^{message} the sink through infinite capacities"):
        MaxflowOracle(dag)


def test_sp_chain_pair_gaps_are_unit():
    dag = generate_topology("sp", n=6)  # deterministic chain witness
    oracle = make_oracle(dag)
    for i, j in itertools.combinations(range(6), 2):
        assert pair_gap(oracle, i, j) == pytest.approx(1.0, abs=1e-9)


def test_random_sp_instance_is_seed_deterministic():
    a = random_sp_instance(6, seed=5)
    b = random_sp_instance(6, seed=5)
    oa, ob = make_oracle(a), make_oracle(b)
    for s in all_subsets(6):
        assert oa.rank(s) == ob.rank(s)


# --------------------------------------------------------------------------
# Entangled family


def test_entangled_closed_form():
    n = 6
    oracle = entangled_oracle(n)
    total = n * (n - 1) // 2
    for s in all_subsets(n):
        k = len(s)
        expected = total - (n - k) * (n - k - 1) // 2
        assert oracle.rank(s) == pytest.approx(expected, abs=1e-12)
    assert verify_axioms(oracle).ok


def test_entangled_every_pair_overlaps():
    oracle = entangled_oracle(5)
    for i, j in itertools.combinations(range(5), 2):
        assert pair_gap(oracle, i, j) > 0


# --------------------------------------------------------------------------
# Table oracle mechanics


def test_table_oracle_rejects_unknown_agents():
    oracle = TableOracle(2, {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 2.0})
    with pytest.raises(DomainError):
        oracle.rank({0, 5})
    # a generator is read once and still keyed and evaluated
    assert oracle.rank(a for a in (0, 1)) == 2.0
    assert oracle.rank(iter([np.int64(1)])) == 1.0
    for subset in ((), (0,), (1,), (0, 1)):
        oracle.rank(subset)
    # every subset is memoised: a bad id must still never hit the memo
    bad_ids = (-1, 2, 5, 1.0, 0.5, np.float64(0.0), np.int64(64), np.int64(100), "0", None)
    for bad in bad_ids:
        for subset in ({bad}, [0, bad], (a for a in (1, bad))):
            with pytest.raises(DomainError):
                oracle.rank(subset)
    assert oracle.rank({0, 1}) == 2.0
    # memo off (n > 32): the same single pass rejects the same ids, also a
    # float equal to an id already present, which a frozenset would fold away
    wide = LaminarOracle(np.ones(40), np.zeros(40, dtype=int), [100.0])
    assert wide.rank(a for a in (0, 39)) == 2.0
    for bad in (-1, 40, 1.0, np.float64(0.0), np.int64(100), None):
        with pytest.raises(DomainError):
            wide.rank([0, bad])


# --------------------------------------------------------------------------
# Drop-one pass: rank_without_each(S) = (f(S), [f(S - {m}) for m in S])


def _drop_one_by_rank(oracle, members):
    return oracle.rank(members), [
        oracle.rank(members[:k] + members[k + 1 :]) for k in range(len(members))
    ]


@st.composite
def laminar_instances(draw, integer):
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 4))
    if integer:
        demands = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        caps = draw(st.lists(st.integers(0, 12), min_size=k, max_size=k))
    else:
        amount = st.floats(0.0, 10.0, allow_nan=False)
        demands = draw(st.lists(amount, min_size=n, max_size=n))
        caps = draw(st.lists(st.floats(0.0, 20.0), min_size=k, max_size=k))
    group_of = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    members = sorted(draw(st.sets(st.integers(0, n - 1))))
    slack = LaminarOracle(demands, group_of, caps)
    # a binding root cuts the ground set's rank in half
    ground = slack.rank(range(n))
    root = draw(st.sampled_from((math.inf, math.floor(ground / 2) if integer else ground / 2)))
    return LaminarOracle(demands, group_of, caps, root_cap=root), members


@given(laminar_instances(integer=True))
@settings(max_examples=200, deadline=None)
def test_laminar_drop_one_pass_is_bitwise_rank(instance):
    oracle, members = instance
    full, drops = oracle.rank_without_each(members)
    want_full, want_drops = _drop_one_by_rank(oracle, members)
    assert repr(full) == repr(want_full)
    assert [repr(v) for v in drops] == [repr(v) for v in want_drops]


@given(laminar_instances(integer=False))
@settings(max_examples=200, deadline=None)
def test_laminar_drop_one_pass_matches_float_rank(instance):
    oracle, members = instance
    full, drops = oracle.rank_without_each(members)
    want_full, want_drops = _drop_one_by_rank(oracle, members)
    assert full == pytest.approx(want_full, rel=1e-9, abs=1e-9)
    assert drops == pytest.approx(want_drops, rel=1e-9, abs=1e-9)


@given(
    laminar_instances(integer=True),
    st.data(),
    st.sampled_from(("with_source", "without_source", "alone", "no_clone")),
)
@settings(max_examples=200, deadline=None)
def test_clone_drop_one_pass_is_bitwise_rank(instance, data, case):
    base, real = instance
    source = data.draw(st.integers(0, base.n - 1))
    plus = SubstituteCloneOracle(base, source)
    if case == "with_source":
        real = sorted(set(real) | {source})
    elif case == "without_source":
        real = [a for a in real if a != source]
    elif case == "alone":
        real = []
    members = real if case == "no_clone" else real + [plus.clone_id]
    full, drops = plus.rank_without_each(members)
    want_full, want_drops = _drop_one_by_rank(plus, members)
    assert repr(full) == repr(want_full)
    assert [repr(v) for v in drops] == [repr(v) for v in want_drops]


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_generic_drop_one_pass_is_rank(seed, n, data):
    oracle = random_table_oracle(np.random.default_rng(seed), n)
    members = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    assert oracle.rank_without_each(members) == _drop_one_by_rank(oracle, members)


def test_drop_one_pass_edges_and_bad_ids():
    table = TableOracle(2, {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 2.0})
    laminar = LaminarOracle([1, 2, 3], [0, 0, 1], [2, 5])
    clone = SubstituteCloneOracle(laminar, 1)
    for oracle in (table, laminar, clone):
        assert oracle.rank_without_each([]) == (0.0, [])
        assert oracle.rank_without_each([1]) == (oracle.rank({1}), [0.0])
        n = oracle.n
        for bad in (-1, n, 1.0, 0.5, np.float64(0.0), np.int64(64), np.int64(100), "0", None):
            with pytest.raises(DomainError) as by_rank:
                oracle.rank([bad])
            with pytest.raises(DomainError) as by_pass:
                oracle.rank_without_each([bad])
            assert str(by_pass.value) == str(by_rank.value)
            with pytest.raises(DomainError):
                oracle.rank_without_each([0, bad])
        # the pass names each drop by position, so the ids must ascend
        for unsorted in ([1, 0], [0, 0], [0, 1, 1]):
            with pytest.raises(DomainError):
                oracle.rank_without_each(unsorted)


# --------------------------------------------------------------------------
# Batched drop-one pass: rank_without_each_many(sets) = a pass per set


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rank_without_each_many_is_a_pass_per_set(data):
    # any list of sets, nested or not, with empty and repeated ones: a
    # tampered log's rounds need not nest. A clone's sets hold the clone
    # with or without its source, or alone
    kind, oracle, twin, _ = data.draw(prefix_oracles())
    one = st.sets(st.integers(0, oracle.n - 1)).map(sorted)
    sets = data.draw(st.lists(one, max_size=6))
    sets += data.draw(st.lists(st.sampled_from(sets), max_size=3)) if sets else []
    got = oracle.rank_without_each_many(sets)
    want = [twin.rank_without_each(s) for s in sets]
    assert repr(got) == repr(want), kind
    # every laminar oracle, under a clone or not, takes the array pass
    laminar = getattr(oracle, "base", oracle)
    assert oracle.batches_drops == isinstance(laminar, LaminarOracle)


def test_rank_without_each_many_keeps_signed_zeros():
    # the array pass must not turn a 0.0 of the scalar pass into -0.0
    sets = [[], [0], [0, 1], [0, 1, 2], [2]]
    for caps, root in (([-0.0], math.inf), ([-0.0, -0.0], -0.0), ([-0.0, 2.0], math.inf)):
        oracle = LaminarOracle([0.0, -0.0, 1.0], [0, 0, len(caps) - 1], caps, root_cap=root)
        assert oracle.batches_drops
        want = [oracle.rank_without_each(s) for s in sets]
        assert repr(oracle.rank_without_each_many(sets)) == repr(want)


def test_laminar_drop_one_pass_keeps_rank_signed_zeros():
    # the array pass keeps each zero's sign as `rank` gives it
    sets = [[], [0], [0, 1], [0, 1, 2], [2]]
    for caps, root in (([-0.0], math.inf), ([-0.0, -0.0], -0.0), ([-0.0, 2.0], math.inf)):
        oracle = LaminarOracle([0.0, -0.0, 1.0], [0, 0, len(caps) - 1], caps, root_cap=root)
        want = [_drop_one_by_rank(oracle, s) for s in sets]
        assert repr(oracle.rank_without_each_many(sets)) == repr(want)


def test_rank_without_each_many_rejects_what_one_pass_rejects():
    table = TableOracle(2, {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 2.0})
    laminar = LaminarOracle([1, 2, 3], [0, 0, 1], [2, 5])
    wide = LaminarOracle(np.ones(40), np.zeros(40, dtype=int), [100.0])
    for oracle in (table, laminar, wide, SubstituteCloneOracle(laminar, 1), entangled_oracle(3)):
        assert oracle.rank_without_each_many([]) == []
        assert oracle.rank_without_each_many([(a for a in (0, 1))]) == [
            oracle.rank_without_each([0, 1])
        ]
        n = oracle.n
        bad_ids = (-1, n, 1.0, 0.5, np.float64(0.0), np.int64(100), "0", None)
        unsorted = ([1, 0], [0, 0], [0, 1, 1])
        for bad in [[0, b] for b in bad_ids] + list(unsorted):
            with pytest.raises(DomainError) as by_one:
                oracle.rank_without_each(bad)
            with pytest.raises(DomainError) as by_many:
                oracle.rank_without_each_many([[0], bad, [1]])
            assert str(by_many.value) == str(by_one.value)


# --------------------------------------------------------------------------
# Prefix pass: rank_prefixes(order) = [f(order[:1]), ..., f(order)]


def _rank_each_prefix(oracle, order):
    return [oracle.rank(order[: k + 1]) for k in range(len(order))]


def _twin_laminar(oracle):
    return LaminarOracle(oracle.demands, oracle.group_of, oracle.group_caps, oracle.root_cap)


@st.composite
def prefix_oracles(draw):
    """(kind, oracle, twin, exact): one evaluator of a kind, an equal oracle
    with a memo of its own to rank the prefixes on, and whether both must
    agree bitwise (exact-float ranks) or within RANK_TOL."""
    kind = draw(st.sampled_from((
        "table", "tree_cut", "sp", "maxflow", "laminar", "laminar_float",
        "clone", "entangled", "staircase", "scaled",
    )))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "table":
        build = lambda: random_table_oracle(np.random.default_rng(seed), n)
    elif kind == "tree_cut":
        dag = draw(st.sampled_from(CUT_DAGS[:3]))()
        build = lambda: make_oracle(dag, "tree_cut")
    elif kind == "sp":
        build = lambda: make_oracle(random_sp_instance(n, seed))
    elif kind == "maxflow":
        dag = draw(flow_dags(integer=True))
        build = lambda: MaxflowOracle(dag)
    elif kind in ("laminar", "laminar_float"):
        # a slack or a binding root, as `laminar_instances` draws it
        laminar, _ = draw(laminar_instances(integer=kind == "laminar"))
        return kind, laminar, _twin_laminar(laminar), kind == "laminar"
    elif kind == "clone":
        integer = draw(st.booleans())
        laminar, _ = draw(laminar_instances(integer=integer))
        source = draw(st.integers(0, laminar.n - 1))
        clone = SubstituteCloneOracle(laminar, source)
        return kind, clone, SubstituteCloneOracle(_twin_laminar(laminar), source), integer
    elif kind == "entangled":
        build = lambda: entangled_oracle(n)
    elif kind == "staircase":
        entries = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        build = lambda: StaircaseOracle(entries)
    else:
        factor = draw(st.sampled_from((0.5, 0.3)))
        build = lambda: _ScaledOracle(random_table_oracle(np.random.default_rng(seed), n), factor)
    return kind, build(), build(), True


@given(prefix_oracles(), st.data())
@settings(max_examples=300, deadline=None)
def test_rank_prefixes_is_a_rank_per_prefix(case, data):
    kind, oracle, twin, exact = case
    order = data.draw(st.permutations(range(oracle.n)))
    order = order[: data.draw(st.integers(0, oracle.n))]
    if kind == "laminar":
        # integer loads: one running pass over them, no `rank` call
        oracle = recording(oracle)
    got = oracle.rank_prefixes(order)
    want = _rank_each_prefix(twin, order)
    if exact:
        assert [repr(v) for v in got] == [repr(v) for v in want], kind
    else:
        assert got == pytest.approx(want, rel=0.0, abs=RANK_TOL), kind
    if kind == "laminar":
        assert oracle.log == []


def test_rank_prefixes_rejects_bad_and_repeated_ids():
    table = TableOracle(2, {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 2.0})
    laminar = LaminarOracle([1, 2, 3], [0, 0, 1], [2, 5])
    wide = LaminarOracle(np.ones(40), np.zeros(40, dtype=int), [100.0])
    oracles = (
        table, laminar, wide, SubstituteCloneOracle(laminar, 1), entangled_oracle(3),
        StaircaseOracle([1, 2, 2]), _ScaledOracle(table, 0.5),
    )
    for oracle in oracles:
        assert oracle.rank_prefixes([]) == []
        assert oracle.rank_prefixes([np.int64(1), 0]) == _rank_each_prefix(oracle, [1, 0])
        n = oracle.n
        for bad in (-1, n, 1.0, 0.5, np.float64(0.0), np.int64(100), "0", None, [0]):
            for order in ([bad], [0, bad]):
                with pytest.raises(DomainError):
                    oracle.rank_prefixes(order)
        for repeated in ([0, 0], [1, 0, 1], [0, np.int64(0)]):
            with pytest.raises(DomainError):
                oracle.rank_prefixes(repeated)


# --------------------------------------------------------------------------
# Laminar settlement: LaminarOracle.settle(bids, groups, sources, levels)
# row by row against the scalar reference_settle_group(oracle, g, bids,
# source, level)

#: bids from a grid, so zeros and exact ties are common, or any float
BIDS = st.sampled_from([0.0, 1.0, 2.5, 4.0]) | st.floats(0.0, 20.0)


#: demands from a grid of integers, or any float
DEMANDS = st.sampled_from([0.0, 1.0, 3.0, 8.0]) | st.floats(0.0, 10.0)


@st.composite
def settle_rows(draw, integer):
    """A laminar oracle, bids (one shared vector or a row each), 1-6 rows
    (group, source or -1, level), each clone level below, at or above its
    source's bid or tied with a member's, and a demand row for each row,
    integer or fractional."""
    oracle, _ = draw(laminar_instances(integer))
    n, groups = oracle.n, oracle.group_members
    count = draw(st.integers(1, 6))
    if draw(st.booleans()):
        bids = draw(st.lists(BIDS, min_size=n, max_size=n))
        matrix = [bids] * count
    else:
        matrix = bids = [draw(st.lists(BIDS, min_size=n, max_size=n)) for _ in range(count)]
    rows = []
    for row_bids in matrix:
        g = draw(st.integers(0, len(groups) - 1))
        if not groups[g] or draw(st.booleans()):
            rows.append((g, -1, draw(BIDS)))
            continue
        source = draw(st.sampled_from(groups[g]))
        b = row_bids[source]
        ties = [row_bids[m] for m in groups[g]]
        level = draw(st.sampled_from([b, b / 2.0, b + 0.5, *ties]) | BIDS)
        rows.append((g, source, level))
    demands = [draw(st.lists(DEMANDS, min_size=n, max_size=n)) for _ in rows]
    return oracle, bids, rows, demands


def _rows_against_reference(oracle, bids, rows):
    """(got, want) per row: the settled row, padding and clone slot
    included, against the reference over the group's members, zeros and
    the clone."""
    alloc, pay = oracle.settle(bids, *zip(*rows))
    slots = max(map(len, oracle.group_members)) + 1
    assert alloc.shape == pay.shape == (len(rows), slots)
    for w, (g, source, level) in enumerate(rows):
        row_bids = bids[w] if np.ndim(bids) == 2 else bids
        clone = None if source < 0 else source
        want_alloc, want_pay = reference_settle_group(oracle, g, row_bids, clone, level)
        members = oracle.group_members[g]
        ids = [*members, *[None] * (slots - 1 - len(members)), oracle.n]
        yield (
            (alloc[w].tolist(), pay[w].tolist()),
            ([want_alloc.get(a, 0.0) for a in ids], [want_pay.get(a, 0.0) for a in ids]),
        )


@given(settle_rows(integer=True))
@settings(max_examples=300, deadline=None)
def test_batch_placements_are_bitwise_settle_group(case):
    oracle, bids, rows, demands = case
    for got, want in _rows_against_reference(oracle, bids, rows):
        assert repr(got) == repr(want)
    # a row settled alone (W = 1) is its batch row; a row on its own
    # demands, integer or fractional, is that row alone on an oracle of
    # those demands
    own = [
        LaminarOracle(d, oracle.group_of, oracle.group_caps, oracle.root_cap) for d in demands
    ]
    for batch, alone_on in (
        (oracle.settle(bids, *zip(*rows)), [oracle] * len(rows)),
        (oracle.settle(bids, *zip(*rows), demands), own),
    ):
        for w, row in enumerate(rows):
            row_bids = bids[w] if np.ndim(bids) == 2 else bids
            alone = alone_on[w].settle(row_bids, *zip(row))
            assert repr(alone[0].tolist()) == repr(batch[0][w : w + 1].tolist())
            assert repr(alone[1].tolist()) == repr(batch[1][w : w + 1].tolist())


@given(settle_rows(integer=False))
@settings(max_examples=200, deadline=None)
def test_batch_placements_match_settle_group_on_float_demands(case):
    for (alloc, pay), (want_alloc, want_pay) in _rows_against_reference(*case[:3]):
        assert alloc == pytest.approx(want_alloc, rel=1e-9, abs=1e-9)
        assert pay == pytest.approx(want_pay, rel=1e-9, abs=1e-9)


def _sleeper_market():
    # group 0: a tie at 5.0 and a sleeper (demand, zero bid); groups 1 and
    # 2 have one member each, so they pad every group-0 row
    oracle = LaminarOracle([4, 4, 3, 5, 2, 6], [0, 0, 0, 0, 1, 2], [9, 5, 4])
    return oracle, [5.0, 5.0, 0.0, 2.5, 3.0, 1.0]


def test_batch_placements_cover_ties_sleepers_and_lone_members():
    oracle, bids = _sleeper_market()
    rows = [(0, 2, 4.75), (0, 3, 4.0), (0, -1, 0.0), (1, -1, 0.0), (2, 5, 1.0)]
    for got, want in _rows_against_reference(oracle, bids, rows):
        assert repr(got) == repr(want)
    # the sleeper's clone at 4.75 is served below the tied pair and shuts
    # out agent 3; the sleeper itself stays unserved and pays nothing
    alloc, pay = oracle.settle(bids, [0], [2], [4.75])
    assert alloc.tolist() == [[4.0, 4.0, 0.0, 0.0, 1.0]]
    assert pay[0, 2] == 0.0 and pay[0, 4] > 0.0


@pytest.mark.parametrize(
    "level, clone_alloc",
    [(2.5, 0.0), (2.0, 0.0), (0.0, 0.0), (5.0, 1.0)],
    ids=["at-bid", "below-bid", "zero", "on-member-bid"],
)
def test_clone_levels_need_no_bid_window(level, clone_alloc):
    # at or below its source's bid the clone gets nothing; tied with the
    # pair at 5.0 it loses the tie, as id n does, and takes the rest of
    # the cap after them, shutting out its source
    oracle, bids = _sleeper_market()
    for got, want in _rows_against_reference(oracle, bids, [(0, 3, level)]):
        assert repr(got) == repr(want)
        assert got[0][-1] == clone_alloc
        assert (got[0][3] == 0.0) == (clone_alloc > 0.0)


@pytest.mark.parametrize(
    "groups, sources, levels",
    [
        ([0], [3], [math.nan]),
        ([0], [3], [math.inf]),
        ([0], [3], [-0.5]),
        ([1], [3], [4.0]),  # a source from another group
        ([0], [6], [4.0]),  # a source outside the ground set
    ],
)
def test_batch_placements_reject_levels_outside_a_window(groups, sources, levels):
    # the window of a clone level is now [0, inf), in its source's group
    oracle, bids = _sleeper_market()
    with pytest.raises(DomainError):
        oracle.settle(bids, groups, sources, levels)


@pytest.mark.parametrize(
    "bids, groups, demands",
    [
        ([math.nan, 5.0, 0.0, 2.5], [0], None),
        ([math.inf, 5.0, 0.0, 2.5], [0], None),
        ([-3.0, 5.0, 0.0, 2.5], [0], None),
        ([5.0, 5.0, 0.0, 2.5], [7], None),
        ([5.0, 5.0, 0.0, 2.5], [-1], None),
        ([5.0, 5.0, 0.0, 2.5], [0.0], None),
        ([5.0, 5.0, 0.0, 2.5], [True], None),
        ([5.0, 5.0, 0.0, 2.5], [0], [4, 4, 3]),
        ([5.0, 5.0, 0.0, 2.5], [0], [[4, 4, 3, 5]] * 2),
        ([5.0, 5.0, 0.0, 2.5], [0], [4, 4, math.nan, 5]),
        ([5.0, 5.0, 0.0, 2.5], [0], [4, 4, math.inf, 5]),
        ([5.0, 5.0, 0.0, 2.5], [0], [4, -1, 3, 5]),
    ],
    ids=[
        "nan-bid", "inf-bid", "negative-bid", "group-past-end", "negative-group",
        "float-group", "bool-group", "short-demands", "extra-demand-row", "nan-demand",
        "inf-demand", "negative-demand",
    ],
)
def test_settle_rejects_bad_bids_groups_and_demands(bids, groups, demands):
    # a bad input raises, with no NaN payment, warning or wrapped index
    oracle = LaminarOracle([4, 4, 3, 5], [0, 0, 0, 1], [9, 5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            oracle.settle(bids, groups, [-1], [0.0], demands)


def test_oracle_needs_one_agent():
    with pytest.raises(ConfigError):
        TableOracle(0, {(): 0.0})


def test_table_oracle_rejects_bad_tables():
    # a short table over many agents is counted, not enumerated: 2^40 - 1
    # subsets are missing and the first one is found at once
    with pytest.raises(ConfigError, match=r"missing 1099511627775 subsets, e\.g\. \(0,\)"):
        TableOracle(40, {(): 0.0})
    # past 2^64 the count is written as a power: 2^100000 - 1 has over
    # 30,000 digits, more than Python will format
    with pytest.raises(ConfigError, match=r"missing 2\*\*100000 - 1 subsets, e\.g\. \(0,\)"):
        TableOracle(100_000, {(): 0.0})
    with pytest.raises(ConfigError, match="missing 1 subsets"):
        TableOracle(2, {(): 0.0, (0,): 1.0, (1,): 1.0})
    full = {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 2.0}
    for stray in ((2,), (0, -1), (0, 5)):
        with pytest.raises(ConfigError, match="outside 0..1"):
            TableOracle(2, {**full, stray: 1.0})


def test_digest_tracks_content():
    t1 = TableOracle(2, {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 2.0})
    t2 = TableOracle(2, {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 2.0})
    t3 = TableOracle(2, {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 1.5})
    assert t1.digest() == t2.digest()
    assert t1.digest() != t3.digest()


def test_substitute_clone_semantics(rng):
    base = random_table_oracle(rng, 4)
    plus = SubstituteCloneOracle(base, 2)
    g = plus.clone_id
    for s in all_subsets(4):
        assert plus.rank(s) == pytest.approx(base.rank(s), abs=1e-12)
        assert plus.rank(s | {g}) == pytest.approx(base.rank(s | {2}), abs=1e-12)
    # clone and source together add nothing beyond the source alone
    assert plus.rank({2, g}) == pytest.approx(base.rank({2}), abs=1e-12)
    assert verify_axioms(plus).ok


@pytest.mark.parametrize("source", [1.5, "1", 4, -1, None])
def test_substitute_clone_source_must_be_an_agent_id(source):
    # a float source used to pass and fail later as a bare TypeError
    base = LaminarOracle([1.0] * 4, [0] * 4, [2.0])
    with pytest.raises(DomainError, match="ground set"):
        SubstituteCloneOracle(base, source)


# --------------------------------------------------------------------------
# Token matroid


def test_level1_matroid_rank_and_axioms():
    m = Level1Matroid([2, 1], {0: {0}, 1: {0}, 2: {0, 1}, 3: {1}})
    assert m.matroid_rank({0, 1}) == 2
    assert m.matroid_rank({0, 1, 2}) == 3
    assert m.matroid_rank({0, 1, 2, 3}) == 3  # integrator 1 has one token
    assert m.is_independent({0, 2, 3})
    assert not m.is_independent({0, 1, 2, 3})
    ok, witness = matroid_axiom_check(m.is_independent, m.agents)
    assert ok, witness


def test_level1_matroid_oracle_matches_matroid_rank():
    m = Level1Matroid([2, 2], {0: {0}, 1: {0, 1}, 2: {1}, 3: {0, 1}})
    oracle = m.as_rank_oracle()
    for s in all_subsets(4):
        assert oracle.rank(s) == pytest.approx(m.matroid_rank(s), abs=1e-12)
    assert verify_axioms(oracle).ok


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_level1_matroid_rank_is_networkx_flow(data):
    capacities = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    integrators = st.sets(st.integers(0, len(capacities) - 1))
    eligibility = data.draw(st.dictionaries(st.integers(0, 9), integrators, min_size=1, max_size=5))
    m = Level1Matroid(capacities, eligibility)
    for r in range(len(m.agents) + 1):
        for s in itertools.combinations(m.agents, r):
            assert m.matroid_rank(s) == networkx_matroid_rank(capacities, eligibility, s)


def test_fractional_capacity_is_level2():
    with pytest.raises(Level2RegimeError):
        Level1Matroid([1.5, 2], {0: {0}, 1: {1}})


def test_level1_boundary_shared_bottleneck():
    # two integrators claim one token each, but a shared downstream link
    # carries only one unit: the direct sum overpromises
    bottleneck = TableOracle(
        2, {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 1.0}
    )
    with pytest.raises(MatroidBoundaryError) as exc:
        level1_matroid([1, 1], {0: {0}, 1: {1}}, feasibility_oracle=bottleneck)
    assert exc.value.witness == (0, 1)


def test_level1_boundary_accepts_faithful_network():
    faithful = TableOracle(
        2, {(): 0.0, (0,): 1.0, (1,): 1.0, (0, 1): 2.0}
    )
    m = level1_matroid([1, 1], {0: {0}, 1: {1}}, feasibility_oracle=faithful)
    assert m.is_independent({0, 1})


def test_exhaustive_limit_guard():
    elig = {a: {0} for a in range(EXHAUSTIVE_AXIOM_LIMIT + 1)}
    oracle = TableOracle(1, {(): 0.0, (0,): 1.0})
    with pytest.raises(ConfigError):
        level1_matroid([1], elig, feasibility_oracle=oracle)


# --------------------------------------------------------------------------
# Topology generator contracts


def test_parallel_topology_disjoint_groups():
    dag = generate_topology("parallel", n=6, k=3)
    oracle = make_oracle(dag)
    # agents on different paths never overlap
    gaps = [
        pair_gap(oracle, i, j) for i, j in itertools.combinations(range(6), 2)
    ]
    assert any(g == 0 for g in gaps)  # cross-path pairs are modular


def test_tree_topology_unit_root():
    dag = generate_topology("tree", h=3, beta=2)
    oracle = make_oracle(dag)
    n = dag.n_agents
    assert oracle.rank(set(range(n))) == pytest.approx(1.0)


def test_generate_topology_rejects_unknown_class():
    with pytest.raises(ConfigError):
        generate_topology("klein_bottle", n=4)


def test_infinite_root_is_supported():
    oracle = LaminarOracle([2.0, 2.0], [0, 1], [1.0, 1.0], root_cap=math.inf)
    assert oracle.rank({0, 1}) == pytest.approx(2.0)


@pytest.mark.parametrize("demands, group_of, group_caps, root_cap", [
    pytest.param([1.0, 1.0], [0, 5], [1.0], math.inf, id="group-out-of-range"),
    pytest.param([1.0, 1.0], [-1, 0], [1.0], math.inf, id="negative-group"),
    pytest.param([1.0, 1.0], [0], [1.0], math.inf, id="short-group-of"),
    pytest.param([1.0, 1.0], [0.0, 0.5], [1.0], math.inf, id="fractional-group"),
    pytest.param([math.nan, 1.0], [0, 0], [2.0], math.inf, id="nan-demand"),
    pytest.param([-4.0, 1.0], [0, 0], [2.0], math.inf, id="negative-demand"),
    pytest.param([1.0, 1.0], [0, 0], [math.inf], math.inf, id="infinite-group-cap"),
    pytest.param([1.0, 1.0], [0, 0], [-1.0], math.inf, id="negative-group-cap"),
    pytest.param([1.0, 1.0], [0, 0], [2.0], math.nan, id="nan-root"),
    pytest.param(["x", 1.0], [0, 0], [2.0], math.inf, id="string-demand"),
])
def test_laminar_oracle_rejects_malformed_inputs(demands, group_of, group_caps, root_cap):
    with pytest.raises(ConfigError):
        LaminarOracle(demands, group_of, group_caps, root_cap=root_cap)


# --------------------------------------------------------------------------
# Capacity DAG structure checks


@pytest.mark.parametrize("nodes, edges, leaves, sink, cls, message", [
    pytest.param(
        ["a", "b", "t"], [("a", "b"), ("b", "a"), ("b", "t")], {0: "a"}, "t", "general",
        "capacity graph contains a cycle", id="cycle",
    ),
    pytest.param(
        ["a", "b", "t"], [("b", "t")], {0: "b", 1: "a"}, "t", "general",
        "leaf of agent 1 cannot reach the sink", id="stranded-leaf",
    ),
    pytest.param(
        # five nodes and four edges, but a-b-r closes a loop and c-d floats
        ["r", "a", "b", "c", "d"], [("a", "r"), ("b", "r"), ("a", "b"), ("c", "d")],
        {0: "a"}, "r", "tree", "tree topology must be a connected tree", id="disconnected-tree",
    ),
    pytest.param(
        ["r", "a", "b"], [("a", "r"), ("a", "b")], {0: "a"}, "r", "tree",
        "tree nodes must have a unique edge toward the sink", id="two-out-edges",
    ),
    pytest.param(
        # the Wheatstone bridge: every inner vertex keeps degree 3
        ["s", "a", "b", "t"], [("s", "a"), ("s", "b"), ("a", "b"), ("a", "t"), ("b", "t")],
        {0: "s"}, "t", "sp", "graph fails series-parallel recognition", id="wheatstone",
    ),
])
def test_capacity_dag_rejects_bad_structure(nodes, edges, leaves, sink, cls, message):
    caps = dict.fromkeys(nodes, 1.0)
    with pytest.raises(StructureError, match=f"^{message}$"):
        CapacityDag(nodes, caps, edges, leaves, sink, cls)


def test_series_parallel_recognition_accepts_without_grammar():
    # two leaves joined, then a link: parallel then series reductions
    nodes = ["l0", "l1", "j", "t"]
    dag = CapacityDag(
        nodes, dict.fromkeys(nodes, 1.0), [("l0", "j"), ("l1", "j"), ("j", "t")],
        {0: "l0", 1: "l1"}, "t", "sp",
    )
    assert dag.sp_tree is None
    # every grammar-built network is recognised from its bare graph too
    for seed in range(20):
        built = random_sp_instance(5, seed)
        CapacityDag(
            built.nodes, built.node_capacity, built.edges, built.leaves, built.sink, "sp"
        )


def test_laminar_layout_is_shared_and_read_only():
    # the member layout depends on the groups alone: oracles with the same
    # groups share its arrays, whatever their demands and caps
    a = LaminarOracle([4, 4, 3, 5], [0, 0, 0, 1], [9, 5])
    b = LaminarOracle([1, 2, 3, 4], [0, 0, 0, 1], [8, 6])
    assert len(a._slots) == 3
    for mine, theirs in zip(a._slots, b._slots):
        assert mine is theirs
        with pytest.raises(ValueError):
            mine[...] = 0
