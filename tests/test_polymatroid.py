"""Rank oracles: axioms, cut-enumeration cross-checks, matroid boundary."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credmarket.errors import (
    ConfigError,
    DomainError,
    Level2RegimeError,
    MatroidBoundaryError,
)
from credmarket.polymatroid import (
    EXHAUSTIVE_AXIOM_LIMIT,
    LaminarOracle,
    Level1Matroid,
    SubstituteCloneOracle,
    TableOracle,
    entangled_oracle,
    generate_topology,
    level1_matroid,
    make_oracle,
    matroid_axiom_check,
    pair_gap,
    random_sp_instance,
    verify_axioms,
)

from conftest import bruteforce_cut_rank, random_table_oracle


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


@pytest.mark.parametrize(
    "dag_factory",
    [
        lambda: generate_topology("series", n=3, d=2),
        lambda: generate_topology("parallel", n=4, k=2),
        lambda: generate_topology("tree", h=2, beta=2),
        lambda: generate_topology("sp", n=4),
        lambda: generate_topology("sp", n=5, seed=7),
        lambda: generate_topology("sp", n=4, seed=99),
    ],
)
def test_rank_matches_bruteforce_cut(dag_factory):
    dag = dag_factory()
    oracle = make_oracle(dag)
    for s in all_subsets(dag.n_agents):
        assert oracle.rank(s) == pytest.approx(
            bruteforce_cut_rank(dag, s), abs=1e-9
        ), f"subset {sorted(s)}"


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
