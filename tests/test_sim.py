"""Service-market simulator: scenario config, round generation, settlement
routes, ghost scan, and the experiment runners."""

import dataclasses
import gc
import hashlib
import itertools
import json
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from credmarket import sim
from credmarket.adversary import DeviationStrategy, apply_deviation
from credmarket.credibility import (
    make_commitment,
    tamper_forge_rank,
    tamper_ghost_clinch,
    tamper_inflate_clinch,
    verify_transcript,
)
from credmarket.errors import ConfigError, DomainError, StructureError
from credmarket.mechanisms import ClinchTranscript, Mechanism, clinching_auction, vcg_outcome
from credmarket._stream import Lanes, entropy_words, seed_states
from credmarket.polymatroid import LaminarOracle, RankOracle, SubstituteCloneOracle
from credmarket.sim import (
    CSV_FIELDS,
    POS_TOL,
    RoundProfile,
    ScenarioConfig,
    _SybilTranscript,
    arrival_order,
    best_ghost,
    generate_round,
    ghost_candidates,
    report_digest,
    report_json,
    rows_to_csv,
    run_experiment,
    run_exp3,
    run_r5,
    settle_posted,
    settle_threshold,
)

from conftest import (
    clone_splice_posted,
    ghost_settle,
    rechain,
    reference_generate_round,
    reference_ghost_candidates,
)

TINY = ScenarioConfig(rounds=3, seeds=(17,))


# --------------------------------------------------------------------------
# Scenario config


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(n_agents=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(rounds=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(seeds=())
    with pytest.raises(ConfigError):
        ScenarioConfig(tier_capacities=(200.0, 300.0))
    with pytest.raises(ConfigError):
        ScenarioConfig(deadlines_ms=(100.0, -1.0))
    with pytest.raises(ConfigError):
        ScenarioConfig(value_decay_per_ms=-0.1)
    with pytest.raises(ConfigError):
        ScenarioConfig(deadlines_ms=())
    # config-file values are rejected, never coerced: to_dict() is digested
    base = ScenarioConfig().to_dict()
    for bad in (
        {"rounds": "abc"},
        {"rounds": 2.0},
        {"rounds": True},
        {"seeds": [1.5]},
        {"seeds": [True]},
        {"seeds": [-1]},
        {"seeds": [17, -2]},
        {"seeds": 17},
        {"arrival_rate": float("nan")},
        {"arrival_rate": "2"},
        {"arrival_rate": 1e19},
        {"arrival_rate": sim.MAX_ARRIVAL_RATE * (1 + 1e-15)},
        {"value_decay_per_ms": float("inf")},
        {"tier_capacities": [200.0, float("nan"), 500.0]},
        {"deadlines_ms": [100.0, None, 200.0]},
        {"topology_class": "banana"},
        {"topology_class": ["tree"]},
    ):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({**base, **bad})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict([("rounds", 3)])
    ScenarioConfig(arrival_rate=sim.MAX_ARRIVAL_RATE)


def test_config_dict_roundtrip():
    cfg = ScenarioConfig(rounds=7, seeds=(1, 2), topology_class="sp")
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


def test_config_rejects_unknown_keys_and_versions():
    base = ScenarioConfig().to_dict()
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({**base, "turbo": True})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({**base, "version": 99})


def test_pod_layout_respects_budgets():
    cfg = ScenarioConfig()
    pods = cfg.pods()
    assert len(pods) == 8
    assert sum(len(p.units) for p in pods) == cfg.n_agents
    assert sum(p.capacity for p in pods) <= cfg.tier_capacities[-1]
    for t in range(3):
        tier_total = sum(p.capacity for p in pods if p.tier == t)
        assert tier_total <= cfg.tier_capacities[t]
    with pytest.raises(ConfigError):
        ScenarioConfig(n_agents=39).pods()


# --------------------------------------------------------------------------
# Round generation


def test_generate_round_is_deterministic():
    a = generate_round(TINY, 17, 0)
    b = generate_round(TINY, 17, 0)
    assert np.array_equal(a.bids, b.bids)
    assert np.array_equal(a.demands, b.demands)
    c = generate_round(TINY, 18, 0)
    assert not np.array_equal(a.bids, c.bids)


def test_generate_round_structure():
    profile = generate_round(TINY, 42, 3)
    cfg = TINY
    assert profile.n == cfg.n_agents
    assert np.all(profile.bids >= 0.0)
    assert np.all(profile.bids <= 11.0)
    units = [u for pod in cfg.pods() for u in pod.units]
    for a in range(profile.n):
        # demand is task count times the agent's unit size
        assert profile.demands[a] % units[a] == 0
        if profile.bids[a] > 0:
            assert profile.demands[a] > 0


def test_round_oracle_is_the_pod_laminar():
    profile = generate_round(TINY, 17, 1)
    oracle = profile.oracle
    full = set(range(profile.n))
    expected = min(
        profile.root_cap,
        sum(
            min(sum(profile.demands[a] for a in oracle.group_members[p]), profile.pod_caps[p])
            for p in range(len(profile.pod_caps))
        ),
    )
    assert oracle.rank(full) == pytest.approx(expected)


#: seeds whose entropy words cross the 32- and 64-bit boundaries
STREAM_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5)


@pytest.mark.parametrize("rate", (0.3, 2.0, 7.5, 10.0, 12.5, 40.0))
@pytest.mark.parametrize(
    "deadlines",
    ((120.0,), (100.0, 150.0, 200.0), (60.0, 90.0, 120.0, 150.0, 400.0)),
    ids=lambda d: f"{len(d)}_deadlines",
)
def test_round_stream_is_numpys(rate, deadlines):
    # Poisson by multiplication below rate 10 and by PTRS from 10 up; one
    # deadline draws no integer at all
    config = ScenarioConfig(arrival_rate=rate, deadlines_ms=deadlines, rounds=4)
    for seed in STREAM_SEEDS:
        per_seed = list(sim.seed_rounds(config, seed))
        for r in (0, 3):
            want = reference_generate_round(config, seed, r)
            for got in (generate_round(config, seed, r), per_seed[r]):
                assert got.bids.tobytes() == want.bids.tobytes()
                assert got.demands.tobytes() == want.demands.tobytes()


def _same_profile(a, b):
    return all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in ("bids", "demands", "pod_of", "pod_caps")
    ) and a.root_cap == b.root_cap


@pytest.mark.parametrize("seed", [0, 17, 2**32 + 5])
def test_seed_rounds_are_generate_round(seed, monkeypatch):
    # one seed-sequence pass per block of rounds, each row of a pass one
    # width wide, and the rounds as `generate_round` realizes them one by one
    widths, states = [], sim.seed_states

    def spy(rows):
        widths.append(np.asarray(rows).shape)
        return states(rows)

    monkeypatch.setattr(sim, "seed_states", spy)
    config = ScenarioConfig(rounds=7, seeds=(seed,))
    profiles = list(sim.seed_rounds(config, seed))
    assert widths == [(7 * config.n_agents, len(entropy_words(seed)) + 2)]
    assert len(profiles) == config.rounds
    for r, profile in enumerate(profiles):
        assert _same_profile(profile, generate_round(config, seed, r))
    # blocks end at HASH_BLOCK_ROUNDS and where a round index gains a word
    monkeypatch.setattr(sim, "HASH_BLOCK_ROUNDS", 3)
    widths.clear()
    start = 2**32 - 4
    blocks = list(sim._realize(config, seed, start, 7))
    word = len(entropy_words(seed))
    assert [w for _, w in widths] == [word + 2, word + 2, word + 3]
    for k, profile in enumerate(blocks):
        assert _same_profile(profile, reference_generate_round(config, seed, start + k))


def test_seed_rounds_draw_in_bounded_memory():
    # a block's hash and draw arrays are (rounds x agents) wide, so the
    # block size bounds what a long run holds at once
    config = ScenarioConfig(rounds=128)
    list(sim.seed_rounds(config, 17))  # imports and caches outside the trace
    tracemalloc.start()
    try:
        for _ in sim.seed_rounds(config, 17):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_a_round_profile_is_freed_after_its_round():
    # a profile and its block's chunks form no reference cycle: once its
    # round is done, a profile goes by reference counting alone, its
    # oracle and settlement with it, while the block's later rounds wait
    config = ScenarioConfig(rounds=12, seeds=(17,))
    rounds = sim.seed_rounds(config, 17)
    gc.disable()
    try:
        for _ in range(3):
            profile = next(rounds)
            best_ghost(profile, *settle_threshold(profile))
            freed = weakref.ref(profile)
            del profile
            next(rounds)
            assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("seed, r", [(-1, 0), (17, -1), (17, 1.0), (17, "1"), (True, 0)])
def test_generate_round_rejects_bad_indices(seed, r):
    # a negative index has no entropy words: it used to loop forever
    with pytest.raises(ConfigError):
        generate_round(TINY, seed, r)


@pytest.mark.parametrize(
    "prefix",
    (
        [],
        [17],
        [2**32 - 1, 0],
        [2**32, 7],
        [2**64 + 5, 2**32 - 1],
        [0, 2**32],
        [2**96 - 1, 2**40 + 3, 5],
    ),
)
def test_seed_hashing_is_numpys(prefix):
    # widths 1-7 words: below, at and past the four-word pool
    agents = (0, 1, 39, 2**32 - 1)
    rows = [sum(map(entropy_words, [*prefix, a]), []) for a in agents]
    got = seed_states(rows)
    for row, a in zip(got, agents):
        want = np.random.SeedSequence([*prefix, a]).generate_state(4, np.uint64)
        assert row.tobytes() == want.tobytes()


def test_stream_draws_are_numpys():
    # one lane per agent stream: the stashed high half of a 32-bit draw
    # survives the double draws between two integer draws, a bound past
    # 2**31 rejects about half its 32-bit draws, and PTRS runs far past the
    # model's rates
    agents = range(30)
    every = np.arange(len(agents))
    entropy = [[2**32 + agent, 11, agent] for agent in agents]
    lanes = Lanes(seed_states([sum(map(entropy_words, row), []) for row in entropy]))
    rngs = [np.random.default_rng(np.random.SeedSequence(row)) for row in entropy]
    for lam in (0.3, 9.99, 10.0, 37.5, 1e3, 1e5):
        for _ in range(40):
            assert lanes.poisson(lam).tolist() == [rng.poisson(lam) for rng in rngs]
            assert lanes.integers(3, every).tolist() == [rng.integers(3) for rng in rngs]
            got = lanes.uniform(0.5, 6.0, every).tolist()
            assert got == [rng.uniform(0.5, 6.0) for rng in rngs]
            for n in (7, 2**31 + 1):
                assert lanes.integers(n, every).tolist() == [rng.integers(n) for rng in rngs]
    # past numpy's largest mean both refuse
    for draw in (lanes.poisson, rngs[0].poisson):
        with pytest.raises(ValueError, match="lam value too large"):
            draw(1e19)


def test_arrival_order_is_a_seeded_permutation():
    order = arrival_order(TINY, 17, 0)
    assert sorted(order) == list(range(TINY.n_agents))
    assert order == arrival_order(TINY, 17, 0)
    assert order != arrival_order(TINY, 17, 1)


# --------------------------------------------------------------------------
# Ghost scan


def _first_ghost_round(config, seed):
    for r in range(60):
        profile = generate_round(config, seed, r)
        honest = settle_threshold(profile)
        pick = best_ghost(profile, *honest)
        if pick is not None:
            return profile, honest, pick
    raise AssertionError("no profitable phantom found in 60 rounds")


@pytest.mark.parametrize(
    "exp, config",
    [
        ("exp1", ScenarioConfig(rounds=100, seeds=(17, 42))),
        ("r5", ScenarioConfig(rounds=4, seeds=(17, 42))),
    ],
    ids=["exp1", "r5_small"],
)
def test_ghost_scan_is_the_per_window_reference(monkeypatch, exp, config):
    # every scan the experiment makes, field by field (repr also tells a
    # numpy float from a Python one)
    scan, found = sim.ghost_candidates, []

    def checked(profile, alloc=None, pay=None):
        got = scan(profile, alloc, pay)
        assert repr(got) == repr(reference_ghost_candidates(profile, alloc, pay))
        found.append(len(got))
        return got

    monkeypatch.setattr(sim, "ghost_candidates", checked)
    run_experiment(exp, config)
    assert len(found) >= config.rounds * len(config.seeds) and sum(found) > 0


def _count_settlements(monkeypatch):
    # every `LaminarOracle.settle` call, as its rows (bids, demands, group,
    # source, level), the bid and demand rows as tuples
    calls, settle = [], LaminarOracle.settle

    def spy(self, bids, groups, sources, levels, demands=None):
        tables = (
            np.broadcast_to(np.asarray(table, dtype=float), (len(groups), self.n)).tolist()
            for table in (bids, self.demands if demands is None else demands)
        )
        calls.append([
            (tuple(b), tuple(d), int(g), int(source), float(level))
            for b, d, g, source, level in zip(*tables, groups, sources, levels)
        ])
        return settle(self, bids, groups, sources, levels, demands)

    monkeypatch.setattr(LaminarOracle, "settle", spy)
    return calls


def _round_rows(profile):
    # a round's settle rows: each pod honestly, then each phantom placement
    bids, demands = tuple(profile.bids.tolist()), tuple(profile.demands.tolist())
    _, _, (pods, sources, levels, _) = profile.settlement
    return [(bids, demands, p, -1, 0.0) for p in range(len(profile.pod_caps))] + [
        (bids, demands, *placement)
        for placement in zip(pods.tolist(), sources.tolist(), levels.tolist())
    ]


def _check_round_calls(calls, profiles):
    # the calls hold every round's rows exactly once, in round order, a few
    # rounds to a call: a call ends only where a round ends, and holds at
    # most SETTLE_ROWS rows
    calls = list(calls)
    rows = [_round_rows(profile) for profile in profiles]
    assert sum(calls, []) == sum(rows, [])
    ends = set(itertools.accumulate(map(len, rows)))
    assert set(itertools.accumulate(map(len, calls))) <= ends
    assert max(map(len, calls)) <= sim.SETTLE_ROWS
    assert len(calls) < len(profiles)


def test_ghost_scan_settles_no_single_window(monkeypatch):
    config = ScenarioConfig(rounds=10, seeds=(17,))
    calls = _count_settlements(monkeypatch)
    profiles, found = [], 0
    for profile in sim.seed_rounds(config, 17):
        honest = settle_threshold(profile)
        cands = ghost_candidates(profile, *honest)
        # each candidate is its own placement's row, after a row per pod
        _, _, placements = profile.settlement
        first = len(profile.pod_caps)
        assert len(set(c.row for c in cands)) == len(cands)
        for c in cands:
            placement = [x[c.row - first] for x in placements[:3]]
            assert placement == [c.pod, c.source, c.level]
        profiles.append(profile)
        found += len(cands)
    assert found > 0
    # the honest world and every placement of every round
    _check_round_calls(calls, profiles)


def test_every_settlement_is_one_engine_call(monkeypatch):
    profile, honest, pick = _first_ghost_round(ScenarioConfig(rounds=60, seeds=(17,)), 17)
    calls = _count_settlements(monkeypatch)
    pods = len(profile.pod_caps)
    # the round's call was made by the scan; reading it again makes none
    assert settle_threshold(profile) == honest
    deviated = sim._ghost_world(profile, pick, honest)
    assert calls == []
    # the generic clone route, the runners' reference, is one call too
    assert ghost_settle(profile, pick.source, pick.level) == deviated
    assert list(map(len, calls)) == [pods]
    # a slack laminar oracle built by hand takes the same single call
    oracle = LaminarOracle([4, 4, 3, 5], [0, 0, 0, 1], [9, 5])
    vcg_outcome(oracle, [5.0, 5.0, 0.0, 2.5])
    vcg_outcome(SubstituteCloneOracle(oracle, 2), [5.0, 5.0, 0.0, 2.5, 4.75])
    assert list(map(len, calls)) == [pods, 2, 2]
    # the pick's certificate worlds, raised, fill and entrant, as three
    # distinct rows of one call
    sim._certify_pick(profile, pick, honest, deviated)
    assert list(map(len, calls)) == [pods, 2, 2, 3]
    assert len(set(calls[-1])) == 3


def _rounds_settled(report):
    # rounds the runner generated: every round of every seed (and, in r5,
    # of every topology)
    config = report["config"]
    tasks = 3 if report["experiment"] == "r5" else 1
    return config["rounds"] * len(config["seeds"]) * tasks


@pytest.mark.parametrize("exp", ["exp1", "exp2", "r5"])
def test_each_round_settles_in_one_call(monkeypatch, exp):
    # r5 and exp2's `best_ghost` settle a round in one call, with the
    # rounds after it in its block; exp1 certifies its picks together,
    # each pick's certificate worlds its distinct rows on its round's
    # demands
    config = ScenarioConfig(rounds=12, seeds=(17, 42))
    calls = _count_settlements(monkeypatch)
    profiles, claims, certifying = [], [], []
    rounds, claim, certify = sim.seed_rounds, sim._claim, sim._certify

    def drawn(config, seed):
        for profile in rounds(config, seed):
            profiles.append(profile)
            yield profile

    def claimed(*args):
        claims.append(claim(*args))
        return claims[-1]

    def certified(oracle, batch):
        first = len(calls)
        verdicts = certify(oracle, batch)
        certifying.extend(calls[first:])
        del calls[first:]
        return verdicts

    monkeypatch.setattr(sim, "seed_rounds", drawn)
    monkeypatch.setattr(sim, "_claim", claimed)
    monkeypatch.setattr(sim, "_certify", certified)
    report = run_experiment(exp, config)
    assert len(profiles) == _rounds_settled(report)
    _check_round_calls(calls, profiles)
    picks = len(report.get("picks", ()))
    assert len(claims) == picks and (exp != "exp1" or picks > 0)
    want = []
    for c in claims:
        rows = [
            (tuple(b), tuple(c.demands.tolist()), pod, source, float(level))
            for b, pod, source, level in c.worlds
        ]
        assert len(set(rows)) == len(rows)
        want += rows
    assert sum(certifying, []) == want
    assert len(certifying) <= len(config.seeds) if picks else certifying == []
    assert all(len(call) <= sim.SETTLE_ROWS for call in certifying)


def _check_split(calls, units):
    # the calls hold every unit's rows exactly once, in order, a call
    # ending only where a unit ends; a call over SETTLE_ROWS rows holds
    # one unit alone
    assert sum(calls, []) == sum(units, [])
    ends = set(itertools.accumulate(map(len, units)))
    assert set(itertools.accumulate(map(len, calls))) <= ends
    assert all(len(call) <= sim.SETTLE_ROWS or call in units for call in calls)


@pytest.mark.parametrize("cap", [1, 40])
@pytest.mark.parametrize(
    "exp, config",
    [
        ("exp1", ScenarioConfig(rounds=30, seeds=(17, 42))),
        ("r5", ScenarioConfig(rounds=4, seeds=(17, 42))),
    ],
    ids=["exp1", "r5_small"],
)
def test_the_row_cap_cuts_calls_and_moves_no_digest(monkeypatch, exp, config, cap):
    # the cap only says where the rows of rounds and of claims are cut into
    # calls: the digest is the default cap's, and exp1's certification
    # crosses call boundaries
    want = run_experiment(exp, config)["digest"]
    monkeypatch.setattr(sim, "SETTLE_ROWS", cap)
    calls = _count_settlements(monkeypatch)
    profiles, claims, certifying = [], [], []
    rounds, claim, certify = sim.seed_rounds, sim._claim, sim._certify

    def drawn(config, seed):
        for profile in rounds(config, seed):
            profiles.append(profile)
            yield profile

    def claimed(*args):
        claims.append(claim(*args))
        return claims[-1]

    def certified(oracle, batch):
        first = len(calls)
        verdicts = certify(oracle, batch)
        certifying.extend(calls[first:])
        del calls[first:]
        return verdicts

    monkeypatch.setattr(sim, "seed_rounds", drawn)
    monkeypatch.setattr(sim, "_claim", claimed)
    monkeypatch.setattr(sim, "_certify", certified)
    assert run_experiment(exp, config)["digest"] == want
    _check_split(calls, [_round_rows(profile) for profile in profiles])
    _check_split(certifying, [
        [
            (tuple(b), tuple(c.demands.tolist()), pod, source, float(level))
            for b, pod, source, level in c.worlds
        ]
        for c in claims
    ])
    assert len(certifying) > len(config.seeds) if exp == "exp1" else certifying == []


def test_exp1_builds_one_oracle_per_seed(monkeypatch):
    # every round of a seed settles, scans and certifies on its blocks'
    # one pod oracle
    builds, init = [], LaminarOracle.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LaminarOracle, "__init__", counted)
    config = ScenarioConfig(rounds=12, seeds=(17, 42))
    report = run_experiment("exp1", config)
    assert report["picks"] and 0 < len(builds) <= len(config.seeds)


def test_a_replaced_profile_settles_on_its_own_bids():
    # a `dataclasses.replace` copy of a drawn round, even one at the
    # round's own index, is a block of one on its own oracle: it settles
    # on its own bids, never on its source's block rows
    profile = next(sim.seed_rounds(ScenarioConfig(rounds=3, seeds=(17,)), 17))
    original = settle_threshold(profile)
    copy = dataclasses.replace(profile, bids=profile.bids * 0.5)
    want = vcg_outcome(copy.oracle, copy.bids.tolist())
    got = settle_threshold(copy)
    assert repr(got) == repr((want.allocation, want.payments))
    assert got != original


@pytest.mark.parametrize(
    "exp, config",
    [
        ("exp1", ScenarioConfig(rounds=100, seeds=(17, 42))),
        ("r5", ScenarioConfig(rounds=4, seeds=(17, 42))),
    ],
    ids=["exp1", "r5_small"],
)
def test_round_settlement_is_the_generic_route_bitwise(monkeypatch, exp, config):
    # every round of the run: the honest world read off the pod rows, the
    # scan read off the placement rows and the pick's world read off its
    # row, each repr-equal to the route it replaced
    settle, scan, world = sim.settle_threshold, sim.ghost_candidates, sim._ghost_world
    seen = {"honest": 0, "scan": 0, "world": 0}

    def honest(profile):
        got = settle(profile)
        want = vcg_outcome(profile.oracle, profile.bids.tolist())
        assert repr(got) == repr((want.allocation, want.payments))
        seen["honest"] += 1
        return got

    def candidates(profile, alloc=None, pay=None):
        got = scan(profile, alloc, pay)
        assert repr(got) == repr(reference_ghost_candidates(profile, alloc, pay))
        seen["scan"] += 1
        return got

    def deviated(profile, pick, honest_world):
        got = world(profile, pick, honest_world)
        assert repr(got) == repr(ghost_settle(profile, pick.source, pick.level))
        seen["world"] += 1
        return got

    monkeypatch.setattr(sim, "settle_threshold", honest)
    monkeypatch.setattr(sim, "ghost_candidates", candidates)
    monkeypatch.setattr(sim, "_ghost_world", deviated)
    report = run_experiment(exp, config)
    assert seen["honest"] == _rounds_settled(report)
    assert seen["scan"] >= len(report["rows"]) // (13 if exp == "r5" else 1)
    assert seen["world"] > 0


def test_ghost_surplus_and_damage_are_exact():
    profile, (alloc_h, pay_h), pick = _first_ghost_round(
        ScenarioConfig(rounds=60, seeds=(42,)), 42
    )
    alloc_d, pay_d = ghost_settle(profile, pick.source, pick.level)
    assert sum(pay_d.values()) - sum(pay_h.values()) == pytest.approx(pick.surplus)
    dropped = sum(
        (alloc_h[a] - alloc_d[a]) * profile.bids[a] for a in range(profile.n)
    )
    assert dropped == pytest.approx(pick.damage, abs=1e-9)


def test_ghost_scan_is_the_reference_on_ties_and_narrow_windows():
    # profiles built by hand, where bids tie, sleep at 0.0 or sit within
    # 1e-6 of each other, pods differ in size and the root sometimes binds:
    # the array pass lists the placements the per-window loop does
    rng = np.random.default_rng(5)
    grid = np.array([0.0, 2.0, 2.0 + 5e-7, 3.5, 5.0, 7.25])
    found = 0
    for _ in range(150):
        pod_of = np.repeat(np.arange(3), rng.integers(1, 6, 3))
        n = len(pod_of)
        profile = RoundProfile(
            bids=rng.choice(grid, n),
            demands=rng.integers(0, 9, n).astype(float),
            pod_of=pod_of,
            pod_caps=rng.integers(1, 16, 3).astype(float),
            root_cap=float(rng.choice([500.0, 12.0])),
        )
        got = ghost_candidates(profile)
        assert repr(got) == repr(reference_ghost_candidates(profile))
        found += len(got)
    assert found > 0


def test_live_winning_sources_need_opponent_cover():
    config = ScenarioConfig(rounds=10, seeds=(101,))
    for r in range(config.rounds):
        profile = generate_round(config, 101, r)
        alloc, pay = settle_threshold(profile)
        for cand in ghost_candidates(profile, alloc, pay):
            if profile.bids[cand.source] > 0 and alloc[cand.source] > POS_TOL:
                members = profile.oracle.group_members[cand.pod]
                opp = sum(profile.demands[m] for m in members if m != cand.source)
                assert opp >= profile.pod_caps[cand.pod] - POS_TOL


def test_profitable_phantom_round_is_fully_certified():
    profile, honest, pick = _first_ghost_round(ScenarioConfig(rounds=60, seeds=(17,)), 17)
    deviated = ghost_settle(profile, pick.source, pick.level)
    kept = sim._certify_pick(profile, pick, honest, deviated)
    # every moved agent, and only a moved agent, needs a certificate of
    # its own; the rest hold the honest profile
    moved = {
        a for a in range(profile.n)
        if abs(deviated[0][a] - honest[0][a]) > POS_TOL
        or abs(deviated[1][a] - honest[1][a]) > POS_TOL
    }
    assert moved and set(kept) == moved
    assert None not in kept.values()


def test_exp1_certifies_as_apply_deviation_does():
    # the pod-row replay and the generic replay try the same certificate
    # families: equal verdicts on every pick, and each moved agent keeps
    # the certificate `apply_deviation` keeps
    config = ScenarioConfig(rounds=30, seeds=(17, 42))
    vcg = Mechanism(payment_rule="vcg")
    picks = 0
    for seed in config.seeds:
        for profile in sim.seed_rounds(config, seed):
            honest = settle_threshold(profile)
            pick = best_ghost(profile, *honest)
            if pick is None:
                continue
            picks += 1
            deviated = sim._ghost_world(profile, pick, honest)
            kept = sim._certify_pick(profile, pick, honest, deviated)
            strategy = DeviationStrategy("ghost_bid", source=pick.source, level=pick.level)
            result = apply_deviation(strategy, profile.bids.tolist(), vcg, profile.oracle)
            verdict = {a: kept.get(a, True) is not None for a in range(profile.n)}
            assert verdict == result.undetectable
            assert kept == {a: result.certificates[a] for a in kept}
            # a view that no certificate reproduces stays uncertified
            a = next(iter(kept))
            alloc, pay = dict(deviated[0]), dict(deviated[1])
            pay[a] += 1e-6
            assert sim._certify_pick(profile, pick, honest, (alloc, pay))[a] is None
    assert picks > 0


def test_round_settlement_checks_bids_and_falls_back_on_a_binding_root():
    # a profile built by hand: a root below the pods' total binds, and the
    # honest world then takes the generic route, as `vcg_outcome` does
    bound = RoundProfile(
        bids=np.array([6.0, 4.0, 3.0, 5.0]),
        demands=np.array([8.0, 5.0, 4.0, 6.0]),
        pod_of=np.array([0, 0, 0, 1]),
        pod_caps=np.array([10.0, 6.0]),
        root_cap=12.0,
    )
    want = vcg_outcome(bound.oracle, bound.bids.tolist())
    assert repr(settle_threshold(bound)) == repr((want.allocation, want.payments))
    bad = RoundProfile(
        bids=np.array([6.0, np.nan, 3.0]),
        demands=np.array([8.0, 5.0, 4.0]),
        pod_of=np.array([0, 0, 0]),
        pod_caps=np.array([10.0]),
        root_cap=500.0,
    )
    with pytest.raises(DomainError):
        settle_threshold(bad)


# --------------------------------------------------------------------------
# Posted-price settlement


def _toy_profile():
    return RoundProfile(
        bids=np.array([6.0, 4.0, 3.0]),
        demands=np.array([8.0, 5.0, 4.0]),
        pod_of=np.array([0, 0, 0]),
        pod_caps=np.array([10.0]),
        root_cap=500.0,
    )


def test_posted_serves_first_come_above_level():
    alloc, pay, ghost = settle_posted(_toy_profile(), 5.0, [1, 0, 2])
    assert ghost == 0.0
    assert alloc == {0: 8.0, 1: 0.0, 2: 0.0}
    assert pay[0] == pytest.approx(40.0)


def test_posted_phantom_drains_capacity_before_source_buys():
    # the phantom fronts the source's slot: source 2 is pressed out and the
    # drained capacity squeezes the later legitimate buyer
    alloc, pay, ghost = settle_posted(_toy_profile(), 5.0, [2, 0, 1], phantom=(2, 7.0))
    assert ghost == pytest.approx(4.0)
    assert alloc[2] == 0.0
    assert alloc[0] == pytest.approx(6.0)
    assert pay[0] == pytest.approx(30.0)


def test_posted_phantom_below_level_is_inert():
    base = settle_posted(_toy_profile(), 5.0, [2, 0, 1])
    ghosted = settle_posted(_toy_profile(), 5.0, [2, 0, 1], phantom=(2, 4.0))
    assert ghosted == base


def test_settle_posted_is_the_generic_posted_pass():
    # `settle_posted` is one `_posted_pass` on the round's oracle, the
    # phantom settled by lifting its source to the phantom's level; the
    # reference runs the clone itself on `SubstituteCloneOracle`, arriving
    # just ahead of its source, and its take is the ghost take. Honest
    # worlds meet the reference through an inert clone below the price
    config = ScenarioConfig(rounds=40, seeds=(17, 42))
    phantoms = 0
    for seed in config.seeds:
        for r, profile in enumerate(sim.seed_rounds(config, seed)):
            bids = profile.bids.tolist()
            arrival = arrival_order(config, seed, r)
            pick = best_ghost(profile)
            for level in sim.POSTED_LEVELS:
                alloc, pay, ghost = settle_posted(profile, level, arrival)
                want = clone_splice_posted(profile.oracle, bids, level, arrival, 0, 0.0)
                assert repr((alloc, ghost)) == repr(want)
                assert repr(pay) == repr({a: level * x for a, x in alloc.items()})
                if pick is None:
                    continue
                for phantom in ((pick.source, max(pick.level, level)), (pick.source, level / 2)):
                    alloc, pay, ghost = settle_posted(profile, level, arrival, phantom=phantom)
                    want = clone_splice_posted(profile.oracle, bids, level, arrival, *phantom)
                    assert repr((alloc, ghost)) == repr(want)
                    phantoms += 1
    assert phantoms >= 200


# --------------------------------------------------------------------------
# Experiment plumbing


@pytest.mark.parametrize("exp", ["exp1", "exp2", "exp3", "r5"])
def test_a_run_without_positive_welfare_names_the_cause(exp):
    # every value decays to 0: no round has a market to deviate from, and
    # the steep decay overflows to a value of 0 without a numpy warning
    config = ScenarioConfig.from_dict({"rounds": 2, "seeds": [1], "value_decay_per_ms": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="no round has positive welfare"):
            run_experiment(exp, config)


def test_run_experiment_reports_are_reproducible():
    report_a = run_experiment("exp1", config=TINY)
    report_b = run_experiment("exp1", config=TINY)
    assert report_json(report_a) == report_json(report_b)
    assert report_digest(report_a) == report_digest(report_b)
    assert report_a["config"] == TINY.to_dict()
    for row in report_a["rows"]:
        assert tuple(row) == CSV_FIELDS


def test_exp3_small_run_is_exact():
    report = run_exp3(ScenarioConfig(rounds=10, seeds=(17,)))
    summary = report["summary"]
    assert summary["applied_rounds"] >= 1
    assert summary["all_exact"]
    assert summary["all_positive"]


@pytest.mark.parametrize("exp", ["exp1", "exp2", "exp3", "r5"])
def test_parallel_jobs_keep_the_digest(exp):
    config = ScenarioConfig(rounds=4, seeds=(17, 42))
    serial = run_experiment(exp, config=config, jobs=1)
    parallel = run_experiment(exp, config=config, jobs=2)
    assert parallel["digest"] == serial["digest"]


@pytest.mark.parametrize("jobs", [0, -1, 1.5, True, "2", None])
def test_run_experiment_rejects_bad_jobs(jobs):
    with pytest.raises(ConfigError):
        run_experiment("exp1", config=TINY, jobs=jobs)


def test_pool_never_outsizes_the_tasks(monkeypatch):
    # a recorder in place of the pool: nothing is started
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", Recorder)
    assert sim._map_jobs(abs, [-1, -2, -3], 100_000) == [1, 2, 3]
    assert sim._map_jobs(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert sim._map_jobs(abs, [-4], 8) == [4]
    assert sizes == [3, 2]


@pytest.mark.parametrize("exp, ranks", [("exp1", False), ("r5", False), ("exp2", True)])
def test_only_exp2_reaches_the_rank_oracle(exp, ranks, monkeypatch):
    # exp1 and r5 settle in the pod-local engine and never call
    # `RankOracle.rank`; exp2's clinching auction reads each demand f({i})
    # from it. The benchmark's per-layer counts read the same split
    calls = []
    rank = RankOracle.rank

    def spy(self, subset):
        calls.append(self.n)
        return rank(self, subset)

    monkeypatch.setattr(RankOracle, "rank", spy)
    run_experiment(exp, ScenarioConfig(rounds=2, seeds=(7,)))
    assert bool(calls) == ranks


#: summary digests of every experiment at rounds=4, seeds=(17, 42)
SMALL_DIGESTS = {
    "exp1": "e71899d82eda0524eb842dc88e9c995e7d084867f923fd0b255c8af575370f0d",
    "exp2": "a51db42601b96db6a6bd27c2b28c6f8fd752dcb1547eb6e97d31caf7eb91deb3",
    "exp3": "1d1ca0f33bf74d6b304d39c8b829dc02eaf9b48872cd730cba061143200b09c8",
    "r5": "994f059c8bef754f7503df8304777cf4f020df226f958c9629e8699bc519d71f",
}


@pytest.mark.parametrize("exp", sorted(SMALL_DIGESTS))
def test_small_config_digests_are_pinned(exp):
    report = run_experiment(exp, ScenarioConfig(rounds=4, seeds=(17, 42)))
    assert report["digest"] == SMALL_DIGESTS[exp]


#: summary digests of the four experiments at the default ScenarioConfig
DEFAULT_DIGESTS = {
    "exp1": "011e0ec45351aca4f0b57ac19063fae8b3f7fb633b15915bc26982a772309f5e",
    "exp2": "1ae36ea83068e6d932be14be3e828ed4e29237228561871baf85f6a27b41f2d4",
    "exp3": "fca9c3840f0c007b9ef906e2e8f586ce40f9b08ac8f81bce6ee0635f6c2d1083",
    "r5": "5125cabbf026232a5275395f141af85abf01179d2481a739d5a6fa7da0eb8c51",
}


@pytest.mark.parametrize("exp", sorted(DEFAULT_DIGESTS))
def test_default_config_digests_are_pinned(exp):
    assert run_experiment(exp, ScenarioConfig())["digest"] == DEFAULT_DIGESTS[exp]


#: SHA-256 of the rounds=4, seeds=(17, 42) clinching transcripts and
#: verdicts below, each list joined by newlines
CLINCH_PINS = {
    "honest": "426ca077ccf717ea2ad700857daa683ff9334447e5054ef8fca44f3f199dbbf6",
    "sybil": "1aa8d9a800b778e440dc7091c23b3e78b6cc55566de4ea900668e578356c07e3",
    "verdicts": "f31906171b4dd0109553ab208ba368e3247e64982b85078eac18941b6002fa62",
}

#: the `consistent` flag of each verdict below, per round: the honest log,
#: the sybil log with and without the oracle, a forged rank and a withheld
#: round. These are the flags the per-subset transcript format gave (a
#: withheld rank announcement in place of the round), so a re-pin of the
#: digests above cannot hide a lost detection
CLINCH_CONSISTENT = [True, False, False, False, False] * 8
CLINCH_CONSISTENT[7] = True  # seed 17 round 1: the sybil log replays clean without the oracle

#: events in each honest transcript: 40 opening demands, one demand per
#: leaver and one round event per clock round
CLINCH_EVENTS = [95, 89, 94, 91, 89, 101, 89, 92]


def _clinch_logs(config):
    # (profile, oracle, root, honest log, sybil log) of each small-config round
    for seed in config.seeds:
        for r in range(config.rounds):
            profile = generate_round(config, seed, r)
            oracle = profile.oracle
            root = make_commitment(oracle, "clinching", "clinch_pay")
            honest = ClinchTranscript(commitment_root=root)
            clinching_auction(oracle, list(profile.bids), transcript=honest)
            pick = best_ghost(profile)
            plus = SubstituteCloneOracle(oracle, pick.source)
            sybil = _SybilTranscript(root, plus.clone_id)
            clinching_auction(plus, list(profile.bids) + [pick.level], transcript=sybil)
            yield profile, oracle, root, honest, sybil


def test_clinch_transcripts_are_pinned():
    # byte-identical transcripts and equal verdicts, violations in order,
    # not only the same exp2 summary digest
    texts = {name: [] for name in CLINCH_PINS}
    consistent, events = [], []
    for _, oracle, root, honest, sybil in _clinch_logs(ScenarioConfig(rounds=4, seeds=(17, 42))):
        texts["honest"].append(honest.to_json())
        texts["sybil"].append(sybil.to_json())
        events.append(len(honest.events))
        # a forged value and a withheld round reach the inauthentic_rank
        # path of the replay
        gap = ClinchTranscript(commitment_root=root)
        withheld = [k for k, e in enumerate(honest.events) if e["event"] == "round"][2]
        gap.events = [e for k, e in enumerate(honest.events) if k != withheld]
        verdicts = [
            verify_transcript(honest, root, oracle=oracle),
            verify_transcript(sybil, root, oracle=oracle),
            verify_transcript(sybil, root),
            verify_transcript(tamper_forge_rank(honest, which=3), root, oracle=oracle),
            verify_transcript(gap, root, oracle=oracle),
        ]
        consistent += [v.consistent for v in verdicts]
        texts["verdicts"] += [json.dumps(v.to_json(), sort_keys=True) for v in verdicts]
    digests = {
        name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for name, lines in texts.items()
    }
    assert consistent == CLINCH_CONSISTENT
    assert events == CLINCH_EVENTS
    assert digests == CLINCH_PINS


def _tampered_logs(honest, n):
    events = honest.events
    rounds = [k for k, e in enumerate(events) if e["event"] == "round"]
    leaver = next(k for k in range(rounds[0], len(events)) if events[k]["event"] == "demand")
    a, b = rounds[1], rounds[2]

    def edited(new_events):
        t = ClinchTranscript(commitment_root=honest.commitment_root)
        t.events = new_events
        return t

    def relisted(ids):
        t = edited([dict(e) for e in events])
        t.events[rounds[0]]["active"] = ids
        return rechain(t)

    first = events[rounds[0]]["active"]
    return {
        "inflate": tamper_inflate_clinch(honest),
        "ghost-clinch": tamper_ghost_clinch(honest, agent=first[0]),
        "forge-rank": tamper_forge_rank(honest, which=3),
        "retagged-forgery": rechain(tamper_forge_rank(honest, which=3)),
        "rounds-swapped": edited(events[:a] + [events[b]] + events[a + 1 : b] + [events[a]]
                                 + events[b + 1 :]),
        "middle-round-omitted": edited(events[:a] + events[a + 1 :]),
        "tail-truncated": edited(events[: rounds[-1]]),
        "leaver-demand-withheld": edited(events[:leaver] + events[leaver + 1 :]),
        "active-float-id": relisted([float(first[0])] + first[1:]),
        "active-out-of-range": relisted(first + [n]),
    }


def test_every_tamper_of_an_exp2_log_is_flagged():
    for profile, oracle, root, honest, _ in _clinch_logs(ScenarioConfig(rounds=2, seeds=(17, 42))):
        for name, bad in _tampered_logs(honest, profile.n).items():
            verdict = verify_transcript(bad, root, oracle=oracle)
            assert not verdict.consistent, name


def _malformed_logs(honest, n):
    # a bad line before the first round and after the third: an id the
    # oracle cannot rank raises DomainError at its round, any other bad
    # field StructureError, and an earlier bad round wins over a later id
    events = honest.events
    rounds = [k for k, e in enumerate(events) if e["event"] == "round"]
    untagged = {k: v for k, v in events[rounds[1]].items() if k != "tag"}
    lines = {
        "non-dict": ["demand", 0, 1.0],
        "unknown-kind": {"event": "price_step"},
        "text-demand": {"event": "demand", "agent": 0, "demand": "x"},
        "unhashable-agent": {"event": "demand", "agent": [0], "demand": 1.0},
        "text-agent": {"event": "demand", "agent": "a", "demand": 1.0},
        "float-agent": {"event": "demand", "agent": 1.5, "demand": 1.0},
        "out-of-range-agent": {"event": "demand", "agent": n, "demand": 1.0},
    }
    logs = {}
    for name, line in lines.items():
        for at in (rounds[0], rounds[3]):
            logs[f"{name}@{at}"] = events[:at] + [line] + events[at:]
    logs["untagged-then-bad-id"] = (
        events[: rounds[1]] + [untagged] + events[rounds[1] + 1 : rounds[3]]
        + [lines["out-of-range-agent"]] + events[rounds[3] :]
    )
    return {
        name: ClinchTranscript(commitment_root=honest.commitment_root, events=new)
        for name, new in logs.items()
    }


def test_batched_replay_is_the_per_round_replay(monkeypatch):
    # the verifier ranks every round's set in one batched call; with that
    # call swapped for a plain pass per set, every verdict and every error
    # must stay the same, so the array pass cannot hide a detection
    logs = []
    config = ScenarioConfig(rounds=2, seeds=(17, 42))
    for profile, oracle, root, honest, sybil in _clinch_logs(config):
        gap = [k for k, e in enumerate(honest.events) if e["event"] == "round"][2]
        cases = {
            "honest": honest,
            "sybil": sybil,
            "gap": ClinchTranscript(root, [e for k, e in enumerate(honest.events) if k != gap]),
            **_tampered_logs(honest, profile.n),
            **_malformed_logs(honest, profile.n),
        }
        logs += [(name, log, root, oracle) for name, log in cases.items()]

    def outcomes():
        out = []
        for name, log, root, oracle in logs:
            try:
                out.append((name, "verdict", verify_transcript(log, root, oracle=oracle).to_json()))
            except Exception as exc:
                out.append((name, type(exc), str(exc)))
        return out

    singles, one = [], RankOracle.rank_without_each

    def single(self, members):
        singles.append([a for a in members if not (type(a) is int and 0 <= a < self.n)])
        return one(self, members)

    monkeypatch.setattr(RankOracle, "rank_without_each", single)
    batched = outcomes()
    # the batched call ranked every round whose set passes the id checks
    assert singles and all(singles)
    monkeypatch.undo()
    monkeypatch.setattr(
        RankOracle, "rank_without_each_many", lambda self, sets: [one(self, s) for s in sets]
    )
    assert outcomes() == batched
    raised = {name.split("@")[0]: kind for name, kind, _ in batched if kind != "verdict"}
    assert len(raised) == 8
    assert raised["float-agent"] is raised["out-of-range-agent"] is DomainError
    assert raised["untagged-then-bad-id"] is raised["text-agent"] is StructureError
    # of the 4 rounds' logs only the honest ones replay clean
    assert sum(v["consistent"] for _, kind, v in batched if kind == "verdict") == 4


def test_r5_propagates_unexpected_errors(monkeypatch):
    # only the library's own conc failures become {"error": ...} labels
    def broken(*args):
        raise TypeError("not a domain failure")

    monkeypatch.setattr(sim, "conc", broken)
    with pytest.raises(TypeError):
        run_r5(ScenarioConfig(rounds=1, seeds=(17,)))


@pytest.mark.parametrize("latencies", [[1e308, 1e308, 1e308], [6.0, 18.0, 55.0]])
def test_r5_rejects_tier_latencies_it_would_not_use(latencies):
    # each class draws at `CLASS_TIER_LATENCIES`, so other latencies in the
    # config would be recorded in the report for a run that never used them
    config = ScenarioConfig.from_dict({"rounds": 2, "seeds": [17], "tier_latencies_ms": latencies})
    with pytest.raises(ConfigError, match="its own tier latencies"):
        run_experiment("r5", config)
    # the default, given as integers or floats, runs
    for default in ([5, 15, 50], [5.0, 15.0, 50.0]):
        config = ScenarioConfig.from_dict({"rounds": 1, "seeds": [17], "tier_latencies_ms": default})
        assert run_experiment("r5", config)["config"]["tier_latencies_ms"] == default


def test_r5_settles_each_posted_world_once(monkeypatch):
    # per round and posted level: the honest pass, plus the phantom's pass
    # when the ghost scan picked one
    calls = []
    settle = sim.settle_posted

    def counted(profile, level, arrival, phantom=None):
        calls.append(phantom is not None)
        return settle(profile, level, arrival, phantom)

    monkeypatch.setattr(sim, "settle_posted", counted)
    config = ScenarioConfig(rounds=2, seeds=(17,))
    run_r5(config)
    runs = 3 * config.rounds * len(sim.POSTED_LEVELS)
    assert calls.count(False) == runs
    assert calls.count(True) <= runs


def test_r5_rows_pair_the_worlds_of_their_round():
    rows = run_r5(ScenarioConfig(rounds=3, seeds=(17, 42)))["rows"]
    assert len(rows) == 234
    by_key = {(r["seed"], r["round"], r["condition"]): r for r in rows}
    seen = {"truthful": 0, "first_price-ghost": 0, "inflator": 0}
    for row in rows:
        topo, name = row["condition"].split(":")
        if name.endswith("-truthful") or "-truthful@" in name:
            assert row["rev_dev"] == row["rev_honest"]
            assert row["welfare_dev"] == row["welfare_honest"]
            assert row["detected"] == 0
            seen["truthful"] += 1
        elif name == "first_price-ghost":
            vcg = by_key[row["seed"], row["round"], f"{topo}:vcg-ghost"]
            assert {**row, "condition": vcg["condition"]} == vcg
            seen[name] += 1
        elif name.startswith("posted_price-inflator@"):
            assert row["rev_dev"] == row["rev_honest"] * (1 + sim.INFLATOR_MARKUP)
            assert row["welfare_dev"] == row["welfare_honest"]
            assert row["detected"] == int(row["rev_honest"] > 0)
            seen["inflator"] += 1
    # 18 kept rounds: 5 truthful, 1 first-price ghost and 3 inflator rows each
    assert seen == {"truthful": 90, "first_price-ghost": 18, "inflator": 54}


def test_r5_ghost_surplus_is_rule_invariant():
    report = run_r5(ScenarioConfig(rounds=2, seeds=(17,)))
    conds = report["conditions"]
    assert len(conds) == 39  # 13 conditions x 3 topology classes
    for topo in ("tree", "sp", "entangled"):
        vcg = conds[f"{topo}:vcg-ghost"]["conc"]["conc_op"]
        fp = conds[f"{topo}:first_price-ghost"]["conc"]["conc_op"]
        assert vcg == pytest.approx(fp, abs=1e-9)


# --------------------------------------------------------------------------
# Broadcast-facing transcript of a deviating operator


def test_sybil_transcript_withholds_the_phantom():
    t = _SybilTranscript("rootdigest", ghost_id=40)
    t.demand(3, 2.0)
    t.demand(40, 5.0)
    # executed: f(D) = 7, f(D - 3) = 5, f(D - 40) = 4
    t.round(0.5, [3, 40], 7.0, [5.0, 4.0], [[3, 1.0], [40, 1.0]])
    assert [e.get("agent") for e in t.events if e["event"] == "demand"] == [3]
    (announced,) = (e for e in t.events if e["event"] == "round")
    # relabeled to the ground set: the round lists the real members and
    # reports the phantom's drop as their f(D)
    assert announced["active"] == [3]
    assert announced["rank"] == 4.0
    assert announced["drops"] == [5.0]
    assert announced["clinches"] == [[3, 1.0]]
    honest = ClinchTranscript("rootdigest")
    honest.round(0.5, [3], 4.0, [5.0], [[3, 1.0]])
    assert announced["tag"] == honest.events[0]["tag"]


# --------------------------------------------------------------------------
# Serialization helpers


def test_report_json_rounds_and_sorts():
    text = report_json({"b": 0.123456789123456, "a": 2})
    assert text == '{"a":2,"b":0.123456789}'


def test_rows_to_csv_layout():
    rows = [
        {
            "round": 0,
            "seed": 17,
            "condition": "vcg-ghost",
            "rev_honest": 1.23456789123,
            "rev_dev": 2.0,
            "welfare_honest": 3.0,
            "welfare_dev": 4.0,
            "detected": 0,
        }
    ]
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert lines[1].startswith("0,17,vcg-ghost,1.23456789,")
