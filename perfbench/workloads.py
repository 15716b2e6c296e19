"""The benchmark workloads: inputs from a seed, the timed calls, the output checks.

Every workload draws its operations from a fixed pool whose outputs are
pinned in `pins.json`; the benchmark seed picks which pool entries run and
in which order. The program receives only the generated configs or market
instances, and is driven only through its public entry points:
`sim.run_experiment` and the public functions of `mechanisms`, `adversary`,
`metrics` (plus `polymatroid` to build the oracles).

A *round* is one (seed, round) of a `run_experiment` config, counted once
per topology in r5, or one market instance of `generic_route`, counting
each (parameter, seed) witness market of a scaling sweep. Rounds skipped by
the program for zero welfare still count.
"""

import contextlib
import hashlib
import itertools
import json
import random
import resource
import time
from dataclasses import dataclass, field

import numpy as np

#: scenario seeds of pool entry i are SCENARIO_SEED_BASE + i * seeds_per_op + k
SCENARIO_SEED_BASE = 1000
POOL_SIZE = 48

#: generic_route pools: market instances are generated from
#: (GENERIC_GEN_SEED, index) and the unperturbable ones dropped, once, by pin.py
GENERIC_GEN_SEED = 20260814
GENERIC_POOL_SIZE = 512
GENERIC_KINDS = ("tree_cut", "sp", "maxflow", "table")
SWEEP_POOL_SIZE = 16
#: the witness grids `credmarket sweep` serves (acceptance criterion C08)
SWEEP_GRIDS = {
    "series": (2, 4, 8, 16),
    "parallel": (1, 2, 4, 8),
    "tree": (1, 2, 3, 4),
    "entangled": (4, 6, 8, 12),
}
SURPLUS_TOL = 1e-9


@dataclass
class Op:
    key: str  # pins.json key
    rounds: int
    payload: object


@dataclass
class Sample:
    """One timed operation: its cost and what its checks found."""

    wall: float = 0.0
    cpu: float = 0.0
    ref: float = 0.0  # reference-loop seconds around the operation
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, what):
        self.failed += 1
        self.errors.append(what)


def cpu_seconds():
    """CPU time of this process plus its reaped children (pool workers)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class _Timer:
    def __init__(self, sample):
        self.sample = sample

    def __enter__(self):
        self.wall, self.cpu = time.perf_counter(), cpu_seconds()

    def __exit__(self, *exc):
        self.sample.wall += time.perf_counter() - self.wall
        self.sample.cpu += cpu_seconds() - self.cpu


def _round9(obj):
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.9g}")
    if isinstance(obj, dict):
        return {str(k): _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def digest(obj):
    """16-hex-digit SHA-256 of canonical JSON, floats at 9 significant digits."""
    blob = json.dumps(_round9(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _order(seed, keys, length):
    """Seeded walk over the pool: shuffled passes, concatenated."""
    rng = random.Random(seed)
    out = []
    while len(out) < length:
        keys = list(keys)
        rng.shuffle(keys)
        out += keys
    return out[:length]


# --------------------------------------------------------------------------
# run_experiment workloads


class ExperimentWorkload:
    """`sim.run_experiment(exp, config, jobs)` on pool configs.

    Each op is one config of `seeds_per_op` scenario seeds and `rounds`
    rounds; checks are the pinned report digest plus the experiment's
    paper invariants.
    """

    def __init__(self, name, exp, seeds_per_op, rounds, nominal_op_s, speedup_jobs=None):
        self.name, self.exp = name, exp
        self.seeds_per_op, self.rounds = seeds_per_op, rounds
        self.nominal_op_s = nominal_op_s
        # the traced pass also times the same operations at this many jobs
        self.speedup_jobs = speedup_jobs

    def scenario_seeds(self, index):
        first = SCENARIO_SEED_BASE + index * self.seeds_per_op
        return tuple(range(first, first + self.seeds_per_op))

    def pool(self, cm):
        topologies = 3 if self.exp == "r5" else 1
        return [
            Op(
                key=f"{self.exp}:{i}",
                rounds=self.rounds * self.seeds_per_op * topologies,
                payload=cm.sim.ScenarioConfig(seeds=self.scenario_seeds(i), rounds=self.rounds),
            )
            for i in range(POOL_SIZE)
        ]

    def plan(self, cm, seed, pins):
        ops = {op.key: op for op in self.pool(cm)}
        return [ops[k] for k in _order(seed, sorted(ops), 4 * POOL_SIZE)]

    def warm_up(self, cm):
        # first-call costs (lazy numpy/hashlib paths) outside the timed region
        cm.sim.run_experiment(self.exp, cm.sim.ScenarioConfig(seeds=(7,), rounds=2), jobs=1)

    def compute(self, cm, op, jobs):
        return cm.sim.run_experiment(self.exp, op.payload, jobs=jobs)

    def run(self, cm, op, pins, jobs=1, tracer=None):
        sample = Sample(rounds=op.rounds, attempted=1)
        try:
            with _Timer(sample):
                report = self.compute(cm, op, jobs)
        except Exception as exc:  # a raising op is a failed op, not a crash
            sample.fail(f"{op.key}: {type(exc).__name__}: {exc}")
            sample.wall = sample.cpu = 0.0
            return sample
        for problem in self.check(report, pins.get(op.key)):
            sample.fail(f"{op.key}: {problem}")
        if tracer is not None and self.exp == "exp2":
            ghost_rows = [r for r in report["rows"] if r["condition"] == "clinch-ghost"]
            tracer.counters["exp2.deviated_rounds"] += len(ghost_rows)
            tracer.counters["exp2.detected_rounds"] += sum(r["detected"] for r in ghost_rows)
        return sample

    def check(self, report, pinned):
        problems = []
        if report["digest"][:16] != pinned:
            problems.append(f"digest {report['digest'][:16]} != pinned {pinned}")
        s = report["summary"]
        if self.exp == "exp1":
            if not s["positive_rate"] >= 0.95:
                problems.append(f"positive_rate {s['positive_rate']} < 0.95")
            if not s["all_certified"]:
                problems.append("not all deviated rounds certified")
        elif self.exp == "exp2":
            if s["detection_rate"] != 1.0:
                problems.append(f"detection_rate {s['detection_rate']} != 1")
            if not s["max_net_surplus"] < 0:
                problems.append(f"max_net_surplus {s['max_net_surplus']} >= 0")
        return problems

    def pin_values(self, cm):
        pins = {}
        for op in self.pool(cm):
            report = self.compute(cm, op, 1)
            pins[op.key] = report["digest"][:16]
            problems = self.check(report, pins[op.key])
            if problems:
                raise RuntimeError(f"{op.key} breaks a paper invariant: {problems}")
        return pins


# --------------------------------------------------------------------------
# generic_route: the oracle route over C02-style markets


def _coverage_table(rng, n):
    """Random polymatroid as a capped coverage function: each agent owns
    some items, f(S) = sum over items of min(cap, owners in S)."""
    items = int(rng.integers(n, 2 * n + 1))
    caps = rng.integers(1, 4, size=items)
    owns = rng.integers(0, 2, size=(n, items)).astype(bool)
    for i in range(n):
        owns[i, rng.integers(items)] = True
    table = {}
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            load = owns[list(subset)].sum(axis=0) if subset else np.zeros(items)
            table[subset] = float(np.minimum(load, caps).sum())
    return table


def generic_instance(cm, index):
    """Market `index` of the generic pool: (kind, structure, bids)."""
    rng = np.random.default_rng([GENERIC_GEN_SEED, index])
    kind = GENERIC_KINDS[index % len(GENERIC_KINDS)]
    topo = cm.polymatroid.generate_topology
    if kind == "tree_cut":
        h, beta = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2)][int(rng.integers(6))]
        structure = topo("tree", h=h, beta=beta)
    elif kind == "sp":
        structure = topo("sp", n=int(rng.integers(2, 7)), seed=int(rng.integers(10**9)))
    elif kind == "maxflow":
        structure = topo("entangled", n=int(rng.integers(4, 7)))
    else:
        n = int(rng.integers(3, 8))
        structure = (n, _coverage_table(rng, n))
    if kind in ("tree_cut", "maxflow"):
        for v in structure.nodes:
            structure.node_capacity[v] = float(rng.integers(1, 5))
    n = structure[0] if kind == "table" else structure.n_agents
    bids = [float(b) for b in rng.uniform(0.5, 10.0, size=n)]
    return kind, structure, bids


def _build_oracle(cm, kind, structure):
    if kind == "table":
        return cm.polymatroid.TableOracle(*structure)
    return cm.polymatroid.make_oracle(structure)


class GenericRouteWorkload:
    """Blocks of pool markets settled by the generic oracle route, plus the
    four scaling-sweep witness grids.

    Per market: build the oracle, `vcg_outcome`, `construct_perturbation`,
    `apply_deviation` with that perturbation and with a ghost bid. Checks:
    the pinned outcome digest and surplus == delta * gamma.
    """

    name = "generic_route"
    speedup_jobs = None

    def __init__(self, markets_per_op, nominal_op_s):
        self.markets_per_op, self.nominal_op_s = markets_per_op, nominal_op_s

    def plan(self, cm, seed, pins):
        rng = random.Random(seed)
        kept = sorted(pins["instances"], key=int)
        # equal shares of each oracle kind keep every block's cost alike
        by_kind = [[k for k in kept if int(k) % len(GENERIC_KINDS) == j] for j in range(len(GENERIC_KINDS))]
        per_kind = self.markets_per_op // len(GENERIC_KINDS)
        rounds = self.markets_per_op + sum(3 * len(g) for g in SWEEP_GRIDS.values())
        cache = {}
        ops = []
        for b in range(4 * POOL_SIZE):
            picks = [rng.choice(pool) for pool in by_kind for _ in range(per_kind)]
            sweep = rng.randrange(SWEEP_POOL_SIZE)
            ops.append(Op(key=f"block:{b}", rounds=rounds, payload=(picks, sweep, cache)))
        return ops

    def warm_up(self, cm):
        kind, structure, bids = generic_instance(cm, 0)
        cm.mechanisms.vcg_outcome(_build_oracle(cm, kind, structure), bids)
        cm.metrics.scaling_sweep("tree", SWEEP_GRIDS["tree"], seeds=(0,))

    @staticmethod
    def sweep_seeds(index):
        return (3 * index, 3 * index + 1, 3 * index + 2)

    def settle(self, cm, kind, structure, bids):
        vcg = cm.mechanisms.Mechanism(payment_rule="vcg")
        oracle = _build_oracle(cm, kind, structure)
        honest = cm.mechanisms.vcg_outcome(oracle, bids)
        strategy = cm.adversary.construct_perturbation(bids, oracle)
        perturb = cm.adversary.apply_deviation(strategy, bids, vcg, oracle)
        ghost = cm.adversary.apply_deviation(
            cm.adversary.DeviationStrategy(kind="ghost_bid"), bids, vcg, oracle
        )
        return oracle, honest, strategy, perturb, ghost

    @staticmethod
    def outcome_digest(n, honest, strategy, perturb, ghost):
        agents = range(n)
        return digest(
            {
                "vcg": [[honest.allocation[i] for i in agents], [honest.payments[i] for i in agents]],
                "perturb": [list(strategy.pair), strategy.delta, perturb.operator_surplus,
                            [perturb.deviated.payments[i] for i in agents],
                            [bool(perturb.undetectable[i]) for i in agents]],
                "ghost": [[ghost.deviated.allocation[i] for i in agents],
                          [ghost.deviated.payments[i] for i in agents],
                          [bool(ghost.undetectable[i]) for i in agents], ghost.ghost],
            }
        )

    def sweep(self, cm, cls, index):
        return cm.metrics.scaling_sweep(cls, SWEEP_GRIDS[cls], seeds=self.sweep_seeds(index))

    def run(self, cm, op, pins, jobs=1, tracer=None):
        picks, sweep_index, cache = op.payload
        sample = Sample(rounds=op.rounds)
        for k in picks:
            if k not in cache:  # input generation is not timed
                cache[k] = generic_instance(cm, int(k))
            kind, structure, bids = cache[k]
            sample.attempted += 1
            try:
                with _Timer(sample):
                    oracle, honest, strategy, perturb, ghost = self.settle(cm, kind, structure, bids)
                with _paused(tracer):
                    gamma = cm.polymatroid.pair_gap(oracle, *strategy.pair)
            except Exception as exc:  # a raising market is a failed operation
                sample.fail(f"market {k}: {type(exc).__name__}: {exc}")
                continue
            got = self.outcome_digest(len(bids), honest, strategy, perturb, ghost)
            if got != pins["instances"][k]:
                sample.fail(f"market {k}: digest {got} != pinned {pins['instances'][k]}")
            elif abs(perturb.operator_surplus - strategy.delta * gamma) > SURPLUS_TOL:
                sample.fail(
                    f"market {k}: surplus {perturb.operator_surplus} != delta*gamma "
                    f"{strategy.delta * gamma}"
                )
        for cls in SWEEP_GRIDS:
            key = f"{cls}:{sweep_index}"
            sample.attempted += 1
            try:
                with _Timer(sample):
                    fit = self.sweep(cm, cls, sweep_index)
            except Exception as exc:
                sample.fail(f"sweep {key}: {type(exc).__name__}: {exc}")
                continue
            got = digest(fit.to_json())
            if got != pins["sweeps"][key]:
                sample.fail(f"sweep {key}: digest {got} != pinned {pins['sweeps'][key]}")
        return sample

    def pin_values(self, cm):
        """Generate the market pool (dropping unperturbable markets) and the
        sweep pool, and return their digests."""
        instances, index = {}, 0
        while len(instances) < GENERIC_POOL_SIZE:
            kind, structure, bids = generic_instance(cm, index)
            try:
                cm.adversary.construct_perturbation(bids, _build_oracle(cm, kind, structure))
            except (cm.NoWindowError, cm.NoDeviationError):
                index += 1
                continue
            oracle, honest, strategy, perturb, ghost = self.settle(cm, kind, structure, bids)
            gamma = cm.polymatroid.pair_gap(oracle, *strategy.pair)
            if abs(perturb.operator_surplus - strategy.delta * gamma) > SURPLUS_TOL:
                raise RuntimeError(f"market {index}: surplus is not delta * gamma")
            instances[str(index)] = self.outcome_digest(len(bids), honest, strategy, perturb, ghost)
            index += 1
        sweeps = {
            f"{cls}:{t}": digest(self.sweep(cm, cls, t).to_json())
            for t in range(SWEEP_POOL_SIZE)
            for cls in SWEEP_GRIDS
        }
        return {"instances": instances, "sweeps": sweeps}


WORKLOADS = {
    w.name: w
    for w in (
        ExperimentWorkload("exp1_ghost", "exp1", seeds_per_op=2, rounds=100, nominal_op_s=1.2),
        ExperimentWorkload("exp2_broadcast", "exp2", seeds_per_op=1, rounds=25, nominal_op_s=1.1),
        GenericRouteWorkload(markets_per_op=48, nominal_op_s=1.8),
        # 5 seeds make r5's 15 (topology, seed) tasks, the unit of its dispatch
        ExperimentWorkload("r5_grid", "r5", seeds_per_op=5, rounds=12, nominal_op_s=1.6, speedup_jobs=2),
    )
}
