"""One workload run in a fresh interpreter; `run.py` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up is everything from interpreter start to the timed region: importing
credmarket, building the operation plan, and a warm-up call. The untraced
pass then runs operations until `--seconds` have passed. The traced pass
instead runs a fixed number of operations, derived from `--seconds` alone,
so its counts repeat exactly for a given seed: first untraced (and, where
the workload measures dispatch, again through the process pool), then
traced in-process. Prints one JSON object of raw samples as its last line.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: spans whose call count and self time the traced pass reports
SPANS = (
    "polymatroid.rank",
    "mechanisms.clinching_auction",
    "mechanisms.rank_auth_tag",
    "mechanisms.edmonds_greedy",
    "mechanisms.archer_tardos_payment",
    "adversary.apply_deviation",
    "adversary.construct_perturbation",
    "credibility.verify_transcript",
    "credibility.make_commitment",
    "sim.generate_round",
    "sim.settle_threshold",
    "sim.ghost_candidates",
    "sim.pod_allocation",
    "sim.pod_threshold_payment",
    "sim.ghost_settle",
    "sim.certify_ghost",
    "sim.settle_posted",
    "sim.report_digest",
    "metrics.conc",
    "metrics.cliffs_delta",
    "metrics.scaling_sweep",
)
EVALUATORS = ("laminar", "clone", "tree_cut", "sp", "maxflow", "table")
#: share of --seconds the untraced half of a traced run is sized for
TRACE_SHARE = 0.4


def _setup(name, seed):
    sys.path.insert(0, str(ROOT / "src"))
    import credmarket

    src = (ROOT / "src").resolve()
    if src not in Path(credmarket.__file__).resolve().parents:
        raise SystemExit(f"credmarket was imported from {credmarket.__file__}, not {src}")
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    pins = json.loads((HERE / "pins.json").read_text())[name]
    plan = workload.plan(credmarket, seed, pins)
    workload.warm_up(credmarket)
    return credmarket, workload, pins, plan


def _reference_work():
    rng = random.Random(1)
    total = 0.0
    for _ in range(240):
        xs = [(rng.random(), i) for i in range(500)]
        xs.sort(reverse=True)
        buckets = {}
        for v, i in xs:
            buckets[i % 37] = buckets.get(i % 37, 0.0) + v * v
        a = np.fromiter((v for v, _ in xs), dtype=float)
        total += float(np.minimum(a, 0.5).sum()) + sum(buckets.values())
    return total


def reference_seconds():
    """Wall time of a fixed job of sorting, dict updates, float arithmetic
    and small numpy calls that shares no code with credmarket.

    Timed next to every operation, it tracks how fast this machine runs
    Python at that moment; garbage collection is off so the program's live
    objects do not slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed_pass(cm, workload, pins, plan, seconds=None, count=None, jobs=1, tracer=None):
    """Run plan operations until `seconds` pass or `count` are done, timing
    the reference job before and after each one."""
    samples = []
    start = time.perf_counter()
    for i, op in enumerate(itertools.cycle(plan)):
        if count is not None and i >= count:
            break
        if seconds is not None and samples and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.run_id = i
        before = reference_seconds()
        sample = workload.run(cm, op, pins, jobs=jobs, tracer=tracer)
        sample.ref = (before + reference_seconds()) / 2
        samples.append(sample)
    return samples


def rate(samples):
    """Median over completed operations of rounds per reference-job time."""
    rates = [s.rounds / s.wall * s.ref for s in samples if s.wall > 0]
    return statistics.median(rates) if rates else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(summary, counters, untraced, traced, pooled):
    def span(name):
        return summary.get(name, (0, 0.0, 0.0))

    m = {}
    for name in SPANS:
        calls, _, own = span(name)
        m[f"{name}.calls"], m[f"{name}.self_s"] = calls, own
    for e in EVALUATORS:
        calls, _, own = span(f"polymatroid.eval.{e}")
        m[f"polymatroid.eval.{e}.evals"], m[f"polymatroid.eval.{e}.self_s"] = calls, own
    evals = sum(c for n, (c, _, _) in summary.items() if n.startswith("polymatroid.eval."))
    rank_calls = span("polymatroid.rank")[0]
    m["polymatroid.rank.evals"] = evals
    m["polymatroid.rank.memo_hit_ratio"] = 1.0 - evals / rank_calls if rank_calls else 0.0
    m["mechanisms.clinching_auction.price_steps"] = counters["clinching_auction.price_steps"]
    m["credibility.verify_transcript.events"] = counters["verify_transcript.events"]
    m["sim.ghost_candidates.candidates"] = counters["ghost_candidates.candidates"]
    m["sim.ghost_candidates.yield_ratio"] = _ratio(
        counters["ghost_candidates.picked"], span("sim.ghost_candidates")[0]
    )
    m["adversary.undetectable_ratio"] = _ratio(
        counters["apply_deviation.certified"], counters["apply_deviation.agents"]
    )
    m["credibility.detected_ratio"] = _ratio(
        counters["exp2.detected_rounds"], counters["exp2.deviated_rounds"]
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            own for n, (_, _, own) in summary.items() if n.split(".", 1)[0] == layer
        )
    # jobs=1 over jobs=2 time of the same operations, untraced, each
    # operation's wall time in units of the reference job timed beside it
    m["sim.dispatch.speedup"] = (
        _ratio(sum(s.wall / s.ref for s in untraced), sum(s.wall / s.ref for s in pooled))
        if pooled
        else 0.0
    )
    m["trace.untraced_rounds_per_ref"] = rate(untraced)
    m["trace.rounds_per_ref"] = rate(traced)
    m["trace.overhead"] = _ratio(m["trace.untraced_rounds_per_ref"], m["trace.rounds_per_ref"])
    return m


def _environment(cm):
    import networkx

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "credmarket": cm.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def _peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cm, workload, pins, plan = _setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    out = {"setup_s": setup_s, "env": _environment(cm)}
    if args.trace == 0:
        samples = timed_pass(cm, workload, pins, plan, seconds=args.seconds)
    else:
        count = max(1, int(args.seconds * TRACE_SHARE / workload.nominal_op_s))
        untraced = timed_pass(cm, workload, pins, plan, count=count)
        pooled = []
        if workload.speedup_jobs:
            pooled = timed_pass(cm, workload, pins, plan, count=count, jobs=workload.speedup_jobs)
        tracer = Tracer()
        tracer.install(cm)
        try:
            traced = timed_pass(cm, workload, pins, plan, count=count, tracer=tracer)
        finally:
            tracer.restore()
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        out["per_layer"] = per_layer(tracer.summary(), tracer.counters, untraced, traced, pooled)
        out["spans"] = {n: list(v) for n, v in tracer.summary().items()}
        samples = untraced + pooled + traced
    out["peak_rss_mib"] = _peak_rss_mib()
    out["samples"] = [[s.wall, s.cpu, s.ref, s.rounds] for s in samples if s.wall > 0]
    out["attempted"] = sum(s.attempted for s in samples)
    out["failed"] = sum(s.failed for s in samples)
    out["errors"] = [e for s in samples for e in s.errors][:20]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
