"""credmarket benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With `--trace 0` it prints every end-to-end
metric of BENCHMARK.json, with `--trace 1` every per-layer metric; each as
`name value unit`, then one JSON line with `correct`, `attempted`, `failed`
and `metrics`. Exits 1 when any output check failed and 2 when the run
itself could not be made. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

#: fresh interpreters that only set up; the measuring worker adds one more
SETUP_REPEATS = 4
#: wall-clock budget for the whole run, under the 180 s a run may take
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _worker(args, deadline):
    """Run worker.py in its own session; kill the whole group on timeout."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the {BUDGET_S:.0f} s budget")
    finally:
        try:  # pool workers left behind by a crashed worker
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _stats(values):
    if not values:
        return {"median": 0.0, "p25": 0.0, "p75": 0.0, "n": 0}
    p25, _, p75 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "p25": p25, "p75": p75, "n": len(values)}


def end_to_end(result, setups):
    samples = result["samples"]
    return {
        "rounds_per_ref": _stats([rounds / wall * ref for wall, _, ref, rounds in samples]),
        "setup_s": _stats(setups),
        "peak_rss_mib": _stats([result["peak_rss_mib"]]),
    }


def raw_rates(result):
    """Throughput in plain seconds: printed for reading, not compared,
    because it moves with the machine's speed from minute to minute."""
    samples = result["samples"]
    return {
        ("rounds_per_s", "rounds/s"): _stats([rounds / wall for wall, _, _, rounds in samples]),
        ("rounds_per_cpu_s", "rounds/CPU-s"): _stats(
            [rounds / cpu for _, cpu, _, rounds in samples if cpu > 0]
        ),
        ("reference_s", "s"): _stats([ref for _, _, ref, _ in samples]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "credmarket" / "__init__.py").is_file():
        print(f"perfbench: no credmarket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    load_at_start = os.getloadavg()
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [_worker([*common, "--setup-only"], deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
        result = _worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setups.append(result["setup_s"])

    if args.trace:
        wanted = spec["per_layer"]
        values = result["per_layer"]
        report = {name: {"median": v} for name, v in values.items()}
    else:
        wanted = spec["end_to_end"]
        report = end_to_end(result, setups)
        values = {name: s["median"] for name, s in report.items()}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2

    env = {**result["env"], "loadavg_at_start": list(load_at_start)}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for m in wanted:
        s = report[m["name"]]
        spread = f"  (p25 {s['p25']:.6g}, p75 {s['p75']:.6g}, n={s['n']})" if "n" in s else ""
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}{spread}")
    if not args.trace:
        info = raw_rates(result)
        for (name, unit), s in info.items():
            print(f"info {name} {s['median']:.6g} {unit}  (p25 {s['p25']:.6g}, p75 {s['p75']:.6g}, n={s['n']})")
        report.update({name: s for (name, _), s in info.items()})
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ratio {failed / attempted:.6g} failed/attempted ({failed}/{attempted})")
    for error in result["errors"]:
        print(f"check failed: {error}")

    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "metrics": report, "setup_samples": setups, **result}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    correct = failed == 0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
