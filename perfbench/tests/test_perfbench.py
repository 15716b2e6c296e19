"""The benchmark's own tests: python3 -m pytest perfbench/tests"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


def run_bench(root, workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc, lines, result = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        pattern = rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}(  \(.*\))?$"
        assert any(re.match(pattern, ln) for ln in lines), m["name"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert any(ln.startswith("env {") for ln in lines)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "exp1_ghost":
        assert metrics["polymatroid.rank.calls"] == 0
        assert metrics["sim.ghost_candidates.calls"] > 0
    if trace and workload == "exp2_broadcast":
        assert metrics["polymatroid.rank.calls"] > 0
        assert metrics["polymatroid.rank.memo_hit_ratio"] == 0
        assert metrics["credibility.detected_ratio"] == 1.0
    if trace and workload == "generic_route":
        assert metrics["polymatroid.rank.memo_hit_ratio"] > 0.5
    if trace and workload == "r5_grid":
        assert metrics["polymatroid.rank.calls"] == 0
        assert metrics["sim.settle_posted.calls"] > 0
        assert metrics["sim.dispatch.speedup"] > 0
    if not trace:
        assert all(v > 0 for v in metrics.values())


def _layer_attributes(cm):
    from tracer import LAYERS, _subclasses

    modules = [cm] + [getattr(cm, layer) for layer in LAYERS]
    state = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for cls in [cm.polymatroid.RankOracle, *_subclasses(cm.polymatroid.RankOracle)]:
        for k in ("rank", "_rank"):
            if k in vars(cls):
                state[(cls.__qualname__, k)] = vars(cls)[k]
    return state


def test_tracer_leaves_no_wrapper_behind():
    import credmarket as cm
    from tracer import Tracer

    before = _layer_attributes(cm)
    config = cm.sim.ScenarioConfig(seeds=(5,), rounds=3)
    untraced = cm.sim.run_experiment("exp2", config)["digest"]
    tracer = Tracer().install(cm)
    try:
        assert cm.sim.run_experiment is not before[("credmarket.sim", "run_experiment")]
        traced = cm.sim.run_experiment("exp2", config)["digest"]
    finally:
        tracer.restore()
    assert traced == untraced
    summary = tracer.summary()
    assert summary["sim.run_experiment"][0] == 1
    evals = sum(c for n, (c, _, _) in summary.items() if n.startswith("polymatroid.eval."))
    assert summary["polymatroid.rank"][0] == evals > 0  # no memo at 40 agents
    assert "polymatroid.eval.laminar" in summary
    after = _layer_attributes(cm)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_wrong_pinned_digest_fails_every_operation(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    pins_file = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(pins_file.read_text())
    pins["exp1_ghost"] = {k: "0" * 16 for k in pins["exp1_ghost"]}
    pins_file.write_text(json.dumps(pins))
    proc, _, result = run_bench(tmp_path, "exp1_ghost", 0)
    assert proc.returncode == 1
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
