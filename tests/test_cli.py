"""Command-line surface: exit codes, artifacts, reproducible summaries."""

import filecmp
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import credmarket
from credmarket.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATIONS, dispatch
from credmarket.credibility import make_commitment, tamper_forge_rank, tamper_inflate_clinch
from credmarket.errors import ConfigError
from credmarket.mechanisms import ClinchTranscript, clinching_auction
from credmarket.polymatroid import TableOracle
from credmarket.sim import ScenarioConfig, run_experiment

from conftest import rechain

WORKED_ORACLE = {
    "kind": "table",
    "n_agents": 2,
    "table": {"": 0, "0": 2, "1": 2, "0,1": 3},
}


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "config.json"
    cfg = ScenarioConfig(rounds=3, seeds=(17,)).to_dict()
    path.write_text(json.dumps(cfg))
    return str(path)


def _worked_transcript():
    oracle = TableOracle(2, {(): 0.0, (0,): 2.0, (1,): 2.0, (0, 1): 3.0})
    transcript = ClinchTranscript(commitment_root=make_commitment(oracle))
    clinching_auction(oracle, [10.0, 5.0], transcript=transcript)
    return transcript


def _transcript_pair(tmp_path):
    transcript = _worked_transcript()
    honest = tmp_path / "honest.json"
    honest.write_text(transcript.to_json())
    tampered = tmp_path / "tampered.json"
    tampered.write_text(tamper_inflate_clinch(transcript).to_json())
    return str(honest), str(tampered)


# --------------------------------------------------------------------------
# run


def test_run_writes_artifacts(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "out"
    code = dispatch(
        ["run", "--exp", "exp1", "--config", tiny_config_file, "--out", str(out)]
    )
    assert code == EXIT_OK
    assert (out / "exp1_rounds.csv").exists()
    assert (out / "exp1_summary.json").exists()
    printed = capsys.readouterr().out
    assert "digest " in printed
    summary = json.loads((out / "exp1_summary.json").read_text())
    assert summary["experiment"] == "exp1"
    assert summary["config"]["rounds"] == 3


def test_run_summaries_are_byte_identical(tmp_path, tiny_config_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert dispatch(
            ["run", "--exp", "exp1", "--config", tiny_config_file, "--out", str(out)]
        ) == EXIT_OK
    assert filecmp.cmp(
        out_a / "exp1_summary.json", out_b / "exp1_summary.json", shallow=False
    )
    assert filecmp.cmp(out_a / "exp1_rounds.csv", out_b / "exp1_rounds.csv", shallow=False)


def test_run_json_row_format(tmp_path, tiny_config_file):
    out = tmp_path / "out"
    code = dispatch(
        ["run", "--exp", "exp1", "--config", tiny_config_file,
         "--out", str(out), "--format", "json"]
    )
    assert code == EXIT_OK
    rows = json.loads((out / "exp1_rounds.json").read_text())["rows"]
    assert rows and rows[0]["condition"] == "vcg-ghost"


def test_run_seed_override(tmp_path, tiny_config_file):
    out = tmp_path / "out"
    code = dispatch(
        ["run", "--exp", "exp1", "--config", tiny_config_file,
         "--out", str(out), "--seed", "99"]
    )
    assert code == EXIT_OK
    summary = json.loads((out / "exp1_summary.json").read_text())
    assert summary["config"]["seeds"] == [99]


def test_run_rejects_unknown_experiment(tmp_path, capsys):
    assert dispatch(["run", "--exp", "exp9", "--out", str(tmp_path)]) == EXIT_CONFIG
    capsys.readouterr()
    for exp in ("exp9", None, ["exp1"]):
        with pytest.raises(ConfigError, match="unknown experiment"):
            run_experiment(exp)


def test_run_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rounds": 3, "turbo": True}))
    code = dispatch(["run", "--exp", "exp1", "--config", str(bad), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_run_r5_rejects_tier_latencies_it_would_not_use(tmp_path, capsys):
    config = tmp_path / "r5.json"
    config.write_text(json.dumps({"rounds": 2, "seeds": [17], "tier_latencies_ms": [1e308] * 3}))
    code = dispatch(["run", "--exp", "r5", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "tier latencies" in capsys.readouterr().err


def test_run_rejects_zero_jobs(tmp_path, capsys):
    code = dispatch(["run", "--exp", "exp1", "--jobs", "0", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


# --------------------------------------------------------------------------
# verify


def test_verify_honest_and_tampered(tmp_path, capsys):
    honest, tampered = _transcript_pair(tmp_path)
    assert dispatch(["verify", "--transcript", honest]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["consistent"] is True
    assert dispatch(["verify", "--transcript", tampered]) == EXIT_VIOLATIONS
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["consistent"] is False
    assert verdict["violations"]


def test_verify_with_oracle_catches_a_chained_forgery(tmp_path, capsys):
    # the forged f(D) of the last round moves no clinch, and the chain is
    # recomputed over it: only the committed rank function shows the lie
    forged = tmp_path / "forged.json"
    forged.write_text(rechain(tamper_forge_rank(_worked_transcript(), which=-1)).to_json())
    spec = tmp_path / "oracle.json"
    spec.write_text(json.dumps(WORKED_ORACLE))
    honest, _ = _transcript_pair(tmp_path)
    assert dispatch(["verify", "--transcript", str(forged)]) == EXIT_OK
    assert dispatch(["verify", "--transcript", honest, "--oracle", str(spec)]) == EXIT_OK
    capsys.readouterr()
    code = dispatch(["verify", "--transcript", str(forged), "--oracle", str(spec)])
    assert code == EXIT_VIOLATIONS
    verdict = json.loads(capsys.readouterr().out)
    assert {v["kind"] for v in verdict["violations"]} == {"wrong_rank"}


@pytest.mark.parametrize("spec", [
    pytest.param({**WORKED_ORACLE, "table": {**WORKED_ORACLE["table"], "0,1": 4}},
                 id="other-oracle"),
    pytest.param({**WORKED_ORACLE, "table": {**WORKED_ORACLE["table"], "0,1": "3"}},
                 id="string-value"),
    pytest.param({"kind": "laminar", "demands": [2, 2], "group_of": [0, 0]}, id="no-caps"),
    pytest.param([1], id="list-spec"),
])
def test_verify_rejects_an_oracle_off_the_commitment(tmp_path, capsys, spec):
    honest, _ = _transcript_pair(tmp_path)
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(spec))
    assert dispatch(["verify", "--transcript", honest, "--oracle", str(path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_verify_requires_commitment_root(tmp_path, capsys):
    path = tmp_path / "naked.json"
    path.write_text(json.dumps({"events": []}))
    assert dispatch(["verify", "--transcript", str(path)]) == EXIT_CONFIG
    capsys.readouterr()


def test_verify_rejects_malformed_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"commitment_root": "r00t", "events": [{"event": "price_step", "price": "abc"}]}
    ))
    src = os.path.dirname(os.path.dirname(credmarket.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "credmarket.cli", "verify", "--transcript", str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == EXIT_CONFIG
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", ["42", "null", "true"])
def test_verify_rejects_a_non_object_file(tmp_path, text):
    # run through `python -m credmarket`, the package's own entry point
    path = tmp_path / "scalar.json"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(credmarket.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "credmarket", "verify", "--transcript", str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == EXIT_CONFIG
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


# --------------------------------------------------------------------------
# perturb


def test_perturb_prices_the_worked_example(tmp_path, capsys):
    path = tmp_path / "bids.json"
    path.write_text(
        json.dumps({"bids": [10.0, 5.0], "oracle": WORKED_ORACLE, "epsilon_target": 1.0})
    )
    assert dispatch(["perturb", "--bids", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "pair (0, 1)" in out
    assert "delta 1" in out
    assert "gamma 1" in out
    assert "increment 1" in out


# three agents whose grand coalition ranks below a pair, and one whose pairs
# are complements; with "0,1,2": 4 the table is a polymatroid
_THREE = {"": 0, "0": 2, "1": 2, "2": 1, "0,1": 3, "0,2": 3, "1,2": 3}


def _three_agents(grand):
    table = {**_THREE, "0,1,2": grand}
    return {"bids": [9.0, 5.0, 1.0], "oracle": {"n_agents": 3, "table": table}}


def test_perturb_prices_a_three_agent_table(tmp_path, capsys):
    path = tmp_path / "bids.json"
    path.write_text(json.dumps(_three_agents(4)))
    assert dispatch(["perturb", "--bids", str(path)]) == EXIT_OK
    assert "increment 2" in capsys.readouterr().out


@pytest.mark.parametrize("grand, violation", [
    (1, "rank falls when agent 2 joins {0,1}"),
    (10, "agents 1 and 2 are complements over {0}"),
])
def test_a_non_polymatroid_table_is_named(tmp_path, capsys, grand, violation):
    content = _three_agents(grand)
    bids, spec = tmp_path / "bids.json", tmp_path / "oracle.json"
    bids.write_text(json.dumps(content))
    spec.write_text(json.dumps(content["oracle"]))
    honest, _ = _transcript_pair(tmp_path)
    for argv in (["perturb", "--bids", str(bids)],
                 ["verify", "--transcript", honest, "--oracle", str(spec)]):
        assert dispatch(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "not a polymatroid" in err and violation in err


def test_perturb_rejects_incomplete_file(tmp_path, capsys):
    path = tmp_path / "bids.json"
    path.write_text(json.dumps({"bids": [1.0, 2.0]}))
    assert dispatch(["perturb", "--bids", str(path)]) == EXIT_CONFIG
    capsys.readouterr()


def _laminar(**fields):
    # as given, agents 0 and 1 share a unit group and perturb exits 0
    spec = {"kind": "laminar", "demands": [1, 1, 1], "group_of": [0, 0, 1], "group_caps": [1, 1]}
    return {"bids": [10.0, 5.0, 1.0], "oracle": {**spec, **fields}}


@pytest.mark.parametrize("content", [
    # a slack root: vcg settles group by group in closed form
    pytest.param(_laminar(), id="slack-root"),
    # agents 0 and 1 sit in separate groups and contest only the root,
    # which binds: vcg takes the generic greedy + threshold route
    pytest.param(_laminar(demands=[2, 1, 1], group_of=[0, 1, 1], group_caps=[2, 2], root_cap=2),
                 id="binding-root"),
])
def test_perturb_prices_laminar_specs(tmp_path, capsys, content):
    path = tmp_path / "bids.json"
    path.write_text(json.dumps(content))
    assert dispatch(["perturb", "--bids", str(path)]) == EXIT_OK
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["pair"] == "(0, 1)"
    delta, gamma = float(lines["delta"]), float(lines["gamma"])
    assert delta * gamma > 0
    assert float(lines["increment"]) == pytest.approx(delta * gamma, abs=1e-9)


@pytest.mark.parametrize("content", [
    pytest.param(42, id="scalar-file"),
    pytest.param({"bids": ["x"], "oracle": WORKED_ORACLE}, id="string-bid"),
    pytest.param({"bids": 5, "oracle": WORKED_ORACLE}, id="scalar-bids"),
    pytest.param({"bids": [10.0, 5.0], "oracle": {"n_agents": 2}}, id="no-table"),
    pytest.param({"bids": [10.0, 5.0], "oracle": [1]}, id="list-oracle"),
    pytest.param({"bids": [10.0, 5.0], "oracle": {"n_agents": 2, "table": {"0,a": 1}}},
                 id="bad-table-key"),
    pytest.param({"bids": [10.0, 5.0], "oracle": {**WORKED_ORACLE, "n_agents": 2.9}},
                 id="fractional-n-agents"),
    pytest.param({"bids": [10.0, 5.0], "oracle": {**WORKED_ORACLE, "n_agents": True}},
                 id="bool-n-agents"),
    # a table over 100,000 agents for two bids is refused before 2^100000
    # is counted or printed
    pytest.param({"bids": [10.0, 5.0], "oracle": {**WORKED_ORACLE, "n_agents": 100_000}},
                 id="n-agents-not-bid-count"),
    pytest.param({"bids": [10.0, 5.0], "oracle": {
        **WORKED_ORACLE, "table": {**WORKED_ORACLE["table"], "0,2": 3}}},
                 id="table-key-out-of-range"),
    pytest.param({"bids": [10.0, 5.0], "oracle": WORKED_ORACLE, "epsilon_target": "x"},
                 id="string-epsilon"),
    pytest.param(_laminar(group_of=[0, 0, 5], group_caps=[1]), id="laminar-group-out-of-range"),
    pytest.param(_laminar(group_of=[0, 0]), id="laminar-short-group-of"),
    pytest.param(_laminar(demands=[1, 1, float("nan")]), id="laminar-nan-demand"),
    pytest.param(_laminar(demands=[1, 1, -4]), id="laminar-negative-demand"),
    pytest.param(_laminar(group_caps=None), id="laminar-null-caps"),
    pytest.param(_laminar(demands=[1, 1], group_of=[0, 0]), id="laminar-not-bid-count"),
    # JSON strings and bools are not numbers, though Python would coerce them
    pytest.param(_laminar(demands=["1", "1", True], group_caps=["1", 1], root_cap="9"),
                 id="laminar-coercible-strings"),
    pytest.param(_laminar(demands=[1, "1", 1]), id="laminar-string-demand"),
    pytest.param(_laminar(demands=[1, 1, True]), id="laminar-bool-demand"),
    pytest.param(_laminar(group_of=[0, "0", 1]), id="laminar-string-group"),
    pytest.param(_laminar(group_of=[0, 0, True]), id="laminar-bool-group"),
    pytest.param(_laminar(group_caps=[1, "1"]), id="laminar-string-cap"),
    pytest.param(_laminar(group_caps=[True, 1]), id="laminar-bool-cap"),
    pytest.param(_laminar(root_cap="9"), id="laminar-string-root-cap"),
    pytest.param(_laminar(root_cap=True), id="laminar-bool-root-cap"),
    pytest.param({"bids": [10.0, 5.0], "oracle": {
        **WORKED_ORACLE, "table": {**WORKED_ORACLE["table"], "0,1": "3"}}},
                 id="table-string-value"),
    pytest.param({"bids": [10.0, 5.0], "oracle": {
        **WORKED_ORACLE, "table": {**WORKED_ORACLE["table"], "0": True}}},
                 id="table-bool-value"),
    pytest.param({"bids": [10.0, 5.0], "oracle": {
        **WORKED_ORACLE, "table": {**WORKED_ORACLE["table"], "0,1": float("nan")}}},
                 id="table-nan-value"),
    # vcg gave agent 2 a share of -2 here, and perturb exited 0
    pytest.param(_three_agents(1), id="table-not-monotone"),
    # perturb blamed agent 0's falling allocation here
    pytest.param(_three_agents(10), id="table-not-submodular"),
])
def test_perturb_rejects_malformed_bid_file(tmp_path, capsys, content):
    path = tmp_path / "bids.json"
    path.write_text(json.dumps(content))
    assert dispatch(["perturb", "--bids", str(path)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# sweep / gamma


def test_sweep_series_unit_slope(tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = dispatch(
        ["sweep", "--class", "series", "--grid", "2,3,4,5", "--seed", "0",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    assert "slope 1 " in capsys.readouterr().out
    fit = json.loads(out.read_text())
    assert fit["class"] == "series"


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "--exp", "exp3", "--seed", "-1"], id="run-seed"),
    pytest.param(["sweep", "--class", "series", "--grid", "2,4,8,16", "--seed", "-2"],
                 id="sweep-seed"),
    pytest.param(["sweep", "--class", "series", "--grid=-1,2,3,4"], id="sweep-grid"),
    pytest.param(["gamma", "--class", "tree", "--seed", "-1"], id="gamma-seed"),
])
def test_negative_seed_or_grid_is_config_error(tmp_path, capsys, argv):
    assert dispatch(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_negative_seed_exits_without_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(credmarket.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "credmarket", "run", "--exp", "exp3", "--seed", "-1",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == EXIT_CONFIG
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_rejects_a_huge_arrival_rate_without_traceback(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**ScenarioConfig().to_dict(), "arrival_rate": 1e19}))
    src = os.path.dirname(os.path.dirname(credmarket.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "credmarket", "run", "--exp", "exp1", "--config", str(config),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == EXIT_CONFIG
    assert "arrival rate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sweep_rejects_bad_grid(capsys):
    assert dispatch(["sweep", "--class", "series", "--grid", "2,x,4"]) == EXIT_CONFIG
    assert dispatch(["sweep", "--class", "series", "--grid", "2,3,4"]) == EXIT_CONFIG
    capsys.readouterr()
    # a huge point would run for hours: it is refused before any point runs
    assert dispatch(["sweep", "--class", "series", "--grid", "2,4,8,100000"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "at most" in err and "Traceback" not in err


def test_gamma_modular_mean_zero(tmp_path, capsys):
    out = tmp_path / "gamma.json"
    code = dispatch(["gamma", "--class", "modular", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    capsys.readouterr()
    dist = json.loads(out.read_text())
    assert dist["mean"] == pytest.approx(0.0, abs=1e-12)
    assert "samples" not in dist


# --------------------------------------------------------------------------
# parser-level behavior


def test_help_exits_clean(capsys):
    assert dispatch(["--help"]) == EXIT_OK
    capsys.readouterr()


def test_missing_subcommand_is_config_error(capsys):
    assert dispatch([]) == EXIT_CONFIG
    capsys.readouterr()


def test_unknown_flag_is_config_error(capsys):
    assert dispatch(["run", "--exp", "exp1", "--frobnicate"]) == EXIT_CONFIG
    capsys.readouterr()


# --------------------------------------------------------------------------
# fuzzing every file input and flag in-process

_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=4)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _near(draw, value):
    """`value` with about one part in `odds` swapped for arbitrary JSON
    or, in an object, dropped."""
    odds = draw(st.sampled_from([1000, 40, 10, 3]))

    def walk(v):
        if draw(st.integers(0, odds)) == 0:
            return draw(_JSON)
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items() if draw(st.integers(0, odds)) != 0}
        if isinstance(v, list):
            return [walk(x) for x in v]
        return v

    return walk(value)


def _file_text(value):
    """JSON text near `value`, or one time in four text that is not JSON."""
    near = _near(value).map(json.dumps)
    return st.one_of(near, near, near, st.text(max_size=8))


def _small_run(config):
    # at most two rounds of one seed keep an example fast
    if isinstance(config, dict):
        if isinstance(config.get("rounds"), int) and config["rounds"] > 2:
            config["rounds"] = 2
        if isinstance(config.get("seeds"), list):
            config["seeds"] = config["seeds"][:1]
    return json.dumps(config)


LAMINAR_SPEC = {
    "kind": "laminar", "demands": [1, 2, 1], "group_of": [0, 0, 1],
    "group_caps": [2, 1], "root_cap": 3,
}
_ORACLE_TEXT = _file_text(WORKED_ORACLE) | _file_text(LAMINAR_SPEC)
_SEED_FLAG = st.just([]) | st.integers(-2, 2**70).map(lambda s: ["--seed", str(s)])


def _cli_inputs():
    honest = _worked_transcript()
    transcripts = [json.loads(t.to_json()) for t in (honest, tamper_inflate_clinch(honest))]
    config = {**ScenarioConfig(rounds=2, seeds=(17,)).to_dict(), "value_decay_per_ms": 0.05}
    perturb = _file_text({"bids": [10.0, 5.0], "oracle": WORKED_ORACLE, "epsilon_target": 1.0})
    perturb |= _file_text({"bids": [10.0, 5.0, 3.0], "oracle": LAMINAR_SPEC})
    # valid grids stay small (a series point near 64 takes about 0.3 s a
    # seed); the unsorted lists reach past the cap of 64
    grid = st.lists(st.integers(1, 24), min_size=4, max_size=5, unique=True).map(sorted)
    grid = (grid | st.lists(st.integers(-1, 65), max_size=5)).map(lambda g: ",".join(map(str, g)))
    return st.one_of(
        st.tuples(st.just("perturb"), perturb).map(lambda t: ([t[0], "--bids"], {"in": t[1]})),
        st.tuples(st.sampled_from(transcripts).flatmap(_file_text), st.none() | _ORACLE_TEXT).map(
            lambda t: (["verify", "--transcript"], {"in": t[0], "oracle": t[1]})
        ),
        st.tuples(st.sampled_from(["exp1", "exp2", "exp3", "r5"]), _near(config).map(_small_run)).map(
            lambda t: (["run", "--exp", t[0], "--config"], {"in": t[1]})
        ),
        st.tuples(st.sampled_from(["series", "parallel", "tree", "entangled", "ring"]),
                  grid | st.text(max_size=6), _SEED_FLAG).map(
            lambda t: (["sweep", "--class", t[0], "--grid", t[1], *t[2]], {})
        ),
        st.tuples(st.sampled_from(["tree", "sp", "entangled", "modular", "ring"]),
                  _SEED_FLAG).map(lambda t: (["gamma", "--class", t[0], *t[1]], {})),
    )


@given(case=_cli_inputs())
@settings(
    max_examples=1500, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_fuzzed_inputs_exit_cleanly(tmp_path, capsys, case):
    argv, files = case
    if "in" in files:
        path = tmp_path / "in.json"
        path.write_text(files["in"])
        argv = argv + [str(path)]
    if files.get("oracle") is not None:
        path = tmp_path / "oracle.json"
        path.write_text(files["oracle"])
        argv = argv + ["--oracle", str(path)]
    if argv[0] == "run":
        argv = argv + ["--out", str(tmp_path / "out")]
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VIOLATIONS)
    assert "Traceback" not in err
