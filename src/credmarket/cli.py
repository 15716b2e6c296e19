"""Command-line entry point.

Subcommands: run (experiments), verify (transcript audit), sweep (scaling
fits), gamma (non-modularity distributions), perturb (build and price one
payment perturbation). Exit codes: 0 success, 1 config/usage error, 2
verification violations found — pipelines branch on detection.
"""

import argparse
import json
import math
import os
import sys

from .adversary import apply_deviation, construct_perturbation
from .credibility import make_commitment, verify_transcript
from .errors import CredmarketError
from .mechanisms import Mechanism, UniformPrior
from .metrics import MAX_GRID_VALUE, gamma_distribution, scaling_sweep
from .polymatroid import LaminarOracle, TableOracle, pair_gap, verify_axioms
from .sim import ScenarioConfig, report_json, rows_to_csv, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATIONS = 2

#: the entries each `perturb` oracle kind needs
_ORACLE_FIELDS = {
    "table": ("n_agents", "table"),
    "laminar": ("demands", "group_of", "group_caps"),
}

GAMMA_CLASSES = ("tree", "sp", "entangled", "modular")
SWEEP_CLASSES = ("series", "parallel", "tree", "entangled")
DEFAULT_SWEEP_SEEDS = (0, 1, 2)


def _fmt(x):
    return f"{x:.9g}" if isinstance(x, float) else str(x)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for violations here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser():
    parser = _Parser(prog="credmarket", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand")

    p_run = sub.add_parser("run", help="execute an experiment")
    p_run.add_argument("--exp", required=True, choices=("exp1", "exp2", "exp3", "r5"))
    p_run.add_argument("--config", help="scenario config JSON file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, help="replace the seed list with one seed")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes, at least 1 (default: 1)")
    p_run.add_argument("--format", default="csv", choices=("csv", "json"),
                       help="per-round row format")

    p_ver = sub.add_parser("verify", help="audit a broadcast transcript file")
    p_ver.add_argument("--transcript", required=True)
    p_ver.add_argument("--oracle",
                       help="JSON oracle spec of the committed rank function: "
                            "also check every announced rank value against it")

    p_sweep = sub.add_parser("sweep", help="fit a scaling law on a topology class")
    p_sweep.add_argument("--class", dest="topology_class", required=True,
                         choices=SWEEP_CLASSES)
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated increasing parameter values, "
                              f"each from 1 to {MAX_GRID_VALUE}")
    p_sweep.add_argument("--seed", type=int, help="single seed (default three)")
    p_sweep.add_argument("--out", help="write the fit JSON here instead of stdout")

    p_gamma = sub.add_parser("gamma", help="sample a non-modularity distribution")
    p_gamma.add_argument("--class", dest="topology_class", required=True,
                         choices=GAMMA_CLASSES)
    p_gamma.add_argument("--seed", type=int, default=0)
    p_gamma.add_argument("--out", help="write the distribution JSON here")

    p_pert = sub.add_parser("perturb", help="price a payment perturbation")
    p_pert.add_argument("--bids", required=True,
                        help="JSON file: bids, oracle spec, optional epsilon_target")
    return parser


def _is_number(v):
    # JSON numbers only: a bool is an int to Python but not a bid
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CredmarketError(f"cannot read {path}: {exc}") from exc


def _numbers(obj, key):
    values = obj[key]
    if not isinstance(values, list) or not all(map(_is_number, values)):
        raise CredmarketError(f"{key} must be a list of numbers, got {json.dumps(values)[:40]}")
    return values


def _oracle_from_spec(obj, n_bids=None):
    """The rank oracle an oracle spec describes; with `n_bids`, its agent
    count must match the bids'."""
    if not isinstance(obj, dict):
        raise CredmarketError("the oracle entry must be a JSON object")
    kind = obj.get("kind", "table")
    if not isinstance(kind, str) or kind not in _ORACLE_FIELDS:
        raise CredmarketError(f"unknown oracle kind {kind!r}")
    missing = [key for key in _ORACLE_FIELDS[kind] if key not in obj]
    if missing:
        raise CredmarketError(f"{kind} oracle spec lacks {missing}")
    if kind == "laminar":
        root_cap = obj.get("root_cap", float("inf"))
        if not _is_number(root_cap):
            raise CredmarketError(f"root_cap must be a number, got {root_cap!r}")
        oracle = LaminarOracle(
            _numbers(obj, "demands"),
            _numbers(obj, "group_of"),
            _numbers(obj, "group_caps"),
            root_cap=root_cap,
        )
        if n_bids is not None and oracle.n != n_bids:
            raise CredmarketError(f"the laminar oracle has {oracle.n} agents for {n_bids} bids")
        return oracle
    n_agents = obj["n_agents"]
    if not isinstance(n_agents, int) or isinstance(n_agents, bool):
        raise CredmarketError(f"n_agents must be an integer, got {n_agents!r}")
    if n_bids is not None and n_agents != n_bids:
        raise CredmarketError(f"the table oracle has {n_agents} agents for {n_bids} bids")
    if not isinstance(obj["table"], dict):
        raise CredmarketError("the oracle table must map subset keys to ranks")
    table = {}
    try:
        for key, value in obj["table"].items():
            # json.load reads NaN and Infinity, which pass every axiom check
            if not _is_number(value) or not math.isfinite(value):
                raise CredmarketError(f"table value {value!r} for {key!r} is not a finite number")
            subset = frozenset(int(t) for t in key.split(",") if t != "")
            table[subset] = float(value)
    except ValueError as exc:
        raise CredmarketError(f"bad table oracle spec: {exc}") from exc
    oracle = TableOracle(n_agents, table)
    # the mechanisms assume a polymatroid: a table that is not one would
    # price negative shares or blame the bids for its own fault
    verdict = verify_axioms(oracle)
    if not verdict.ok:
        first = _violation(verdict.violations[0])
        raise CredmarketError(f"the oracle table is not a polymatroid: {first}")
    return oracle


def _violation(v):
    subset = "{" + ",".join(map(str, v["subset"])) + "}"
    if v["kind"] == "normalisation":
        return f"f({{}}) = {_fmt(v['value'])}, not 0"
    if v["kind"] == "monotonicity":
        return f"rank falls when agent {v['element']} joins {subset}"
    i, j = v["pair"]
    return f"agents {i} and {j} are complements over {subset} (submodularity fails)"


def _cmd_run(args):
    config = (
        ScenarioConfig.from_dict(_load_json(args.config))
        if args.config
        else ScenarioConfig()
    )
    if args.seed is not None:
        config = ScenarioConfig.from_dict(
            {**config.to_dict(), "seeds": [args.seed]}
        )
    report = run_experiment(args.exp, config, jobs=args.jobs)

    os.makedirs(args.out, exist_ok=True)
    rows = report.pop("rows")
    if args.format == "csv":
        rows_path = os.path.join(args.out, f"{args.exp}_rounds.csv")
        with open(rows_path, "w", newline="") as fh:
            rows_to_csv(rows, fh)
    else:
        rows_path = os.path.join(args.out, f"{args.exp}_rounds.json")
        with open(rows_path, "w") as fh:
            fh.write(report_json({"rows": rows}))
    summary_path = os.path.join(args.out, f"{args.exp}_summary.json")
    with open(summary_path, "w") as fh:
        fh.write(report_json(report))
    print(f"wrote {rows_path}")
    print(f"wrote {summary_path}")
    print(f"digest {report['digest']}")
    return EXIT_OK


def _cmd_verify(args):
    obj = _load_json(args.transcript)
    if not isinstance(obj, dict):
        raise CredmarketError(
            f"transcript file must hold a JSON object, not {json.dumps(obj)[:40]}"
        )
    if "commitment_root" not in obj:
        raise CredmarketError("transcript file lacks a commitment_root")
    oracle = None
    if args.oracle is not None:
        oracle = _oracle_from_spec(_load_json(args.oracle))
        if make_commitment(oracle) != obj["commitment_root"]:
            raise CredmarketError(
                f"the oracle in {args.oracle} is not the one the transcript's "
                "commitment_root binds"
            )
    verdict = verify_transcript(obj, obj["commitment_root"], oracle=oracle)
    print(json.dumps(verdict.to_json(), sort_keys=True, indent=2))
    return EXIT_OK if verdict.consistent else EXIT_VIOLATIONS


def _cmd_sweep(args):
    try:
        grid = [int(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise CredmarketError(f"bad grid: {exc}") from exc
    seeds = (args.seed,) if args.seed is not None else DEFAULT_SWEEP_SEEDS
    fit = scaling_sweep(args.topology_class, grid, seeds)
    text = json.dumps(fit.to_json(), sort_keys=True, separators=(",", ":"))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    print(f"slope {_fmt(fit.slope)} ci [{_fmt(fit.slope_ci[0])}, {_fmt(fit.slope_ci[1])}]")
    return EXIT_OK


def _cmd_gamma(args):
    dist = gamma_distribution(
        args.topology_class, UniformPrior(1.0, 11.0), seed=args.seed
    )
    out = dict(dist)
    out.pop("samples", None)  # keep the artifact small; stats carry the story
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    print(f"mean {_fmt(out['mean'])}")
    return EXIT_OK


def _cmd_perturb(args):
    obj = _load_json(args.bids)
    if not isinstance(obj, dict) or "bids" not in obj or "oracle" not in obj:
        raise CredmarketError("bid file must be a JSON object with 'bids' and 'oracle' entries")
    bids = obj["bids"]
    if not isinstance(bids, list) or not all(map(_is_number, bids)):
        raise CredmarketError(f"bids must be a list of numbers, got {json.dumps(bids)[:40]}")
    bids = [float(b) for b in bids]
    epsilon_target = obj.get("epsilon_target")
    if epsilon_target is not None and not _is_number(epsilon_target):
        raise CredmarketError(f"epsilon_target must be a number, got {epsilon_target!r}")
    oracle = _oracle_from_spec(obj["oracle"], len(bids))
    strategy = construct_perturbation(bids, oracle, epsilon_target)
    i, j = strategy.pair
    gamma = pair_gap(oracle, i, j)
    result = apply_deviation(strategy, bids, Mechanism(payment_rule="vcg"), oracle)
    print(f"pair ({i}, {j})")
    print(f"delta {_fmt(strategy.delta)}")
    print(f"gamma {_fmt(gamma)}")
    print(f"increment {_fmt(result.operator_surplus)}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "gamma": _cmd_gamma,
    "perturb": _cmd_perturb,
}


def dispatch(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_CONFIG
    if not args.subcommand:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.subcommand](args)
    except CredmarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
