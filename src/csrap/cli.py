"""Command line interface.

Subcommands: ``generate`` (configuration to scenario document), ``solve``
(scenario plus algorithm to schedule document), ``verify`` (scenario plus
schedule to a constraint report), ``sweep`` (sweep specification to CSV) and
``bounds`` (instance quantities of the approximation guarantee).

Exit codes: 0 success or feasible, 1 infeasible, 2 usage or input error,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Any

from .exact import DEFAULT_NODE_BUDGET, SearchBudgetExceeded, exact_solve
from .harness import (
    greedy_based_reference,
    run_sweep,
    schedule_from_document,
    schedule_to_document,
    sweep_spec_from_document,
)
from .model import verify_schedule
from .scenario import (
    InvalidConfigError,
    ScenarioConfig,
    ScenarioFormatError,
    config_from_document,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from .solvers import SolveStatus, baseline_schedule, bound_params, m_mramc, mramc

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read_json(path: str, what: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ScenarioFormatError(f"{what}: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{what}: invalid JSON: {exc}") from None


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def cmd_generate(args: argparse.Namespace) -> int:
    if args.config:
        config = config_from_document(_read_json(args.config, "config"))
    else:
        config = ScenarioConfig()
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    scenario = generate_scenario(config)
    _write_text(_dump(save_scenario(scenario)), args.out)
    uncovered = scenario.uncovered_targets()
    _say(
        args,
        f"generated {len(scenario.cameras)} cameras / {len(scenario.targets)} targets "
        f"({config.deployment}, seed {config.rng_seed})"
        + (f"; WARNING uncoverable targets: {list(uncovered)}" if uncovered else ""),
    )
    return EXIT_OK


_SOLVERS = {
    "baseline": lambda scn, args: baseline_schedule(scn),
    "mramc": lambda scn, args: mramc(scn),
    "greedy_based": lambda scn, args: greedy_based_reference(scn),
    "exact": lambda scn, args: exact_solve(scn, "with_exclusivity", args.budget),
    "exact_relaxed": lambda scn, args: exact_solve(scn, "without_exclusivity", args.budget),
    "m_mramc": lambda scn, args: m_mramc(scn, {t.id: args.multiplicity for t in scn.targets}),
}


def cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(_read_json(args.scenario, "scenario"))
    result = _SOLVERS[args.algo](scenario, args)
    doc = schedule_to_document(result)
    if args.out:
        _write_text(_dump(doc), args.out)
    elif args.quiet:
        _write_text(_dump(doc), None)
    if not args.quiet:
        print(f"algorithm: {args.algo}")
        print(f"status: {result.status.value}")
        print(f"total_rbs: {result.schedule.total_rbs}")
        for a in result.schedule.assignments:
            print(
                f"  camera {a.camera_id}: slot {a.slot}, subchannels {a.start}-{a.start + a.length - 1}"
                f" ({a.length} RBs at rate {a.robust_rate:g})"
            )
        for note in result.diagnostics.notes:
            print(f"  note: {note}")
    return EXIT_OK if result.status is SolveStatus.FEASIBLE else EXIT_INFEASIBLE


def cmd_verify(args: argparse.Namespace) -> int:
    scenario = load_scenario(_read_json(args.scenario, "scenario"))
    schedule = schedule_from_document(_read_json(args.schedule, "schedule"), scenario)
    report = verify_schedule(schedule, scenario)
    if not args.quiet:
        for line in report.lines():
            print(line)
        print("feasible" if report.feasible else "infeasible")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = sweep_spec_from_document(_read_json(args.spec, "sweep"))
    if args.seed is not None:
        spec = replace(spec, base_seed=args.seed)
    result = run_sweep(spec)
    _write_text(result.to_csv(timestamp=not args.quiet), args.out)
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    scenario = load_scenario(_read_json(args.scenario, "scenario"))
    try:
        params = bound_params(scenario)
    except ValueError as exc:
        print(f"bounds unavailable: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"d_star: {params.d_star}")
    print(f"H(d_star): {params.h_d_star} ({float(params.h_d_star):.6f})")
    print(f"r_max: {params.r_max:g}")
    print(f"r_min: {params.r_min:g}")
    print(f"ratio_bound: {params.ratio():.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csrap",
        description="Coverage-aware uplink resource-block scheduling for camera networks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file ('-' or omitted for stdout)")
    common.add_argument("--seed", type=int, default=None, help="override the configured seed")
    common.add_argument("--quiet", action="store_true", help="suppress summaries and timestamps")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="generate a scenario document")
    p.add_argument("--config", default=None, help="generator configuration JSON")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", parents=[common], help="solve a scenario document")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--algo", choices=sorted(_SOLVERS), default="mramc")
    p.add_argument("--multiplicity", type=int, default=1, help="per-target camera count for m_mramc")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="node budget for the exact solver")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", parents=[common], help="check a schedule against a scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("schedule", help="schedule JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common], help="run a parameter sweep and emit CSV")
    p.add_argument("spec", help="sweep specification JSON file")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bounds", parents=[common], help="print approximation-bound quantities")
    p.add_argument("scenario", help="scenario JSON file")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ScenarioFormatError, InvalidConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchBudgetExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
