"""Command-line interface.

  smarton-sim simulate --config <path> [--seed N] [--policy P] [--out DIR]
  smarton-sim sweep    --scenario <preset|path> --out DIR [--jobs N]
  smarton-sim report   --in DIR --plot <id> [--out DIR]

Exit codes: 0 success, 2 validation error, 1 runtime error.  The environment
variable SMARTON_SIM_SEED overrides the config seed (an explicit --seed flag
beats both); a sweep with a [sweep] seeds axis refuses it.
"""

from __future__ import annotations

import argparse
import os
import sys

from .engine import POLICY_NAMES, compute_metrics, run_experiment
from .reports import PLOT_IDS, UnknownPlot, emit_csv, emit_plot_data, record_experiment, run_sweep
from .scenario import PRESETS, RunKey, ScenarioError, build_sim_config, load_scenario, parse_config

ENV_SEED = "SMARTON_SIM_SEED"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smarton-sim",
        description="Deterministic just-in-time event detection simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a single scenario")
    sim.add_argument("--config", required=True, help="scenario INI file")
    sim.add_argument("--seed", type=int, default=None, help="seed override")
    sim.add_argument("--policy", choices=POLICY_NAMES, default=None)
    sim.add_argument("--out", default=None, help="directory for CSV output")

    sweep = sub.add_parser("sweep", help="run a sweep preset or scenario")
    sweep.add_argument(
        "--scenario", required=True,
        help=f"preset name ({', '.join(sorted(PRESETS))}) or INI path",
    )
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--jobs", type=int, default=1)

    rep = sub.add_parser("report", help="emit plot data from sweep results")
    rep.add_argument("--in", dest="in_dir", required=True)
    rep.add_argument("--plot", required=True, help=f"one of: {', '.join(PLOT_IDS)}")
    rep.add_argument("--out", default=None, help="defaults to the input directory")
    return parser


def _apply_seed_env(scenario):
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            scenario = scenario.with_value("run", "seed", int(env))
        except ValueError:
            raise ScenarioError(f"{ENV_SEED} must be an integer, got {env!r}")
    return scenario


def cmd_simulate(args) -> int:
    scenario = parse_config(args.config)
    scenario = _apply_seed_env(scenario)
    if args.seed is not None:
        scenario = scenario.with_value("run", "seed", args.seed)
    if args.policy is not None:
        scenario = scenario.with_value("policy", "policy", args.policy)
    config = build_sim_config(scenario)
    result = run_experiment(config)
    metrics = compute_metrics(result.periods, from_period=config.measure_from)
    print(
        f"{scenario.name}: policy={config.policy} seed={config.seed} "
        f"periods={result.n_periods_run}"
    )
    print(
        f"  total_catches={metrics.total_catches} "
        f"energy_efficiency={metrics.energy_efficiency:.6f} "
        f"awake_ticks={metrics.awake_ticks} event_ticks={metrics.event_ticks}"
    )
    if args.out:
        record = record_experiment(RunKey.of(config), result, scenario.name)
        paths = emit_csv([record], args.out, config.measure_from, scenario.name)
        print("  wrote " + ", ".join(paths))
    return 0


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ScenarioError(f"--jobs must be at least 1, got {args.jobs}")
    scenario = load_scenario(args.scenario)
    seeds = scenario.values[("sweep", "seeds")].strip()
    if seeds and ENV_SEED in os.environ:
        # the axis would set every run's seed over the variable's
        raise ScenarioError(f"{ENV_SEED} cannot set the seed of a sweep with a "
                            f"[sweep] seeds axis ({seeds}); unset one of them")
    scenario = _apply_seed_env(scenario)
    records = run_sweep(scenario, jobs=args.jobs)
    measure_from = scenario.values[("run", "measure_from")]
    paths = emit_csv(records, args.out, measure_from, scenario.name)
    print(f"{scenario.name}: {len(records)} runs -> " + ", ".join(paths))
    return 0


def cmd_report(args) -> int:
    out_dir = args.out or args.in_dir
    paths = emit_plot_data(args.in_dir, out_dir, args.plot)
    print("wrote " + ", ".join(paths))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "report":
            return cmd_report(args)
        parser.error(f"unknown command {args.command}")
    except (ScenarioError, UnknownPlot) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
