"""Sweep execution and CSV/plot-data emission.

CSV schemas are pinned (golden-file tested): UTF-8, one header row, fixed
column order, reals with six decimals.  Plot data mirrors the headline
figures as whitespace-separated .dat files plus a dependency-free SVG
rendering of each.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from multiprocessing import Pool

from .engine import convergence_stats, run_experiment, run_partition_study
from .rng import Stream
from .scenario import RunKey, Scenario, expand_sweep

PLOT_IDS = (
    "conv-vs-ratio",
    "conv-per-entry",
    "perf-by-type",
    "state-duration",
    "adaptation",
)


@dataclass
class RunRecord:
    key: RunKey
    scenario: str
    periods: list  # (period, phase, catches, misses, awake, events)
    level_rows: list  # dicts: entry_level, learn_order, episodes_to_converge
    phase1_passes: int | None
    study: dict | None = None  # first_at / all_at for partition studies


def record_experiment(key: RunKey, result, scenario_name: str) -> RunRecord:
    """The record of a finished `run_experiment`, as sweeps and `simulate
    --out` write it."""
    stats = convergence_stats(result)
    level_rows = [
        {
            "entry_level": level,
            "learn_order": info["learn_order"],
            "episodes_to_converge": info["episodes_to_converge"],
        }
        for (_, level), info in sorted(stats["per_level"].items(), key=lambda kv: kv[0][1])
    ]
    passes = stats["phase1_stays"][0]["passes"] if stats["phase1_stays"] else None
    return RunRecord(
        key=key,
        scenario=scenario_name,
        periods=[
            (p.period, p.phase_start, p.catches, p.misses, p.awake_ticks, p.event_ticks)
            for p in result.periods
        ],
        level_rows=level_rows,
        phase1_passes=passes,
    )


def _record_study(key: RunKey, config, scenario_name: str) -> RunRecord:
    k = config.learner.k_levels
    order = Stream(config.seed, "shuffle").shuffled(range(1, k + 1))
    study = run_partition_study(config, order)
    level_rows = [
        {
            "entry_level": level,
            "learn_order": pos + 1,
            "episodes_to_converge": study.episodes_per_level[level],
        }
        for pos, level in enumerate(study.order)
    ]
    return RunRecord(
        key=key,
        scenario=scenario_name,
        periods=[],
        level_rows=level_rows,
        phase1_passes=None,
        study={
            "first_converged_at": study.first_converged_at,
            "all_converged_at": study.all_converged_at,
        },
    )


def _run_one(args):
    key, config, scenario_name, study = args
    if study:
        return _record_study(key, config, scenario_name)
    return record_experiment(key, run_experiment(config), scenario_name)


def run_sweep(scenario: Scenario, jobs: int = 1) -> list[RunRecord]:
    """Execute every run of `expand_sweep(scenario)`, as partition studies
    when the scenario names one; order of records is deterministic.  With
    `jobs` > 1 the runs go to a pool of at most one worker per run.

    When state_duration is swept, each run's scenario label carries a
    `/d<duration>` suffix so that metrics.csv rows (whose schema has no
    duration column) stay distinguishable.  Each run keeps its own reuse
    on its policy, so no record depends on the runs before it, in this
    process or a worker.
    """
    multi_duration = len(scenario.axis("state_duration")) > 1
    study = scenario.study is not None
    runs = []
    for key, config in expand_sweep(scenario):
        label = f"{scenario.name}/d{key.state_duration}" if multi_duration else scenario.name
        runs.append((key, config, label, study))
    # more workers than runs would only idle
    jobs = min(jobs, len(runs))
    if jobs > 1:
        with Pool(jobs) as pool:
            return pool.map(_run_one, runs)
    return [_run_one(args) for args in runs]


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

METRICS_HEADER = (
    "scenario,policy,event_type,entry_level,seed,period,"
    "total_catches,energy_efficiency,awake_ticks,event_ticks"
)
CONVERGENCE_HEADER = "entry_level,learn_order,episodes_to_converge,charging_ratio,passes"
TIMELINE_HEADER = "period,phase,catches,misses"


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def emit_csv(records: list[RunRecord], out_dir, measure_from: int = 0,
             name: str = "") -> list[str]:
    """Write the three CSVs and manifest.json (scenario `name`); returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    path = os.path.join(out_dir, "metrics.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for rec in records:
            k = rec.key
            level = "" if k.entry_level is None else k.entry_level
            prefix = f"{rec.scenario},{k.policy},{k.event_type},{level},{k.seed},"
            fh.write("".join(
                f"{prefix}{period},{catches},{(catches / awake if awake else 0.0):.6f},"
                f"{awake},{events}\n"
                for period, _phase, catches, _misses, awake, events in rec.periods))
    paths.append(path)

    path = os.path.join(out_dir, "convergence.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CONVERGENCE_HEADER + "\n")
        for rec in records:
            for row in rec.level_rows:
                fh.write(
                    f"{row['entry_level']},{row['learn_order']},"
                    f"{row['episodes_to_converge']},,\n"
                )
            if rec.phase1_passes is not None:
                fh.write(f",,,{_fmt(rec.key.charging_ratio)},{rec.phase1_passes}\n")
    paths.append(path)

    path = os.path.join(out_dir, "timeline.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TIMELINE_HEADER + "\n")
        for rec in records:
            if rec.key.policy != "smarton":
                continue
            for period, phase, catches, misses, _awake, _events in rec.periods:
                fh.write(f"{period},{phase},{catches},{misses}\n")
    paths.append(path)

    manifest = {
        "scenario": name,
        "measure_from": measure_from,
        "runs": len(records),
    }
    mpath = os.path.join(out_dir, "manifest.json")
    with open(mpath, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(mpath)
    return paths


# ---------------------------------------------------------------------------
# Plot data: .dat per figure + a minimal SVG rendering
# ---------------------------------------------------------------------------

class UnknownPlot(Exception):
    pass


def _read_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def _mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _stderr(xs):
    xs = list(xs)
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    var = sum((x - m) ** 2 for x in xs) / (len(xs) - 1)
    return math.sqrt(var / len(xs))


def emit_plot_data(in_dir, out_dir, plot_id: str) -> list[str]:
    """Aggregate the CSVs in `in_dir` into <plot_id>.dat and .svg."""
    if plot_id not in PLOT_IDS:
        raise UnknownPlot(
            f"unknown plot {plot_id!r}; valid ids: {', '.join(PLOT_IDS)}"
        )
    os.makedirs(out_dir, exist_ok=True)
    dat_path = os.path.join(out_dir, f"{plot_id}.dat")
    svg_path = os.path.join(out_dir, f"{plot_id}.svg")

    if plot_id == "conv-vs-ratio":
        rows = _read_csv(os.path.join(in_dir, "convergence.csv"))
        groups: dict[float, list[float]] = {}
        for r in rows:
            if r["charging_ratio"]:
                groups.setdefault(float(r["charging_ratio"]), []).append(float(r["passes"]))
        lines = [
            (ratio, _mean(vals), _stderr(vals)) for ratio, vals in sorted(groups.items())
        ]
        _write_dat(dat_path, "# charging_ratio mean_passes stderr", lines)
        _svg_bars(svg_path, [(f"{r:g}", m) for r, m, _ in lines],
                  title="Phase-1 passes vs charging ratio")

    elif plot_id == "conv-per-entry":
        rows = _read_csv(os.path.join(in_dir, "convergence.csv"))
        groups = {}
        for r in rows:
            if r["entry_level"]:
                groups.setdefault(int(r["entry_level"]), []).append(
                    float(r["episodes_to_converge"])
                )
        lines = [(lvl, _mean(vals), _stderr(vals)) for lvl, vals in sorted(groups.items())]
        _write_dat(dat_path, "# entry_level mean_episodes stderr", lines)
        _svg_bars(svg_path, [(str(l), m) for l, m, _ in lines],
                  title="Episodes to converge per entry level")

    elif plot_id == "perf-by-type":
        rows = _read_csv(os.path.join(in_dir, "metrics.csv"))
        measure_from = 0
        manifest = os.path.join(in_dir, "manifest.json")
        if os.path.exists(manifest):
            with open(manifest, "r", encoding="utf-8") as fh:
                measure_from = json.load(fh).get("measure_from", 0)
        cells: dict[tuple, dict] = {}
        for r in rows:
            if int(r["period"]) < measure_from:
                continue
            key = (r["event_type"], r["entry_level"], r["policy"], r["seed"])
            cell = cells.setdefault(key, {"catches": 0, "awake": 0})
            cell["catches"] += int(r["total_catches"])
            cell["awake"] += int(r["awake_ticks"])
        agg: dict[tuple, list] = {}
        for (etype, level, policy, _seed), cell in cells.items():
            eff = cell["catches"] / cell["awake"] if cell["awake"] else 0.0
            agg.setdefault((etype, level, policy), []).append((cell["catches"], eff))
        lines = [
            (etype, level, policy,
             _mean(c for c, _ in vals), _mean(e for _, e in vals))
            for (etype, level, policy), vals in sorted(agg.items())
        ]
        _write_dat(dat_path, "# event_type entry_level policy mean_catches mean_efficiency", lines)
        _svg_bars(
            svg_path,
            [(f"{t}/E{l}/{p}"[:18], c) for t, l, p, c, _ in lines],
            title="Catches by event type / entry level / policy",
        )

    elif plot_id == "state-duration":
        rows = _read_csv(os.path.join(in_dir, "metrics.csv"))
        per_run: dict[tuple, int] = {}
        for r in rows:
            m = re.search(r"/d(\d+)$", r["scenario"])
            if not m:
                continue
            key = (int(m.group(1)), r["seed"], r["entry_level"], r["event_type"])
            per_run[key] = per_run.get(key, 0) + int(r["total_catches"])
        groups = {}
        for (duration, *_rest), total in per_run.items():
            groups.setdefault(duration, []).append(total)
        lines = [(d, _mean(vals), _stderr(vals)) for d, vals in sorted(groups.items())]
        _write_dat(dat_path, "# state_duration mean_total_catches stderr", lines)
        _svg_bars(svg_path, [(f"{d}s", m) for d, m, _ in lines],
                  title="Total catches vs state duration")

    elif plot_id == "adaptation":
        rows = _read_csv(os.path.join(in_dir, "timeline.csv"))
        lines = [
            (int(r["period"]), int(r["phase"]), int(r["catches"]), int(r["misses"]))
            for r in rows
        ]
        _write_dat(dat_path, "# period phase catches misses", lines)
        _svg_line(
            svg_path,
            [(p, m) for p, _, _, m in lines],
            title="Missed events per period (phase timeline)",
        )

    return [dat_path, svg_path]


def _write_dat(path, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(" ".join(_cell(x) for x in line) + "\n")


def _cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.6f}"
    return str(x)


def _svg_bars(path, labelled_values, title: str, width=640, height=360) -> None:
    """Bars with labels; values scaled to the tallest bar."""
    n = max(1, len(labelled_values))
    vmax = max((v for _, v in labelled_values), default=1.0) or 1.0
    bar_w = max(4, (width - 60) // max(n, 1) - 6)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="10" y="18" font-size="13">{title}</text>',
    ]
    for i, (label, value) in enumerate(labelled_values):
        h = int((height - 80) * (value / vmax))
        x = 40 + i * (bar_w + 6)
        y = height - 40 - h
        parts.append(
            f'<rect x="{x}" y="{y}" width="{bar_w}" height="{h}" fill="#4477aa"/>'
        )
        parts.append(
            f'<text x="{x}" y="{height - 24}" font-size="9">{label}</text>'
        )
        parts.append(
            f'<text x="{x}" y="{y - 4}" font-size="9">{value:.1f}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _svg_line(path, points, title: str, width=640, height=360) -> None:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="10" y="18" font-size="13">{title}</text>',
    ]
    if points:
        xs = [p for p, _ in points]
        ys = [v for _, v in points]
        xmin, xmax = min(xs), max(xs) or 1
        ymax = max(ys) or 1
        span_x = max(1, xmax - xmin)
        coords = [
            (
                40 + (x - xmin) / span_x * (width - 80),
                height - 40 - (y / ymax) * (height - 80),
            )
            for x, y in points
        ]
        poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        parts.append(
            f'<polyline points="{poly}" fill="none" stroke="#aa4444" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


