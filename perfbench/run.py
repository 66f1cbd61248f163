"""smarton-sim benchmark: preset sweeps timed end to end, checked for exact
output, and split per layer by a separate traced run.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere; the checkout is the parent of this directory and the
simulator is imported from its ``src/``.  Workloads are defined in
``workloads.py``; metric definitions are in ``README.md``.

One run, for one workload:

1. set-up is measured in fresh processes, several times (median);
2. an untimed reference sweep (serial, summary mode) gives the simulated
   counts and the output the timed sweeps must reproduce;
3. the sweep is repeated for ``--seconds`` seconds with tracing off; with
   ``--trace 1`` the second half of that time runs traced sweeps instead.
   Every time is scaled to nominal host speed by probes taken during the
   sweep (speed.py).

The last line of standard output is one JSON object with ``correct``,
``attempted`` (simulation runs), ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details (environment, seeds, every sample, spans) go to
``.perfbench-out/`` in the checkout.  ``--workload all`` runs every
workload with tracing off and on and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import speed
from tracer import (
    LAYERS,
    POOL_WAIT,
    PROBE,
    Patches,
    PeriodCounter,
    Tracer,
    install_period_counter,
    install_record_capture,
    install_run_timer,
    install_tracer,
    layer_of,
    max_rss_kb,
)
from workloads import DEFAULT_SEED, WORKLOADS, build_scenario, sweep_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 7
MIN_REPS = 3
POLICIES = ("smarton", "ctid", "ctidpro", "gt")

END_TO_END = (
    ("wall_s", "s"),
    ("ticks_per_s", "Mticks/s"),
    ("run_s_p50", "s"),
    ("run_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("scenario.expand_s", "s"),
    ("scenario.configs", "count"),
    ("scenario.self_s", "s"),
    ("events.sample_s", "s"),
    ("events.doubles_drawn", "count"),
    ("energy.store_s", "s"),
    ("energy.harvest_calls", "count"),
    ("energy.draw_calls", "count"),
    ("energy.warmup_calls", "count"),
    ("engine.self_s", "s"),
    ("engine.kernel_self_s", "s"),
    ("engine.run_overhead_s", "s"),
    ("engine.ns_per_tick", "ns"),
    ("engine.periods", "count"),
    ("engine.ticks", "count"),
    ("policies.self_s", "s"),
    ("policies.plan_s", "s"),
    ("policies.plan_calls", "count"),
    ("policies.slot_end_s", "s"),
    ("policies.period_hooks_s", "s"),
) + tuple((f"policies.{p}.ticks_per_s", "Mticks/s") for p in POLICIES) + (
    ("learner.self_s", "s"),
    ("learner.wake_offsets_calls", "count"),
    ("learner.wake_offsets_s", "s"),
    ("learner.q_updates", "count"),
    ("learner.q_update_s", "s"),
    ("learner.episodes", "count"),
    ("learner.profile_passes", "count"),
    ("reports.self_s", "s"),
    ("reports.emit_s", "s"),
    ("reports.rows", "count"),
    ("reports.bytes", "B"),
    ("reports.pool_wait_s", "s"),
    ("reports.worker_busy_s", "s"),
    ("reports.parallel_efficiency", "ratio"),
    ("sim.catches", "count"),
    ("sim.awake_ticks", "count"),
    ("sim.event_ticks", "count"),
    ("sim.catch_ratio", "ratio"),
    ("sim.skipped_wakeups", "count"),
    ("trace.wall_s", "s"),
    ("trace.accounted_s", "s"),
    ("trace.other_s", "s"),
    ("trace.overhead_s", "s"),
)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def load_sim():
    sys.path.insert(0, str(ROOT / "src"))
    import smarton_sim
    from smarton_sim import cli, energy, engine, events, learner, policies, reports, rng, scenario

    return SimpleNamespace(package=smarton_sim, cli=cli, scenario=scenario, engine=engine,
                           events=events, energy=energy, policies=policies,
                           learner=learner, reports=reports, rng=rng)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_rev():
    """HEAD of the checkout, or None when it is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def env_stamp():
    import numpy

    lines = 0
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(workload, seed, ini):
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), workload.name, str(seed)]
    if ini is not None:
        cmd.append(str(ini))
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def sweep_once(sim, workload, scenario, ini, out_dir, captured):
    """One sweep; returns (records, wall seconds from its start until the
    CSVs are written)."""
    t0 = perf_counter()
    if workload.via_cli:
        argv = ["sweep", "--scenario", str(ini), "--out", str(out_dir),
                "--jobs", str(workload.jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = sim.cli.main(argv)
        wall = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"smarton-sim sweep exited with {code}")
        return captured.pop(), wall
    records = sim.reports.run_sweep(scenario, jobs=workload.jobs)
    sim.reports.emit_csv(records, out_dir, measure_from=scenario.values[("run", "measure_from")])
    return records, perf_counter() - t0


def reference_pass(sim, workload, seed, out_dir):
    scenario = build_scenario(sim.scenario.load_scenario, workload, seed, reference=True)
    counter = PeriodCounter()
    patches = Patches()
    install_period_counter(patches, sim, counter)
    install_run_timer(patches, sim, counter=counter)
    try:
        records = sim.reports.run_sweep(scenario, jobs=1)
        sim.reports.emit_csv(records, out_dir,
                             measure_from=scenario.values[("run", "measure_from")])
    finally:
        patches.undo()
    return records, counter


def timed_reps(sim, workload, scenario, ini, out_dir, budget_s, min_reps, ref, traced):
    """Repeat the sweep until `budget_s` would be exceeded (at least
    `min_reps` times); check every sweep against the reference.  Only the
    per-run timings (and, when traced, the layer split) are kept, so memory
    does not grow with the number of sweeps."""
    reps = []
    start = perf_counter()
    while True:
        patches = Patches()
        captured = []
        tracer = Tracer() if traced else None
        if tracer is not None:
            install_tracer(patches, sim, tracer)
        install_run_timer(patches, sim, tracer=tracer)
        if workload.via_cli:
            install_record_capture(patches, sim, captured)
        gc.collect()
        rep = SimpleNamespace(runs=None, wall=None, error=None, failed=0, tracer=tracer,
                              layer=None)
        records = None
        try:
            records, rep.wall = sweep_once(sim, workload, scenario, ini, out_dir, captured)
        except Exception:  # a failing sweep is a measured failure, reported below
            rep.error = traceback.format_exc()
        finally:
            patches.undo()
        if rep.error is not None:
            rep.failed = len(ref.records)
        else:
            rep.failed = checks.mismatched_runs(records, ref.records)
            if not rep.failed and checks.digests(out_dir) != ref.digests:
                rep.failed = len(ref.records)
            rep.runs = [rec.perfbench for rec in records]
            host_speed(rep, workload.jobs)
            if tracer is not None:
                rep.layer = traced_layer_metrics(tracer, records, rep, ref.counter)
        del records
        reps.append(rep)
        elapsed = perf_counter() - start
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > budget_s:
            return reps


def host_speed(rep, jobs):
    """Scale one sweep's times to nominal speed (see speed.py): the wall time
    by the speed of all its probes, each run by the probes taken during it
    (by those of its process when it was too short to get one).  Probe time
    is taken out first: out of each run, and out of the wall time, where the
    probes of `jobs` processes overlap."""
    probes = [p for run in rep.runs for p in run["probes"]]
    rep.speed = speed.relative_speed(probes)
    rep.sweep_s = (rep.wall - sum(probes) / jobs) * rep.speed
    per_pid = {}
    for run in rep.runs:
        per_pid.setdefault(run["pid"], []).extend(run["probes"])
    pid_speed = {pid: speed.relative_speed(p) for pid, p in per_pid.items()}
    rep.run_s = [
        (run["s"] - sum(run["probes"]))
        * (speed.relative_speed(run["probes"]) if run["probes"] else pid_speed[run["pid"]])
        for run in rep.runs
    ]


def quantile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end_metrics(workload, good, ref, setup):
    wall = statistics.median(r.sweep_s for r in good)
    samples = [s for r in good for s in r.run_s]
    # the workers of one sweep run at the same time; those of different
    # sweeps never do
    children_kb = max(
        sum(
            max(run["rss_kb"] for run in r.runs if run["pid"] == pid)
            for pid in {run["pid"] for run in r.runs} - {os.getpid()}
        )
        for r in good
    )
    metrics = {
        "wall_s": wall,
        "ticks_per_s": ref.counter.ticks / wall / 1e6,
        "run_s_p50": statistics.median(samples),
        "run_s_tail": quantile(samples, workload.tail_pct),
        "setup_s": statistics.median(
            (s["import_s"] + s["load_s"] + s["expand_s"] + s["pool_s"]) * s["speed"]
            for s in setup
        ),
        "peak_rss_mb": (max_rss_kb() + children_kb) / 1024,
    }
    beyond = sum(s > metrics["run_s_tail"] for s in samples)
    notes = {
        "run_samples": len(samples),
        "run_s_tail_percentile": workload.tail_pct,
        "run_samples_beyond_tail": beyond,
        "raw_walls": [r.wall for r in good],
        "speeds": [r.speed for r in good],
        "raw_setup_s": [s["import_s"] + s["load_s"] + s["expand_s"] + s["pool_s"]
                        for s in setup],
    }
    return metrics, notes


def untraced_layer_metrics(workload, reps, ref):
    """Per-policy throughput and pool use, from per-run timers of the
    untraced sweeps (tracing would distort them)."""
    rates = {p: [] for p in POLICIES}
    busy, efficiency = [], []
    for r in reps:
        total = 0.0
        per_policy = {p: [0, 0.0] for p in POLICIES}
        for run_s, ref_rec in zip(r.run_s, ref.records):
            total += run_s
            acc = per_policy[ref_rec.key.policy]
            acc[0] += ref_rec.perfbench["ticks"]
            acc[1] += run_s
        for p, (ticks, secs) in per_policy.items():
            rates[p].append(ticks / secs / 1e6 if secs else 0.0)
        busy.append(total)
        efficiency.append(total / (workload.jobs * r.sweep_s))
    out = {f"policies.{p}.ticks_per_s": statistics.median(v) for p, v in rates.items()}
    out["reports.worker_busy_s"] = statistics.median(busy)
    out["reports.parallel_efficiency"] = statistics.median(efficiency)
    return out


def traced_layer_metrics(tracer, records, rep, counter):
    """Layer split of one traced sweep.  Worker processes report their own
    call totals with each record; the parent's wait on the pool is replaced
    by the workers' busy time, and the speed probes are taken out, so the
    layer self times plus `other` add up to `trace.accounted_s` (equal to
    `trace.wall_s` when serial).  Times are scaled by the sweep's speed like
    the end-to-end ones."""
    remote_stats, remote_counts = {}, {}
    for rec in records:
        handoff = rec.perfbench.pop("trace", None)
        if handoff is None:
            continue
        tracer.spans.extend(handoff["spans"])
        for name, values in handoff["stats"].items():
            acc = remote_stats.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, n in handoff["counts"].items():
            remote_counts[name] = remote_counts.get(name, 0) + n

    stats = {}
    for source in (tracer.stats, remote_stats):
        for name, values in source.items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
    counts = dict(tracer.counts)
    for name, n in remote_counts.items():
        counts[name] = counts.get(name, 0) + n

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[1] for n in names)

    layer = {name: 0.0 for name in LAYERS}
    for name, (_, s, _) in stats.items():
        if layer_of(name) is not None:
            layer[layer_of(name)] += s
    pool_wait = tracer.stats.get(POOL_WAIT, [0, 0.0, 0.0])[2]
    accounted = (rep.wall - pool_wait - stats[PROBE][2]
                 + remote_stats.get("reports.run", [0, 0.0, 0.0])[2])
    kernel = self_s("engine.run_period")
    values = {
        "cli.self_s": layer["cli"],
        "scenario.self_s": layer["scenario"],
        "events.sample_s": layer["events"],
        "events.doubles_drawn": counts.get("events.doubles_drawn", 0),
        "energy.store_s": layer["energy"],
        "energy.harvest_calls": counts.get("energy.harvest_calls", 0),
        "energy.draw_calls": counts.get("energy.draw_calls", 0),
        "energy.warmup_calls": counts.get("energy.warmup_calls", 0),
        "engine.self_s": layer["engine"],
        "engine.kernel_self_s": kernel,
        "engine.run_overhead_s": self_s("engine.run_experiment", "engine.run_partition_study"),
        "engine.ns_per_tick": kernel / counter.ticks * 1e9,
        "policies.self_s": layer["policies"],
        "policies.plan_s": self_s("policies.plan_slot"),
        "policies.plan_calls": calls("policies.plan_slot"),
        "policies.slot_end_s": self_s("policies.on_slot_end"),
        "policies.period_hooks_s": self_s("policies.on_period_start", "policies.on_period_end"),
        "learner.self_s": layer["learner"],
        "learner.wake_offsets_calls": calls("learner.wake_offsets"),
        "learner.wake_offsets_s": self_s("learner.wake_offsets", "learner.schedule_cost"),
        "learner.q_updates": calls("learner.q_update"),
        "learner.q_update_s": self_s("learner.q_update"),
        "learner.episodes": calls("learner.record_episode"),
        "reports.self_s": layer["reports"],
        "reports.emit_s": self_s("reports.emit_csv"),
        "reports.pool_wait_s": pool_wait,
        "trace.wall_s": rep.sweep_s / rep.speed,
        "trace.accounted_s": accounted,
        "trace.other_s": accounted - sum(layer.values()),
    }
    values = {k: v * rep.speed if k.endswith("_s") or k == "engine.ns_per_tick" else v
              for k, v in values.items()}
    values["engine.traced_periods"] = calls("engine.run_period")
    return values


COUNT_KEYS = ("events.doubles_drawn", "energy.harvest_calls", "energy.draw_calls",
              "energy.warmup_calls", "policies.plan_calls", "learner.wake_offsets_calls",
              "learner.q_updates", "learner.episodes")


def write_spans(path, reps):
    with open(path, "w", encoding="utf-8") as fh:
        for i, rep in enumerate(reps):
            for pid, index, parent, name, start, end in rep.tracer.spans:
                fh.write(json.dumps({
                    "sweep": i, "id": f"{pid}:{index}",
                    "parent": f"{parent[0]}:{parent[1]}" if parent else None,
                    "name": name, "start": start, "end": end,
                }) + "\n")


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    sim = load_sim()
    tag = f"{workload.name}-seed{seed}-trace{trace}"
    out = OUT / tag
    out.mkdir(parents=True, exist_ok=True)
    scenario = build_scenario(sim.scenario.load_scenario, workload, seed)
    ini = None
    if workload.via_cli:
        ini = out / "scenario.ini"
        ini.write_text(sim.scenario.write_config(scenario), encoding="utf-8")

    setup = measure_setup(workload, seed, ini)

    ref_records, counter = reference_pass(sim, workload, seed, out / "reference")
    ref = SimpleNamespace(records=ref_records, counter=counter,
                          digests=checks.digests(out / "reference"))
    problems = []
    ref_failed = 0
    for rec in ref_records:
        found = checks.invariant_failures(rec)
        problems.extend(found[:3])
        ref_failed += bool(found)
    pin = checks.pinned(workload.name) if seed == DEFAULT_SEED else None
    if pin is not None and pin != ref.digests:
        problems.append(f"digests at seed {seed} differ from the pinned ones: {ref.digests}")
        ref_failed = len(ref_records)

    sweep_dir = out / "sweep"
    if trace:
        plain = timed_reps(sim, workload, scenario, ini, sweep_dir, seconds / 2, 2, ref, False)
        traced = timed_reps(sim, workload, scenario, ini, sweep_dir, seconds / 2, 1, ref, True)
        reps = plain + traced
    else:
        reps = timed_reps(sim, workload, scenario, ini, sweep_dir, seconds, MIN_REPS, ref, False)
    good = [r for r in reps if r.error is None]
    for r in reps:
        if r.error is not None:
            problems.append(r.error.strip().splitlines()[-1])
        elif r.failed:
            problems.append(f"a sweep differed from the reference in {r.failed} runs")
    attempted = len(ref_records) + sum(len(ref_records) for _ in reps)
    failed = ref_failed + sum(r.failed for r in reps)
    if not good or (trace and not any(r.tracer is not None for r in good)):
        print(f"perfbench: no sweep completed; {problems[:5]}", file=sys.stderr)
        return 1

    notes = {}
    if trace:
        layer_reps = [r.layer for r in good if r.tracer is not None]
        per_key = {k: [m[k] for m in layer_reps] for k in layer_reps[0]}
        for key in COUNT_KEYS:
            if len(set(per_key[key])) > 1:
                problems.append(f"{key} differs between traced sweeps: {per_key[key]}")
        if set(per_key["engine.traced_periods"]) != {counter.periods}:
            problems.append(f"traced sweeps ran {per_key['engine.traced_periods']} periods, "
                            f"the reference ran {counter.periods}")
        values = {k: statistics.median(v) for k, v in per_key.items()}
        values.update(untraced_layer_metrics(workload, [r for r in good if r.tracer is None], ref))
        rows, size = checks.csv_size(out / "reference")
        values.update({
            "cli.import_s": statistics.median(s["import_s"] * s["speed"] for s in setup),
            "scenario.expand_s": statistics.median(s["expand_s"] * s["speed"] for s in setup),
            "scenario.configs": setup[0]["configs"],
            "engine.periods": counter.periods,
            "engine.ticks": counter.ticks,
            "learner.profile_passes": counter.profile_passes,
            "reports.rows": rows,
            "reports.bytes": size,
            "sim.catches": counter.catches,
            "sim.awake_ticks": counter.awake_ticks,
            "sim.event_ticks": counter.event_ticks,
            "sim.catch_ratio": counter.catches / counter.awake_ticks if counter.awake_ticks else 0.0,
            "sim.skipped_wakeups": counter.skipped_wakeups,
            "trace.overhead_s": values["trace.wall_s"] - statistics.median(
                r.sweep_s for r in good if r.tracer is None),
        })
        write_spans(out / "spans.jsonl", [r for r in good if r.tracer is not None])
        units = PER_LAYER
    else:
        values, notes = end_to_end_metrics(workload, good, ref, setup)
        units = END_TO_END

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    correct = failed == 0 and not problems
    env = env_stamp()
    detail = {
        "workload": workload.name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "env": env,
        "sweep_seeds": sweep_seeds(workload.name, seed, workload.n_seeds),
        "setup_samples": setup, "sweeps": len(reps), "notes": notes,
        "reference_digests": ref.digests, "pinned_digests": pin,
        "correct": correct, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "problems": problems, "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    print(f"perfbench {workload.name} seed={seed} trace={trace}: {len(reps)} sweeps, "
          f"{attempted} runs attempted, {failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    if notes:
        print(f"run_s_p50/run_s_tail over {notes['run_samples']} run samples; run_s_tail is "
              f"p{notes['run_s_tail_percentile']} ({notes['run_samples_beyond_tail']} beyond)")
    for problem in problems:
        print(f"problem: {problem}")
    for name, unit in units:
        print(f"  {name:<32} {values[name]:>16.6g} {unit}")
    print(f"  {'error_rate':<32} {failed / attempted:>16.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed, seconds):
    """Every workload with tracing off and on, in fresh processes; one table."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            results[name, trace] = json.loads(proc.stdout.splitlines()[-1])
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}")
        for trace in (0, 1):
            result = results[name, trace]
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = entry
                print(f"  {metric:<32} {entry['value']:>16.6g} {entry['unit']}")
            if trace == 0:
                rate = result["failed"] / result["attempted"]
                print(f"  {'error_rate':<32} {rate:>16.6g} ratio")
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "smarton_sim" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'smarton_sim'}",
              file=sys.stderr)
        return 2
    # the program receives only the generated scenarios
    os.environ.pop("SMARTON_SIM_SEED", None)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
