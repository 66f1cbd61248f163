"""Instrumentation of smarton_sim from the benchmark's own files.

Nothing under src/ is edited: the probes replace module attributes and class
methods of the imported package and put the originals back afterwards.

* :func:`install_run_timer` times each simulation run (one call of the sweep
  pool's per-run function) and takes the host speed probes of speed.py
  between periods.  It is the only instrumentation active while end-to-end
  metrics are measured.
* :func:`install_period_counter` sums the simulated counts of every period
  log.  It runs only in the untimed reference pass.
* :class:`Tracer` wraps the public functions of every layer.  Calls down to
  ``run_period`` are kept as spans (name, start, end, parent); calls below it
  (slot planning, store methods, learner updates) happen up to a few million
  times per sweep, so they are summed per function into call counts and self
  time instead of being kept one by one.  Self time is a call's duration
  minus the time covered by the traced calls it made.
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.pool
import os
import resource
from time import perf_counter

import speed


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def replace_everywhere(self, modules, original, new):
        """Replace `original` under every name it has in `modules`, so that
        callers which imported it by name see the wrapper too."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, new)

    def undo(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def install_run_timer(patches, sim, tracer=None, counter=None):
    """Attach host time, the speed probes taken during the run (see
    speed.py), process id and peak RSS of the process to every RunRecord, as
    ``record.perfbench``.  Worker processes send it back with the pickled
    record.  With a tracer, a worker also sends the spans and call totals of
    its run; with a counter, the run's simulated ticks are attached."""
    measure_speed = speed.probe if tracer is None else tracer.wrap(speed.probe, PROBE)
    probes = []  # probe seconds taken in this process
    next_probe = [0.0]
    period = sim.engine.run_period

    @functools.wraps(period)
    def run_period(*args, **kwargs):
        if perf_counter() >= next_probe[0]:
            probes.append(measure_speed())
            next_probe[0] = perf_counter() + speed.INTERVAL_S
        return period(*args, **kwargs)

    patches.replace_everywhere([sim.engine], period, run_period)
    inner = sim.reports._run_one

    @functools.wraps(inner)
    def _run_one(args):
        first_probe = len(probes)
        mark = tracer.mark() if tracer is not None else None
        ticks_before = counter.ticks if counter is not None else 0
        t0 = perf_counter()
        record = inner(args)
        info = {"s": perf_counter() - t0, "probes": probes[first_probe:],
                "pid": os.getpid(), "rss_kb": max_rss_kb()}
        if counter is not None:
            info["ticks"] = counter.ticks - ticks_before
        if tracer is not None and os.getpid() != tracer.pid:
            info["trace"] = tracer.since(mark)
        record.perfbench = info
        return record

    patches.replace(sim.reports, "_run_one", _run_one)


def install_record_capture(patches, sim, sink: list):
    """Keep the records a CLI sweep produces (the CLI does not return them)."""
    inner = sim.cli.run_sweep

    @functools.wraps(inner)
    def run_sweep(*args, **kwargs):
        records = inner(*args, **kwargs)
        sink.append(records)
        return records

    patches.replace(sim.cli, "run_sweep", run_sweep)


class PeriodCounter:
    """Simulated totals over every period log the kernel returns."""

    FIELDS = ("periods", "ticks", "catches", "awake_ticks", "event_ticks",
              "skipped_wakeups", "profile_passes")

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)


def install_period_counter(patches, sim, counter: PeriodCounter):
    inner = sim.engine.run_period

    @functools.wraps(inner)
    def run_period(*args, **kwargs):
        log = inner(*args, **kwargs)
        counter.periods += 1
        counter.ticks += len(args[3])  # the period's per-tick event list
        counter.catches += log.catches
        counter.awake_ticks += log.awake_ticks
        counter.event_ticks += log.event_ticks
        counter.skipped_wakeups += log.skipped_wakeups
        # a period begun while profiling is one Phase-1 pass
        counter.profile_passes += log.phase_start == 1
        return log

    patches.replace_everywhere([sim.engine], inner, run_period)


# Layer of each traced name: the module of src/smarton_sim it belongs to.
# `reports.pool_map` is the parent's wait on the worker pool; the workers'
# own spans account for that time, so it belongs to no layer.  The speed
# probe is the benchmark's own.
LAYERS = ("cli", "scenario", "events", "energy", "engine", "policies", "learner", "reports")
POOL_WAIT = "reports.pool_map"
PROBE = "bench.probe"
KERNEL = "engine.run_period"


def layer_of(name: str):
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS and name != POOL_WAIT else None


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.stack = []  # one [child_s] accumulator per open traced call
        self.spans = []  # [pid, index, parent, name, start, end]
        self.open_span = None  # (pid, index) of the innermost open span
        self.open_name = None
        self.stats = {}  # name -> [calls, self_s, total_s]
        self.counts = {}  # name -> int, for counts that are not calls

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name, span=False, count=None):
        """Traced version of `fn`.  `count(args)` may return a (name, n)
        pair to add to ``counts`` on each call."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        counts = self.counts
        tracer = self

        if span:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent, parent_name = tracer.open_span, tracer.open_name
                pid = os.getpid()
                record = [pid, len(tracer.spans), parent, name, 0.0, 0.0]
                tracer.spans.append(record)
                tracer.open_span, tracer.open_name = (pid, record[1]), name
                frame = [0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    tracer.open_span, tracer.open_name = parent, parent_name
                    record[4], record[5] = t0, t1
                    dur = t1 - t0
                    if stack:
                        stack[-1][0] += dur
                    stats[0] += 1
                    stats[1] += dur - frame[0]
                    stats[2] += dur
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                key, n = count(args)
                counts[key] = counts.get(key, 0) + n
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur - frame[0]
                stats[2] += dur
        return traced

    def in_kernel_count(self, kernel_key, other_key):
        """Count function: `kernel_key` when called from inside the period
        kernel, `other_key` otherwise (e.g. the CTID warm-up)."""
        def count(_args):
            return (kernel_key if self.open_name == KERNEL else other_key), 1
        return count

    # -- worker hand-off ---------------------------------------------------

    def mark(self):
        return (
            len(self.spans),
            {k: list(v) for k, v in self.stats.items()},
            dict(self.counts),
        )

    def since(self, mark):
        """Spans, call totals and counts added after `mark`."""
        n_spans, stats0, counts0 = mark
        stats = {}
        for name, (calls, self_s, total_s) in self.stats.items():
            c0, s0, t0 = stats0.get(name, (0, 0.0, 0.0))
            if calls != c0:
                stats[name] = [calls - c0, self_s - s0, total_s - t0]
        counts = {k: v - counts0.get(k, 0) for k, v in self.counts.items()
                  if v != counts0.get(k, 0)}
        return {"spans": self.spans[n_spans:], "stats": stats, "counts": counts}


def install_tracer(patches, sim, tracer: Tracer):
    """Wrap the public functions of every layer of the package."""
    modules = [sim.package, sim.cli, sim.scenario, sim.engine, sim.events,
               sim.energy, sim.policies, sim.learner, sim.reports, sim.rng]

    def everywhere(module, attr, name, **kw):
        original = getattr(module, attr)
        patches.replace_everywhere(modules, original, tracer.wrap(original, name, **kw))

    def method(cls, attr, name, **kw):
        if attr in cls.__dict__:
            patches.replace(cls, attr, tracer.wrap(cls.__dict__[attr], name, **kw))

    everywhere(sim.cli, "main", "cli.main", span=True)

    everywhere(sim.scenario, "load_scenario", "scenario.load_scenario", span=True)
    everywhere(sim.scenario, "expand_sweep", "scenario.expand_sweep", span=True)
    everywhere(sim.scenario, "parse_config", "scenario.parse_config")
    everywhere(sim.scenario, "build_sim_config", "scenario.build_sim_config")

    everywhere(sim.events, "sample_trace", "events.sample_trace", span=True)
    method(sim.rng.Stream, "doubles", "events.doubles",
           count=lambda args: ("events.doubles_drawn", args[2]))

    store = sim.energy.AbstractStore
    method(store, "harvest_tick", "energy.harvest_tick",
           count=tracer.in_kernel_count("energy.harvest_calls", "energy.warmup_calls"))
    method(store, "draw", "energy.draw",
           count=tracer.in_kernel_count("energy.draw_calls", "energy.warmup_calls"))
    method(store, "can_draw", "energy.can_draw")
    method(sim.energy.HarvestSource, "__call__", "energy.source")

    everywhere(sim.engine, "run_experiment", "engine.run_experiment", span=True)
    everywhere(sim.engine, "run_partition_study", "engine.run_partition_study", span=True)
    everywhere(sim.engine, "run_period", KERNEL, span=True)

    p = sim.policies
    for cls in (p.BasePolicy, p.GtPolicy, p.CtidPolicy, p.CtidProPolicy, p.SmartOnPolicy):
        method(cls, "plan_slot", "policies.plan_slot")
        method(cls, "on_slot_end", "policies.on_slot_end")
        method(cls, "on_period_start", "policies.on_period_start")
        method(cls, "on_period_end", "policies.on_period_end")

    learner = sim.learner
    for attr in ("wake_offsets", "schedule_cost", "q_update", "affordable_actions",
                 "choose_action", "probe_plan", "profile_converged", "find_peaks",
                 "partition_converged", "phase_transition", "reward_from_counts"):
        everywhere(learner, attr, f"learner.{attr}")
    method(learner.QTable, "record_episode", "learner.record_episode")
    method(learner.SlotProfile, "record_slot", "learner.record_slot")
    method(learner.SlotProfile, "finish_run", "learner.finish_run")
    method(learner.PhaseContext, "table_for", "learner.table_for")

    everywhere(sim.reports, "run_sweep", "reports.run_sweep", span=True)
    everywhere(sim.reports, "emit_csv", "reports.emit_csv", span=True)
    patches.replace(sim.reports, "_run_one",
                    tracer.wrap(sim.reports._run_one, "reports.run", span=True))

    pool_map = tracer.wrap(multiprocessing.pool.Pool.map, POOL_WAIT, span=True)
    traced_pool = type("TracedPool", (multiprocessing.pool.Pool,), {"map": pool_map})

    def make_pool(processes=None, *args, **kwargs):
        return traced_pool(processes, *args, context=multiprocessing.get_context(), **kwargs)

    patches.replace(sim.reports, "Pool", make_pool)
