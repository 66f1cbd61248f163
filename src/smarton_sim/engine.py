"""Deterministic simulation kernel and experiment orchestration.

One run binds a store, a sampled event trace and a policy, then walks the
period.  Within a tick the order is fixed: slot-boundary bookkeeping
(entry-level forcing, slot planning), the wake decision, the energy draw (a
wake-up that cannot be funded is skipped, never partial), then harvesting --
so a decision sees the energy banked up to the end of the previous tick.
Periods repeat until the period cap or a stop rule.

One event-driven kernel (`run_period`) implements these semantics for every
policy and harvest source.  It jumps from one decision to the next -- slots
the policy's look-ahead names as able to act, wake-ups, CTID mode flips --
and covers the harvest-only ticks between them with the float results of
stepping every tick through the store, summed one binade at a time: inside
[b, 2b) every float shares one grid, so repeated additions of one inflow
step by one exact constant (`_add_below`); a gap of fewer than
`ACCUMULATE_MIN` ticks between wake-ups adds tick by tick, inline in the
wake loop.  Events arrive as a 0/1 byte string per period.  Per-tick
recording takes the same path and replays the kernel's decisions into
per-tick arrays (`_tick_arrays`), so it cannot change a number.

Within a run, a phase-3 episode of the learning policy (`episode_memo`) and
a CTID charge phase are computed once per start and then replayed, with
catches counted from each period's events, at either record level.

A pattern-change schedule (shift, morph or replace) splits a run into
segments (`SimConfig.segments`), each with its own source, entry forcing and
trace, from a substream keyed by the pattern so a returning pattern replays
its realization; the adaptation experiments use it to force re-profiling.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from math import frexp, inf, ldexp, nextafter
from operator import itemgetter

import numpy as np

from .energy import WAKE_COST, DRAW_SLACK, AbstractStore, HarvestSource, read_trace_file
from .events import (
    EventPattern,
    morph_pattern,
    pattern_id,
    sample_trace,
    shift_pattern,
)
from .learner import LearnerConfig
from .policies import (
    BURST,
    BasePolicy,
    CtidConfig,
    CtidPolicy,
    CtidProPolicy,
    GtPolicy,
    SmartOnPolicy,
)
from .rng import Stream

POLICY_NAMES = ("smarton", "ctid", "ctidpro", "gt")
# entry forcing only makes sense for policies with a notion of peak entry;
# GT ignores energy and CTID's charge cycle must stay free-running or forcing
# would synchronize its bursts with the peak
FORCED_POLICIES = ("smarton", "ctidpro")

# The CTID phase-jitter warm-up runs up to one charge/discharge cycle, at a
# cost that grows with the cycle's ticks; a tiny source level stretches the
# cycle without bound (e_on * r / level ticks).  10 M ticks is over 8,000
# periods of 1,200 ticks and warms up in well under a second.
MAX_JITTER_CYCLE = 10_000_000

# Shorter harvest runs add in a plain Python loop, longer ones in closed form;
# a per-tick replay accumulates windows of at least this many ticks.
ACCUMULATE_MIN = 64


@dataclass(frozen=True)
class PatternChange:
    """Swap the world's pattern starting at `period`."""

    period: int
    kind: str  # shift | morph | replace
    arg: object = None
    entry_level: int | None = None


@dataclass
class SimConfig:
    pattern: EventPattern
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    policy: str = "smarton"
    ctid: CtidConfig = field(default_factory=CtidConfig)
    capacity: float = 120.0
    charging_ratio: float = 9.0
    source_kind: str = "constant"  # constant | diurnal | trace
    source_level: float = 1.0
    source_path: str | None = None
    n_periods: int = 40
    seed: int = 0
    record_level: str = "summary"  # summary | per-tick
    entry_level: int | None = None
    measure_from: int = 0
    repeat_first_period: bool = False
    schedule: tuple[PatternChange, ...] = ()
    stop_rule: str | None = None  # e.g. "phase_ge:2", "phase3_stable:5"
    initial_stored: float = 0.0
    # cut the source during peak windows: the controlled-entry experiments
    # then give each peak exactly its entry-level energy budget
    gate_source_in_peaks: bool = False
    # start CTID at a seeded point of its charge cycle instead of empty;
    # avoids burst/period resonance artifacts under perfectly constant sources
    ctid_phase_jitter: bool = False

    def __post_init__(self):
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}; valid: {POLICY_NAMES}")
        if self.record_level not in ("summary", "per-tick"):
            raise ValueError(f"unknown record level {self.record_level!r}")
        if self.source_kind not in ("constant", "diurnal", "trace"):
            raise ValueError(
                f"unknown source {self.source_kind!r}; valid: constant, diurnal, trace:<path>"
            )
        # a trace file is read once, here: every run of the config uses the
        # values validated now, and the tuple pickles with the config
        self.source_trace = None
        if self.source_kind == "trace":
            if not self.source_path:
                raise ValueError("a trace source needs a path: trace:<path>")
            self.source_trace = read_trace_file(self.source_path)
        if self.n_periods < 0:
            raise ValueError(f"n_periods must be nonnegative, got {self.n_periods}")
        # measure_from beyond n_periods is allowed: it measures nothing
        if self.measure_from < 0:
            raise ValueError(f"measure_from must be nonnegative, got {self.measure_from}")
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.charging_ratio <= 0:
            raise ValueError(f"charging_ratio must be positive, got {self.charging_ratio}")
        if self.source_level < 0:
            raise ValueError(f"source_level must be nonnegative, got {self.source_level}")
        _parse_stop_rule(self.stop_rule)
        # the warm-up runs from an empty store with some inflow; a trace
        # file's inflow is not known here, and it ignores source_level
        if (
            self.policy == "ctid"
            and self.ctid_phase_jitter
            and self.initial_stored <= 0.0
            and (self.source_level > 0.0 or self.source_kind == "trace")
            # whole ticks above the bound, or a float that overflowed to inf
            and not self.ctid_cycle_ticks < MAX_JITTER_CYCLE + 1
        ):
            raise ValueError(
                f"ctid_phase_jitter needs a CTID cycle of at most {MAX_JITTER_CYCLE} "
                f"ticks, got {self.ctid_cycle_ticks:.0f}; raise source_level or lower "
                f"e_on or charging_ratio"
            )
        if self.pattern.period_ticks % self.learner.state_duration != 0:
            raise ValueError(
                f"learner state_duration {self.learner.state_duration} must divide "
                f"the period {self.pattern.period_ticks}"
            )
        slot_len, k = self.learner.state_duration, self.learner.k_levels
        for start, pattern, level in self.segments():
            if start < 0:
                raise ValueError(f"pattern change at period {start}: periods start at 0")
            # the policy's slot count and the kernel's period are the base's
            if pattern.period_ticks != self.pattern.period_ticks:
                raise ValueError(
                    f"the pattern change at period {start} has {pattern.period_ticks}-tick "
                    f"periods; the run's are {self.pattern.period_ticks} ticks"
                )
            if level is None:
                continue
            if not 1 <= level <= k:
                raise ValueError(f"entry_level {level} outside 1..{k}")
            if self.policy in FORCED_POLICIES:
                peak_start_slots(pattern, slot_len)  # refuses a peak inside a slot

    def segments(self) -> list[tuple[int, EventPattern, int | None]]:
        """(first period, pattern, forced entry level) of the base and of each
        schedule change, in period order.  Changes at one period apply in list
        order, each but the last leaving an empty segment; one without
        `entry_level` keeps the level before it."""
        pattern, level = self.pattern, self.entry_level
        out = [(0, pattern, level)]
        for change in sorted(self.schedule, key=lambda c: c.period):
            pattern = apply_change(pattern, change)
            level = level if change.entry_level is None else change.entry_level
            out.append((change.period, pattern, level))
        return out

    @property
    def ctid_cycle_ticks(self) -> float:
        """Unrounded ticks of one CTID charge/discharge cycle from empty at
        `source_level`: the span the phase-jitter warm-up draws from."""
        return (
            self.ctid.e_on * self.charging_ratio / max(self.source_level, 1e-9)
            + self.ctid.e_on * self.ctid.wake_interval
        )


@dataclass
class PeriodLog:
    period: int
    phase_start: int
    awake_ticks: int
    event_ticks: int
    catches: int
    drawn: float
    harvested: float
    wasted_saturation: float
    skipped_wakeups: int
    stored_start: float
    stored_end: float
    forced_delta: float = 0.0  # energy injected/removed by entry forcing
    ticks: dict | None = None  # per-tick arrays when record_level == per-tick

    @property
    def spent(self) -> float:
        """Nominal energy priced at one wake cost per awake tick (GT included)."""
        return self.awake_ticks * WAKE_COST

    @property
    def spent_on_event(self) -> float:
        return self.catches * WAKE_COST

    @property
    def misses(self) -> int:
        return self.event_ticks - self.catches


@dataclass
class Metrics:
    total_catches: int
    energy_efficiency: float
    awake_ticks: int
    event_ticks: int
    drawn: float
    harvested: float

    def __post_init__(self):
        if not (
            self.total_catches <= min(self.awake_ticks, self.event_ticks)
            or (self.awake_ticks == 0 and self.total_catches == 0)
        ):
            raise ValueError(
                f"{self.total_catches} catches exceed min(awake {self.awake_ticks}, "
                f"events {self.event_ticks})"
            )
        if not 0.0 <= self.energy_efficiency <= 1.0:
            raise ValueError(f"energy efficiency {self.energy_efficiency} outside [0, 1]")


@dataclass
class ExperimentResult:
    config: SimConfig
    periods: list[PeriodLog]
    episodes: list[dict]
    phase1_stays: list[dict]
    tables: dict
    policy: BasePolicy

    @property
    def n_periods_run(self) -> int:
        return len(self.periods)

    @property
    def phase_timeline(self) -> list[int]:
        """The learner phase at the start of each period run."""
        return [log.phase_start for log in self.periods]


def make_store(config: SimConfig) -> AbstractStore:
    return AbstractStore(capacity=config.capacity, charging_ratio=config.charging_ratio)


def make_source(config: SimConfig, pattern: EventPattern) -> HarvestSource:
    if config.source_kind == "constant":
        # gating implements the controlled-entry protocol, which only the
        # entry-controllable policies run under; the free-running baselines
        # keep the continuous source
        if config.gate_source_in_peaks and config.policy in FORCED_POLICIES:
            d = pattern.state_duration
            gaps = [(p.start_slot * d, p.end_slot * d) for p in pattern.peaks]
            return HarvestSource.constant_gated(
                config.source_level, gaps, pattern.period_ticks
            )
        return HarvestSource.constant(config.source_level)
    if config.source_kind == "diurnal":
        return HarvestSource.diurnal(config.source_level)
    return HarvestSource.trace(config.source_trace)


def make_policy(config: SimConfig) -> BasePolicy:
    n_slots = config.pattern.period_ticks // config.learner.state_duration
    if config.policy == "gt":
        return GtPolicy()
    if config.policy == "ctid":
        return CtidPolicy(config.ctid)
    if config.policy == "ctidpro":
        return CtidProPolicy(config.learner, n_slots, config.seed)
    return SmartOnPolicy(config.learner, n_slots, config.seed, config.capacity)


def entry_level_energy(level: int, capacity: float, k_levels: int) -> float:
    """Midpoint energy of a quantized level."""
    return (level - 0.5) * capacity / k_levels


def peak_start_slots(pattern: EventPattern, slot_len: int) -> tuple[int, ...]:
    """The sorted learner slots (of `slot_len` ticks) at whose starts the
    pattern's peaks begin: where entry forcing sets the store.  A peak that
    starts inside a learner slot is refused."""
    ticks = sorted({p.start_slot * pattern.state_duration for p in pattern.peaks})
    for t in ticks:
        if t % slot_len:
            raise ValueError(
                f"entry_level forcing needs peak starts on learner slots; "
                f"tick {t} is not a multiple of state_duration {slot_len}"
            )
    return tuple(t // slot_len for t in ticks)


def run_period(
    policy: BasePolicy,
    store: AbstractStore,
    source: HarvestSource,
    events: bytes | list,
    period_index: int,
    period_ticks: int,
    slot_len: int,
    entry_slots: tuple[int, ...],
    entry_value: float | None,
    record_ticks: bool,
) -> PeriodLog:
    """Simulate one period; `events` is the period's per-tick 0/1 sequence
    (`bytes` from a sampled trace, or a list).  The policy hooks get the
    stored energy as a number; `store` is read at the start and written at
    the end.  Entry forcing sets the store to `entry_value` at the start of
    each of the sorted learner slots `entry_slots` (`peak_start_slots`)
    once the policy is past phase 1; `entry_value=None` forces nothing.

    The kernel advances from one decision to the next instead of stepping
    every tick: entry forcing, the slots a policy can act in, wake-ups, CTID
    mode flips.  A slot-planned policy names the next slot whose hooks can
    act (`next_active_slot`); the slots before it plan nothing and are
    banked as one idle run without calling the policy.  Between decisions
    the store only harvests, and an idle run of `n` ticks at one inflow is
    `n` additions of `inc` -- the very float operations of a per-tick loop
    in the same order, because every later decision reads the stored
    energy; long runs and runs that clamp are summed one binade at a time
    (see `_idle_run`).  Saturation is monotone in the stored energy, so one
    check of the run's last pre-tick value shows whether any tick clamped.
    Under one inflow a gap between wake-ups shorter than `ACCUMULATE_MIN`
    takes `_idle_run`'s short path inline, its additions and that check,
    and calls `_idle_run` only when the check clamps.  A varying source is
    split into runs of equal inflow.  GT is closed form (awake every tick,
    catches every event), CTID charge phases jump to the tick that first
    sees `e_on` when the store cannot saturate below it, and CTID discharge
    phases and burst slots are draw runs: one wake cost per wake-up leaves
    `s - j` after `j` of them exactly, so their count and the store after
    them are closed form (`_draws`).

    Burst slots and CTID discharge phases are dark: they harvest nothing.
    The period's harvest total is the in-order sum of the other ticks'
    inflows; under one constant inflow it is read from a cached table by
    their count.  Each stop bisects `entry_slots` once, and that index serves
    the look-ahead, the forcing test and the replay guard below.

    Under one constant inflow, while the policy keeps an `episode_memo`, an
    episode that `episode_at` names, with no forcing inside the episode (no
    entry slot after its first and before its end), is replayed by (peak,
    stored energy, inflow), or run and stored unless a harvest clamped at
    `cap` (waste is an in-order float sum that a replay cannot redo).
    Recording takes this same path and lists its decisions for `_tick_arrays`.
    """
    phase_start = policy.current_phase
    stored_start = store.stored
    policy.on_period_start(period_index)

    cap = store.capacity
    ratio = store.charging_ratio
    if source.kind == "constant":
        inflows = None
        runs = [(0, period_ticks, source(0) * WAKE_COST / ratio)]
    else:
        base_tick = period_index * period_ticks
        inflows = [source(base_tick + t) * WAKE_COST / ratio for t in range(period_ticks)]
        runs = _inflow_runs(inflows)
    uniform = len(runs) == 1
    inc = runs[0][2]
    draw_floor = WAKE_COST - DRAW_SLACK
    s = store.stored
    waste = store.wasted_saturation
    waste_before = waste
    event_ticks = events.count(1)

    wakes = [] if record_ticks else None  # funded wake ticks of planned slots
    wake_runs = []  # ranges of funded wake ticks: GT, draw runs
    forced_at = []  # ticks where entry forcing set the store
    slot_info = []  # (phase, step) per slot, when recording
    dark = []  # (start, end) tick spans that harvested nothing
    awake_total = catches_total = skipped = 0
    forced_delta = 0.0

    if isinstance(policy, GtPolicy):
        # awake at every tick, draws nothing, harvests throughout
        s, waste = _bank(s, waste, cap, runs, 0, period_ticks)
        awake_total = period_ticks
        catches_total = event_ticks
        wake_runs.append(range(period_ticks))
    elif isinstance(policy, CtidPolicy):
        s, waste, awake_total, catches_total, dark, wake_runs = _ctid_run(
            policy, s, waste, cap, runs, 0, period_ticks, events)
    else:
        n_slots = period_ticks // slot_len
        # entry forcing rewrites the store at a slot start: a stop for the
        # look-ahead whether or not the policy acts there
        n_entries = len(entry_slots) if entry_value is not None else 0
        # the wake tick list, the end of an episode being memoized, its cap flag
        woken, episode_end, full = wakes, None, False
        slot = i = 0  # i: the first entry slot at or after `slot`
        while slot < n_slots:
            # bank the slots before the next one that can act in one idle run;
            # none of them is an entry slot, so `i` holds for `nxt` too
            nxt = policy.next_active_slot(slot)
            if n_entries:
                i = bisect_left(entry_slots, slot)
                if i < n_entries and entry_slots[i] < nxt:
                    nxt = entry_slots[i]
            if nxt > slot:
                if uniform:
                    s, waste = _idle_run(s, waste, inc, cap, (nxt - slot) * slot_len)
                else:
                    s, waste = _bank(s, waste, cap, runs, slot * slot_len, nxt * slot_len)
                if record_ticks:
                    slot_info.extend(repeat((policy.current_phase, 0), nxt - slot))
                slot = nxt
                if slot == n_slots:
                    break
            base = slot * slot_len
            if i < n_entries and entry_slots[i] == slot:
                i += 1
                if policy.current_phase >= 2:
                    forced = min(entry_value, cap)
                    forced_delta += forced - s
                    s = forced
                    forced_at.append(base)

            if (uniform and episode_end is None and (memo := policy.episode_memo) is not None
                    and (peak := policy.episode_at(slot, s))):
                end = slot + peak.n_steps
                # no forcing inside the episode; a trace source may be constant at
                # another inflow in another period.  s is never -0.0 (0.0's key): forcing
                # sets s > 0, draws leave s - 1.0 (s >= 1) or 0.0, inflows are >= 0
                if end <= n_slots and (i == n_entries or entry_slots[i] >= end):
                    key = (peak, s, inc)
                    hit = memo.get(key)
                    if hit is not None:
                        ticks, n_skipped, s = hit
                        awake_total += len(ticks)
                        catches_total += sum(map(events.__getitem__, ticks))
                        skipped += n_skipped
                        if record_ticks:
                            wakes.extend(ticks)
                            slot_info.extend(zip(repeat(3), range(1, peak.n_steps + 1)))
                        slot = end
                        continue
                    episode_end, skipped_before, woken, full = end, skipped, [], False

            plan = policy.plan_slot(slot, s)
            if record_ticks:
                slot_info.append((policy.current_phase, policy.current_step))
            slot_awake = 0
            slot_catches = 0
            if plan == BURST:
                # drain while a wake-up can be funded; nothing is harvested
                slot_awake, s = _draws(s, -1.0, slot_len)
                slot_catches = events[base : base + slot_awake].count(1)
                wake_runs.append(range(base, base + slot_awake))
                dark.append((base, base + slot_len))
            else:
                # each wake-up is followed by harvest-only ticks up to the
                # next one or the slot end
                done = base  # first tick not yet banked
                for offset in (*plan, slot_len):
                    t = base + offset
                    n = t - done
                    if 0 < n < ACCUMULATE_MIN and uniform:
                        # `_idle_run`'s short path: n - 1 additions, then the
                        # clamp check of the last pre-tick value
                        e = s
                        if n > 1:
                            for _ in repeat(None, n - 1):
                                e += inc
                        if inc > cap - e:
                            s, waste = _idle_run(s, waste, inc, cap, n)
                            full = True
                        else:
                            s = e + inc
                        done = t
                    elif n > 0:
                        if uniform:
                            s, waste = _idle_run(s, waste, inc, cap, n)
                            full |= s == cap
                        else:
                            s, waste = _bank(s, waste, cap, runs, done, t)
                        done = t
                    if offset == slot_len:
                        break
                    if s >= draw_floor:
                        s = s - WAKE_COST if s >= WAKE_COST else 0.0
                        slot_awake += 1
                        slot_catches += events[t]
                        if woken is not None:
                            woken.append(t)
                    else:
                        skipped += 1

            awake_total += slot_awake
            catches_total += slot_catches
            policy.on_slot_end(slot, slot_awake, slot_catches, s)
            slot += 1
            if slot == episode_end:
                ticks = tuple(woken)
                if not full:
                    memo[key] = (ticks, skipped - skipped_before, s)
                if record_ticks:
                    wakes.extend(ticks)
                episode_end, woken = None, wakes

    store.stored = s
    store.wasted_saturation = waste
    policy.on_period_end(period_index)

    if uniform:
        lit = period_ticks - sum(b - a for a, b in dark) if dark else period_ticks
        harvested = _harvest_sums(inc, period_ticks)[lit]
    else:
        harvested = _lit_total(inflows, dark)
    ticks = _tick_arrays(
        policy, events, slot_len, slot_info, wakes, wake_runs, dark, forced_at, entry_value,
        inflows, inc, cap, stored_start, s) if record_ticks else None

    return PeriodLog(
        period=period_index,
        phase_start=phase_start,
        awake_ticks=awake_total,
        event_ticks=event_ticks,
        catches=catches_total,
        # every awake tick of a drawing policy drew one WAKE_COST (1.0), so
        # the per-draw float sum is this integer exactly
        drawn=awake_total * WAKE_COST if policy.draws_energy else 0.0,
        harvested=harvested,
        wasted_saturation=waste - waste_before,
        skipped_wakeups=skipped,
        stored_start=stored_start,
        stored_end=s,
        forced_delta=forced_delta,
        ticks=ticks,
    )


def _ctid_run(policy: CtidPolicy, s: float, waste: float, cap: float, runs, t: int, end: int,
              events=b""):
    """CTID over ticks t..end-1 of the inflow `runs`: charge until the store
    holds `e_on`, then discharge -- harvest nothing and wake every
    `wake_interval` ticks from the flip -- until it falls to `e_off` or
    cannot fund a wake-up.  Since `e_on` is at least one wake cost, every
    discharge wake-up is funded.  Under one inflow that cannot saturate the
    store below `e_on`, a charge phase is one sum in closed form
    (`_add_below`), kept in `charge_memo` by its start, or, when the span
    ends before it reaches `e_on`, by its start and the span's length.  A
    discharge phase's wake-ups in the span are one draw run (`_draws`) with a
    strided catch count.  Returns (s, waste, awake, catches, dark spans, wake
    ranges); the mode stays on the policy.
    """
    e_on = policy.cfg.e_on - DRAW_SLACK
    e_off = policy.cfg.e_off + DRAW_SLACK
    draw_floor = WAKE_COST - DRAW_SLACK
    interval = policy.wake_interval
    discharging = policy.discharging
    start = policy.discharge_start
    inc = runs[0][2]
    # below e_on the store cannot saturate, so a charge phase is bare
    # additions up to the tick whose pre-tick check sees e_on
    jump = len(runs) == 1 and not inc > cap - e_on
    awake = catches = 0
    dark = []
    wakes = []
    dark_from = t
    while t < end:
        if discharging and (s <= e_off or s < draw_floor):
            discharging = False
            dark.append((dark_from, t))
        if not discharging:
            if s >= e_on:
                discharging = True
                start = dark_from = t
            elif jump:
                key = (s, inc, e_on)
                charge = policy.charge_memo.get(key)
                if charge is None or charge[1] > end - t:
                    # a charge cut by the span's end is kept under its span
                    cut = key + (end - t,)
                    charge = policy.charge_memo.get(cut)
                    if charge is None:
                        charge = _add_below(s, inc, e_on, end - t)
                        policy.charge_memo[key if charge[0] >= e_on else cut] = charge
                s, n = charge
                t += n
                continue
            else:
                s, waste = _bank(s, waste, cap, runs, t, t + 1)
                t += 1
                continue
        # the store, and so the stop rule, only changes at a wake-up: the
        # phase's wake-ups in this span are one closed-form draw run, and it
        # goes on at the tick after the wake-up that meets the rule
        t += (start - t) % interval
        if t < end:
            s = s - WAKE_COST if s >= WAKE_COST else 0.0
            k, s = _draws(s, e_off, (end - 1 - t) // interval)
            stop = t + (k + 1) * interval
            wakes.append(range(t, stop, interval))
            awake += k + 1
            catches += events[t:stop:interval].count(1)
            t = stop - interval + 1 if s <= e_off or s < draw_floor else end
    if discharging:
        dark.append((dark_from, end))
    policy.discharging = discharging
    policy.discharge_start = start
    return s, waste, awake, catches, dark, wakes


def _ctid_warm_up(policy: CtidPolicy, store: AbstractStore, source: HarvestSource,
                  ticks: int) -> None:
    """Run CTID's cycle for `ticks` ticks before period 0 at the source's
    tick-0 inflow, with no events.  The ticks are -ticks..-1, so wake
    intervals stay aligned to tick 0."""
    runs = [(-ticks, 0, source(0) * WAKE_COST / store.charging_ratio)]
    store.stored, store.wasted_saturation, *_ = _ctid_run(
        policy, store.stored, store.wasted_saturation, store.capacity, runs, -ticks, 0)


def _idle_run(s: float, waste: float, inc: float, cap: float, n: int):
    """`n` harvest-only ticks at a constant inflow `inc`: the same result, bit
    for bit, as `n` rounds of the per-tick harvest clamp

        room = cap - s
        if inc > room: waste += inc - room; s = cap
        else: s += inc

    The clamp is monotone in `s`.  So the run adds while `s` stays below
    `level`, the least float that clamps, then clamps once, after which `s`
    sits at `cap`, every room is 0.0 and every tick wastes exactly `inc`.
    `level` lies where the exact `cap - s` passes the midpoint between `inc`
    and the float below it; rounded, it is settled by the clamp's own
    comparison on its float neighbours.  A run shorter than `ACCUMULATE_MIN`
    whose last pre-tick value does not clamp adds in a plain loop; the rest
    sum both stretches with `_add_below`, one binade at a time.  `s + n * inc`
    or a pairwise sum rounds differently.  Returns (s, waste).
    """
    if n <= 0:
        return s, waste
    if n < ACCUMULATE_MIN and not inc > cap - s:
        e = s
        for _ in repeat(None, n - 1):
            e += inc
        if not inc > cap - e:
            return e + inc, waste
    level = (cap - inc) + (inc - nextafter(inc, -inf)) / 2
    while inc > cap - level:
        level = nextafter(level, -inf)
    while level < inf and not inc > cap - level:
        level = nextafter(level, inf)
    s, k = _add_below(s, inc, level, n)
    if k == n:
        return s, waste
    return cap, _add_below(waste + (inc - (cap - s)), inc, inf, n - k - 1)[0]


def _add_below(x: float, inc: float, level: float, limit: int):
    """Add `inc` to `x` while the sum is below `level`, at most `limit` times,
    for x, inc >= 0.  Returns (x, additions): bit for bit the result of

        k = 0
        while k < limit and x < level: x += inc; k += 1

    in O(binades) instead of O(additions).  Inside one binade [b, 2b) every
    float is a multiple of one ulp `u`, so from a sum `x` in it an addition
    rounds `x + inc` to `x` plus a multiple of `u` (Sterbenz; Goldberg
    1991), the same multiple each time -- unless `inc / u` is a half-integer:
    then every sum is a tie, round-half-even picks the even neighbour, and
    the step depends on the parity of `x`.  One addition from a pre-value in
    the binade leaves `x` even, and constant steps keep it even.  So once a
    sum and its pre-value share a binade, each next addition adds
    `d = (x + inc) - x`, exact by Sterbenz as x <= x + inc <= 2x, and `m` of
    them, with every pre-value below `level` and every sum below `2b`, are
    the exact float `x + m * d`.  The sum adds one `inc` at a time until it
    reaches `16 * inc`, so that each later binade holds at least eight
    additions, and after each jump for the one or two additions that enter
    the next binade.  `d == 0.0` means `inc` is at most half an ulp of `x`:
    no addition changes the sum again.  The room to `2b` is `b - (x - b)`,
    exact in the binade and finite in the top one, where `2b` overflows.
    """
    k = 0
    floor = 16.0 * inc
    while k < limit and x < level and not x >= floor:
        x += inc
        k += 1
    if not (k < limit and x < level):
        return x, k
    b = ldexp(0.5, frexp(x)[1])  # the next pre-value is in [b, 2b)
    x += inc
    k += 1
    while k < limit and x < level:
        # x is a sum whose pre-value was in [b, 2b); it jumps if x is too
        d = (x + inc) - x
        if d == 0.0:
            return x, limit
        room = b - (x - b)  # 2b - x, exact while x < 2b
        # the most additions with m * d < room and pre-values below level
        m = min(int(room / d), limit - k)
        q = (level - x) / d
        if q < m:
            m = int(q) + 1
        while m > 0 and not (m * d < room and x + (m - 1) * d < level):
            m -= 1
        if m > 0:
            x += m * d
            k += m
            if not (k < limit and x < level):
                break
        # one addition, and one more from the next binade if it left this one
        x += inc
        k += 1
        if not x - b < b:
            b += b
            if not (k < limit and x < level):
                break
            x += inc
            k += 1
    return x, k


def _draws(s: float, lo: float, limit: int):
    """Chained wake-ups from a store holding `s`, at most `limit` of them,
    each one while the store holds more than `lo` and can fund it.  Returns
    (wake-ups, s after): the result of the per-wake loop

        while k < limit and s > lo and s >= WAKE_COST - DRAW_SLACK:
            s = max(0.0, s - WAKE_COST); k += 1

    With WAKE_COST = 1.0 and 1 <= s < 2**53, `s - 1.0` is exact, so the
    loop visits s, s - 1, ..., s - m (m = int(s)), and a draw from s - m < 1
    empties the store.  Both stop conditions are monotone in `s`, so the
    count is the first j whose s - j fails them: estimated from `s - lo`,
    then settled by the loop's own comparisons.  A larger `s` steps wake by
    wake, since `s - 1.0` may round.
    """
    draw_floor = WAKE_COST - DRAW_SLACK
    if not s < 2.0**53:
        k = 0
        while k < limit and s > lo and s >= draw_floor:
            s = s - WAKE_COST if s >= WAKE_COST else 0.0
            k += 1
        return k, s
    m = int(s)
    top = min(limit, m + 1)
    k = max(0, min(top, int(s - lo) + 1))
    while k > 0 and not (s - (k - 1) > lo and s - (k - 1) >= draw_floor):
        k -= 1
    while k < top and s - k > lo and s - k >= draw_floor:
        k += 1
    return k, (s - k if k <= m else 0.0)


def _bank(s: float, waste: float, cap: float, runs, a: int, b: int):
    """Harvest-only ticks a..b-1 over sorted, contiguous constant-inflow runs
    [(start, end, inc)].  Returns (s, waste)."""
    for i in range(bisect_right(runs, a, key=itemgetter(0)) - 1, len(runs)):
        start, end, inc = runs[i]
        if start >= b:
            break
        n = (b if b < end else end) - (a if a > start else start)
        s, waste = _idle_run(s, waste, inc, cap, n)
    return s, waste


def _inflow_runs(inflows: list) -> list:
    """Maximal runs of equal per-tick inflow as (start, end, inc)."""
    runs = []
    start = 0
    for t in range(1, len(inflows) + 1):
        if t == len(inflows) or inflows[t] != inflows[start]:
            runs.append((start, t, inflows[start]))
            start = t
    return runs


@lru_cache(maxsize=16)
def _harvest_sums(inc: float, period_ticks: int) -> tuple[float, ...]:
    """Entry k is the k-fold sequential sum 0.0 + inc + ... + inc: a period's
    harvest total after k ticks that banked `inc`."""
    sums = [0.0]
    total = 0.0
    for _ in range(period_ticks):
        total += inc
        sums.append(total)
    return tuple(sums)


def _lit_total(inflows: list, dark: list) -> float:
    """In-order sum of the inflows outside the sorted dark spans."""
    total = 0.0
    t = 0
    for a, b in (*dark, (len(inflows), len(inflows))):
        for inc in inflows[t:a]:
            total += inc
        t = b
    return total


def _tick_arrays(policy, events, slot_len, slot_info, wakes, wake_runs, dark,
                 forced_at, entry_value, inflows, inc, cap, s, end):
    """The per-tick arrays of one recorded period, rebuilt from the kernel's
    decisions.  `stored` replays from `s` the per-tick rule: forcing, the draw,
    then the harvest clamped at `cap`.  Each tick's draw, -1.0 or -0.0, and its
    harvest interleave into one step array; `s + -1.0` is `s - 1.0` and
    `s + -0.0` is `s`, so one sequential `np.add.accumulate` replays a window
    up to its first tick that clamps or draws from below one wake cost, which
    takes the rule.  A window reaches where the top inflow could first clamp,
    and at least `span` ticks, which doubles while windows come back clean;
    within two ticks' inflow of `cap`, a tick without a draw takes the rule.
    A full store stays full up to the first draw whose tick ends below `cap`.
    Raises RuntimeError unless the replay ends at the kernel's `end`."""
    period_ticks = len(events)
    n_slots = period_ticks // slot_len
    awake = np.zeros(period_ticks, dtype=bool)
    awake[np.fromiter(wakes, np.intp)] = True
    for r in wake_runs:
        awake[r.start : r.stop : r.step] = True
    harvested = np.full(period_ticks, inc) if inflows is None else np.array(inflows)
    for a, b in dark:
        harvested[a:b] = 0.0
    draws = awake if policy.draws_energy else np.zeros(period_ticks, dtype=bool)
    drawn = draws * WAKE_COST
    # path[2t]: the store after tick t's draw, path[2t + 1] after its harvest
    steps = np.empty(2 * period_ticks)
    np.negative(drawn, out=steps[::2])
    steps[1::2] = harvested
    path = np.empty_like(steps)
    rate = inc if inflows is None else float(harvested.max())
    top = cap - WAKE_COST if cap >= WAKE_COST else 0.0  # a draw from a full store
    t, span, leave = 0, ACCUMULATE_MIN, None
    for b in (*forced_at, period_ticks):
        while t < b:
            if s == cap:
                if leave is None:  # cap - top is exact: below cap iff top + h < cap
                    leave = draws & (top + harvested < cap)
                x = t + int(leave[t:b].argmax())
                x = x if leave[x] else b
                path[2 * t + 1 : 2 * x : 2] = cap
                t = x
                if t == b:
                    break
            elif draws[t] or 2.0 * rate <= cap - s:
                w = min(b, t + max(span, int(min((cap - s) / rate, b)) if rate else b))
                steps[2 * t] += s
                window = np.add.accumulate(steps[2 * t : 2 * w], out=path[2 * t : 2 * w])
                pre = window[::2]
                bad = harvested[t:w] > cap - pre
                if pre.min() < 0.0:
                    bad |= pre < 0.0
                i = int(bad.argmax())
                if not bad[i]:
                    t, s, span = w, float(window[-1]), 2 * span
                    continue
                t, s, span = t + i, float(window[2 * i - 1]) if i else s, ACCUMULATE_MIN
            # tick t by the per-tick rule
            if draws[t]:
                s = s - WAKE_COST if s >= WAKE_COST else 0.0
            h = float(harvested[t])
            s = cap if h > cap - s else s + h
            path[2 * t + 1] = s
            t += 1
        if b < period_ticks:
            s = min(entry_value, cap)
    if s != end:
        raise RuntimeError(f"per-tick replay ends at {s!r}, the kernel at {end!r}")
    # GT and CTID keep one phase and step all period
    phase, step = zip(*(slot_info or [(policy.current_phase, policy.current_step)] * n_slots))
    return {
        "awake": awake,
        "event": np.frombuffer(bytes(events), np.uint8).astype(bool),
        "drawn": drawn,
        "harvested": harvested,
        "stored": path[1::2].copy(),
        "phase": np.array(phase, dtype=np.int8).repeat(slot_len),
        "slot": np.arange(n_slots, dtype=np.int16).repeat(slot_len),
        "step": np.array(step, dtype=np.int8).repeat(slot_len),
    }


def apply_change(pattern: EventPattern, change: PatternChange) -> EventPattern:
    if change.kind == "shift":
        return shift_pattern(pattern, int(change.arg))
    if change.kind == "morph":
        index, shape = change.arg
        return morph_pattern(pattern, index, shape)
    if change.kind == "replace":
        return change.arg
    raise ValueError(f"unknown pattern change kind {change.kind!r}")


def _parse_stop_rule(rule: str | None) -> tuple[float, int]:
    """(phase, periods): stop once `periods` periods in a row end in `phase` or
    above; phase_ge:N is (N, 1), phase3_stable:N is (3, N) with N >= 1, no
    rule never stops."""
    if rule is None:
        return inf, 1
    kind, _, arg = rule.partition(":")
    if kind not in ("phase_ge", "phase3_stable") or not (arg == "" or arg.isdigit()):
        raise ValueError(
            f"unknown stop rule {rule!r}; valid: phase_ge[:N], phase3_stable[:N]"
        )
    if kind == "phase_ge":
        return int(arg or 2), 1
    periods = int(arg or 5)
    if periods < 1:  # a streak of 0 periods would stop after any period
        raise ValueError(f"stop rule {rule!r} needs N >= 1 periods")
    return 3, periods


def _segment_periods(config: SimConfig, policy: BasePolicy):
    """(period, source, events, entry slots, entry value) for each period of
    the run, the entry slots being the learner slots where the segment's
    peaks start (`peak_start_slots`), or none without forcing.  Each
    non-empty segment's world is built once, at its start, where the
    learning policy's entry-level hint is set too."""
    segments = config.segments()
    ends = [min(start, config.n_periods) for start, _, _ in segments[1:]] + [config.n_periods]
    for (start, pattern, level), end in zip(segments, ends):
        if start >= end:
            continue
        source = make_source(config, pattern)
        # streams keyed by the pattern: a returning pattern replays its events
        name = "trace" if pattern == config.pattern else f"trace:{pattern_id(pattern)}"
        trace = sample_trace(pattern, config.seed, end - start, stream_name=name,
                             repeat_first_period=config.repeat_first_period)
        if isinstance(policy, SmartOnPolicy):
            policy.entry_level_hint = level
        if level is not None and config.policy in FORCED_POLICIES:
            entry_slots = peak_start_slots(pattern, config.learner.state_duration)
            entry_value = entry_level_energy(level, config.capacity, config.learner.k_levels)
        else:
            entry_slots, entry_value = (), None
        for p in range(start, end):
            offset = (p - start) * pattern.period_ticks
            events = trace.occurrences[offset : offset + pattern.period_ticks].tobytes()
            yield p, source, events, entry_slots, entry_value


def run_experiment(config: SimConfig) -> ExperimentResult:
    """Run a full multi-period experiment per the config."""
    store = make_store(config)
    policy = make_policy(config)

    if config.n_periods <= 0:
        return ExperimentResult(config, [], episodes=[], phase1_stays=[], tables={},
                                policy=policy)

    if config.initial_stored > 0.0:
        store.stored = min(config.initial_stored, store.capacity)
    elif config.policy == "ctid" and config.ctid_phase_jitter:
        # start at a seeded point of the CTID charge/discharge cycle: warm the
        # real dynamics up for a fraction of one cycle so any phase --
        # including mid-discharge -- is reachable.  Without inflow the store
        # cannot leave empty; otherwise SimConfig bounds the cycle by
        # MAX_JITTER_CYCLE.  No pattern gates CTID's source.
        source = make_source(config, config.pattern)
        if source(0) > 0.0:
            u = Stream(config.seed, "ctid-phase").next_double()
            _ctid_warm_up(policy, store, source, int(u * int(config.ctid_cycle_ticks)))

    stop_phase, stop_periods = _parse_stop_rule(config.stop_rule)
    streak = 0
    periods: list[PeriodLog] = []
    per_tick = config.record_level == "per-tick"
    for p, source, events, entry_slots, entry_value in _segment_periods(config, policy):
        periods.append(run_period(policy, store, source, events, p, config.pattern.period_ticks,
                                  config.learner.state_duration, entry_slots, entry_value, per_tick))
        streak = streak + 1 if policy.current_phase >= stop_phase else 0
        if streak >= stop_periods:
            break

    ctx = getattr(policy, "ctx", None)
    return ExperimentResult(
        config, periods, episodes=list(getattr(policy, "episodes", [])),
        phase1_stays=list(getattr(policy, "phase1_stays", [])),
        tables=dict(ctx.tables) if ctx is not None else {}, policy=policy,
    )


def compute_metrics(periods, from_period: int = 0) -> Metrics:
    """Aggregate total catches and energy efficiency over periods[from_period:]."""
    window = [p for p in periods if p.period >= from_period]
    catches = sum(p.catches for p in window)
    awake = sum(p.awake_ticks for p in window)
    events = sum(p.event_ticks for p in window)
    spent = sum(p.spent for p in window)
    on_event = sum(p.spent_on_event for p in window)
    efficiency = on_event / spent if spent > 0 else 0.0
    return Metrics(
        total_catches=catches,
        energy_efficiency=efficiency,
        awake_ticks=awake,
        event_ticks=events,
        drawn=sum(p.drawn for p in window),
        harvested=sum(p.harvested for p in window),
    )


def convergence_stats(result: ExperimentResult) -> dict:
    """Per-entry-level episodes-to-converge and Phase-1 pass counts."""
    per_level = {}
    for shape, table in result.tables.items():
        for level in sorted(table.episodes_to_converge):
            order = list(table.episode_changes).index(level) + 1
            per_level[(shape, level)] = {
                "episodes_to_converge": table.episodes_to_converge[level],
                "learn_order": order,
            }
    return {
        "per_level": per_level,
        "phase1_stays": result.phase1_stays,
        "phase2_episodes": len(result.episodes),
    }


@dataclass
class PartitionStudyResult:
    order: tuple[int, ...]
    episodes_per_level: dict[int, int]
    first_converged_at: int
    all_converged_at: int  # also the study's total episode count


# a partition study that has not latched every level by then fails
PARTITION_MAX_PERIODS = 20_000


def run_partition_study(config: SimConfig, order) -> PartitionStudyResult:
    """Force entry levels in the given order, each until its partition
    converges, and report global episode indices of the first and last
    convergence (the partitioned vs monolithic exploitation gates).  The
    order must hold distinct levels in 1..k_levels, at least one, and the
    pattern one peak that starts on a learner slot, where forcing sets the
    store; anything else is refused before a period runs.  The config's
    `n_periods` and schedule play no part."""
    order = [int(x) for x in order]
    k = config.learner.k_levels
    if not order or len(set(order)) != len(order) or not all(1 <= x <= k for x in order):
        raise ValueError(f"partition order needs distinct levels in 1..{k}, got {order}")
    pattern = config.pattern
    store = make_store(config)
    source = make_source(config, pattern)
    policy = make_policy(config)
    if not isinstance(policy, SmartOnPolicy):
        raise ValueError("partition studies need the learning policy")
    policy.explore_forever = True
    slot_len = config.learner.state_duration
    period_ticks = pattern.period_ticks

    events = sample_trace(pattern, config.seed, 1, repeat_first_period=True).occurrences.tobytes()
    entry_slots = peak_start_slots(pattern, slot_len)
    if len(pattern.peaks) != 1:
        raise ValueError("partition studies use single-peak patterns")
    shape_expected = None

    target_idx = 0
    first_at = None

    for p in range(PARTITION_MAX_PERIODS):
        level = order[target_idx]
        policy.entry_level_hint = level
        entry_value = entry_level_energy(level, store.capacity, k)
        run_period(
            policy, store, source, events, p, period_ticks, slot_len,
            entry_slots, entry_value, False,
        )
        if policy.ctx.phase < 2:
            continue
        if shape_expected is None and policy.ctx.known_peaks:
            shape_expected = policy.ctx.known_peaks[0].shape
        table = policy.ctx.tables.get(shape_expected)
        if table is None:
            continue
        if level in table.converged_levels:
            if first_at is None:
                first_at = len(policy.episodes)
            target_idx += 1
            if target_idx >= len(order):
                break
    if target_idx < len(order):
        raise RuntimeError(
            f"partition study did not converge all levels in {PARTITION_MAX_PERIODS} periods"
        )
    episodes_per_level = {
        level: policy.ctx.tables[shape_expected].episodes_to_converge[level]
        for level in order
    }
    return PartitionStudyResult(
        order=tuple(order),
        episodes_per_level=episodes_per_level,
        first_converged_at=first_at,
        all_converged_at=len(policy.episodes),
    )
