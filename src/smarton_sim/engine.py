"""Deterministic simulation kernel and experiment orchestration.

One run binds a store, a sampled event trace and a policy, then walks the
period.  Within a tick the order is fixed: slot-boundary bookkeeping
(entry-level forcing, slot planning), the wake decision, the energy draw,
then harvesting -- so a decision sees the energy banked up to the end of the
previous tick.  A policy plans only the wake-ups that the store funds at the
slot start; `run_period` raises RuntimeError on any other plan.
Periods repeat until the period cap or a stop rule.

Energy is exact: every energy of a run is an integer count of one quantum,
`SimConfig.quantum` of them to a wake cost, so the ledger balances with
`==` and each step of the kernel is one integer expression.  One
event-driven kernel (`run_period`) implements these semantics for every
policy and harvest source, with one harvest form: a period's cumulative
inflow `P`, the quanta that its ticks 0..t-1 harvest at `P[t]`
(`Segment.harvest`), built once per segment whose source repeats every
period.  It jumps from one decision to the next -- slots the policy's
look-ahead names as able to act, wake-ups, CTID mode flips -- and the
harvest-only ticks a..b-1 between them leave `min(s + P[b] - P[a], cap)`
(`_idle`), since the per-tick clamp is monotone for any nonnegative inflow;
a planned slot, which the store funds at its start, is one closed form too.
A period's events are a slice of its segment's one 0/1 byte string.
Per-tick recording takes the same path and replays the kernel's decisions
into per-tick arrays (`_tick_arrays`), so it cannot change a number.

Reuse lives on the run's policy, so no number depends on another run: a
phase-3 episode of the learning policy is replayed by its start
(`episode_memo`), and under a constant source a GT or CTID period, with its
per-tick arrays, is computed once per start state (`periods`).

A pattern-change schedule (shift, morph or replace) splits a run into
segments (`SimConfig.segments`), each with its own source and entry forcing
(a `Segment`) and trace, from a substream keyed by the pattern so a
returning pattern replays its realization; the adaptation experiments use it
to force re-profiling.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import inf
from numbers import Integral

import numpy as np

from .energy import (
    WAKE_COST, AbstractStore, HarvestSource, exact, quanta, quantum,
    read_trace_file, require_finite, require_integer,
)
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


@dataclass(frozen=True)
class PatternChange:
    """Swap the world's pattern starting at `period`: `arg` is a shift's
    slots (an integer), a morph's (peak index, shape) pair or a replace's
    `EventPattern`, each refused with ValueError when it is not."""

    period: int
    kind: str  # shift | morph | replace
    arg: object = None
    entry_level: int | None = None

    def __post_init__(self):
        require_integer(self, "period")
        if self.kind == "shift":
            require_integer(self, "arg")
        elif self.kind == "morph":
            # a shape is a canonical name or a tuple of steps, both checked when applied
            pair = self.arg if isinstance(self.arg, tuple) else ()
            if len(pair) != 2 or isinstance(pair[0], bool) or not isinstance(pair[0], Integral) \
                    or not isinstance(pair[1], (str, tuple)):
                raise ValueError(f"a morph needs an (integer index, shape) pair, got {self.arg!r}")
        elif self.kind != "replace":
            raise ValueError(f"pattern change kind {self.kind!r} is not shift, morph or replace")
        elif not isinstance(self.arg, EventPattern):
            raise ValueError(f"a replace needs an EventPattern, got {self.arg!r}")


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
        require_integer(self, "n_periods", "seed", "measure_from")
        if self.n_periods < 0:
            raise ValueError(f"n_periods must be nonnegative, got {self.n_periods}")
        # measure_from beyond n_periods is allowed: it measures nothing
        if self.measure_from < 0:
            raise ValueError(f"measure_from must be nonnegative, got {self.measure_from}")
        require_finite(self, "capacity", "charging_ratio", "source_level", "initial_stored")
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
            # a fractional level would force a store between the quanta
            if isinstance(level, bool) or not isinstance(level, Integral) or not 1 <= level <= k:
                raise ValueError(f"entry_level {level!r} is not an integer in 1..{k}")
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

    @cached_property
    def quantum(self) -> int:
        """D, the quanta of one wake cost: the least integer that makes the
        capacity, the CTID thresholds, the initial store, the midpoint of
        every entry level (`entry_level_energy`) and each inflow
        `level / charging_ratio` whole: one step of the source's values
        (`HarvestSource.step`) over the ratio."""
        return quantum(1, self.capacity, self.ctid.e_on, self.ctid.e_off, self.initial_stored,
                       exact(self.capacity) / (2 * self.learner.k_levels),
                       make_source(self, self.pattern).step / exact(self.charging_ratio))

    @property
    def ctid_cycle_ticks(self) -> float:
        """Unrounded ticks of one CTID charge/discharge cycle from empty at
        `source_level`: the span the phase-jitter warm-up draws from."""
        return (
            self.ctid.e_on * self.charging_ratio / max(self.source_level, 1e-9)
            + self.ctid.e_on * self.ctid.wake_interval
        )


@dataclass(slots=True)
class PeriodLog:
    """One period's counts, and its energies in wake costs: each the
    correctly rounded quotient of the kernel's quanta by the quantum.
    `run_period` builds it positionally, in field order."""

    period: int
    phase_start: int
    awake_ticks: int
    event_ticks: int
    catches: int
    drawn: float
    harvested: float
    wasted_saturation: float
    skipped_wakeups: int  # 0 by construction; kept while the benchmark reports it
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
    """An empty store in the config's quanta."""
    d = config.quantum
    return AbstractStore(capacity=quanta(config.capacity, d),
                         charging_ratio=config.charging_ratio, wake=d)


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
    d = config.quantum
    if config.policy == "gt":
        return GtPolicy()
    if config.policy == "ctid":
        return CtidPolicy(config.ctid, d)
    if config.policy == "ctidpro":
        return CtidProPolicy(config.learner, n_slots, config.seed, d)
    return SmartOnPolicy(config.learner, n_slots, config.seed, quanta(config.capacity, d), d)


def entry_level_energy(level: int, capacity: int, k_levels: int) -> int:
    """Midpoint energy of a quantized level, in the quanta of `capacity`."""
    return quanta(Fraction(2 * level - 1, 2 * k_levels), capacity)


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


@dataclass(frozen=True)
class Segment:
    """What the periods of a stretch of a run share: the source, and the
    quanta a tick harvests per step of its value (`unit`); the entry slots
    and the quanta forcing sets there (`entry_value`, None to force
    nothing); `inc`, a constant source's quanta per tick, or None; and
    `steady`, the one `P` of its periods when the source's cycle divides
    the period, or None.  Each period's events are a slice of one byte
    string (`_segment_periods`)."""

    source: HarvestSource
    unit: int
    period_ticks: int
    slot_len: int
    entry_slots: tuple[int, ...]
    entry_value: int | None
    record: bool
    inc: int | None
    steady: range | tuple[int, ...] | None

    @classmethod
    def of(cls, source: HarvestSource, store: AbstractStore, period_ticks: int, slot_len: int,
           entry_slots=(), entry_value: int | None = None, record: bool = False) -> "Segment":
        """`source`'s segment in the quanta of `store`."""
        unit = store.inflow(source.step)
        inc = source.count(0) * unit if source.kind == "constant" else None
        steady = None if inc is None else _steady(inc, period_ticks)
        segment = cls(source, unit, period_ticks, slot_len, tuple(entry_slots), entry_value,
                      record, inc, steady)
        if steady is not None or period_ticks % source.cycle:
            return segment
        return replace(segment, steady=segment.harvest(0))

    def harvest(self, period: int):
        """`P` of period `period`: `P[t]` is the quanta that its ticks
        0..t-1 harvest, for t in 0..period_ticks."""
        if self.steady is not None:
            return self.steady
        base = period * self.period_ticks
        counts = map(self.source.count, range(base, base + self.period_ticks))
        return tuple(accumulate(map(self.unit.__mul__, counts), initial=0))


def _steady(inc: int, ticks: int):
    """`P` of `ticks` ticks at `inc` quanta each."""
    return range(0, (ticks + 1) * inc, inc) if inc else (0,) * (ticks + 1)


def run_period(policy: BasePolicy, store: AbstractStore, segment: Segment,
               events: bytes | list, period_index: int) -> PeriodLog:
    """Simulate period `period_index` of `segment`; `events` is the period's
    per-tick 0/1 sequence (`bytes`, a slice of the segment's sampled trace,
    or a list).  Energy is an integer count of the store's quanta: the
    policy hooks get the stored quanta, and `store` is read at the start
    and written at the end.  Entry forcing sets the store to `entry_value`
    quanta at the start of each of the sorted learner slots `entry_slots`
    (`peak_start_slots`) once the policy is past phase 1.

    The kernel advances from one decision to the next instead of stepping
    every tick: entry forcing, the slots a policy can act in, wake-ups, CTID
    mode flips.  A slot-planned policy names the next slot whose hooks can
    act (`next_active_slot`); the slots before it are banked without calling
    the policy.  Every source takes one form, the cumulative inflow `P`,
    one object for every period of a periodic segment (`Segment.steady`):
    from `s`, harvest-only ticks `a..b-1` leave `min(s + P[b] - P[a], cap)`
    and waste the rest (`_idle`), as the per-tick clamp is monotone for any
    nonnegative inflow.  A wake-up is funded when the store holds one wake
    cost; a run of them is one floor division.  A planned slot of `L` ticks
    from `base` must hold all `m` of its wake-ups at its start (`s >= m *
    wake`), or RuntimeError is raised: no draw can then fail, as a clamp
    only lowers the store to `cap >= s`, so it ends at `s + P[base + L] -
    P[base] - m * wake` less the overflow of the store's highest point, just
    before a wake-up or at the slot end.  GT is closed form (awake every
    tick, catches every event); a CTID charge ends at one bisection of `P`,
    and its discharge phases draw runs (`_ctid_run`).

    Burst slots and CTID discharge phases are dark: they harvest nothing.
    So a `BURST` drains the run of known slots it starts, up to the next
    entry slot, as one draw run with one call of each hook.  Each stop
    bisects `entry_slots` once, and that index serves the look-ahead, the
    forcing test, the burst run's end and the replay guard below.
    Profiling (phase 1, which never forces) plans nothing from below
    `full_floor`: the slots up to the first start at the floor, one
    bisection of `P`, are banked at once.

    Under a constant source (`segment.inc`), while the policy keeps an
    `episode_memo`, an episode that `episode_at` names, with no entry slot
    after its first and before its end, is replayed by (peak, stored energy,
    inflow), or run and stored with its waste.  A GT or CTID period, blind
    to events, is computed once per start state (`_blind_period`) and kept
    in the policy's `periods`, with its per-tick arrays once built; catches
    are counted from its own events, and each log owns copies of the
    arrays.  Recording takes these paths and lists decisions for
    `_tick_arrays`.
    """
    phase_start = policy.current_phase
    s = stored_start = store.stored
    policy.on_period_start(period_index)

    cap, wake = store.capacity, store.wake
    period_ticks, slot_len, inc = segment.period_ticks, segment.slot_len, segment.inc
    entry_slots, entry_value, record_ticks = (segment.entry_slots, segment.entry_value,
                                              segment.record)
    P = segment.harvest(period_index)
    waste = 0
    event_ticks = events.count(1)
    awake_total = catches_total = forced_delta = 0
    recorded = None  # the log's per-tick arrays

    if isinstance(policy, (GtPolicy, CtidPolicy)):
        ctid = isinstance(policy, CtidPolicy)
        if ctid and (s <= policy.e_off or s < wake):
            policy.discharging = False  # as the first tick would: one key for one period
        key = (s, policy.discharging, policy.discharge_start, inc) if ctid else (s, inc)
        run = policy.periods.get(key)
        if run is None:
            run = _blind_period(policy, s, P, cap, wake, period_ticks)
            if inc is not None:
                policy.periods[key] = run
        s, waste, mode, dark, wake_runs, awake_total, harvested, arrays = run
        if ctid:
            policy.discharging, policy.discharge_start = mode
            catches_total = sum(events[r.start : r.stop : r.step].count(1) for r in wake_runs)
        else:
            catches_total = event_ticks
        if record_ticks:
            if arrays is None:  # no slot planned, no forcing
                arrays = run[-1] = _tick_arrays(policy, period_ticks, slot_len, (), (),
                                                wake_runs, dark, (), None, P, inc, cap, wake,
                                                stored_start, s)
            recorded = {name: a.copy() for name, a in arrays.items()}  # every log owns its arrays
            recorded["event"] = np.frombuffer(bytes(events), np.uint8).astype(bool)
    else:
        wakes = [] if record_ticks else None  # funded wake ticks of planned slots
        wake_runs = []  # ranges of funded wake ticks: draw runs
        forced_at = []  # ticks where entry forcing set the store
        slot_info = []  # (phase, step) per slot, when recording
        dark = []  # (start, end) tick spans that harvested nothing
        n_slots = period_ticks // slot_len
        # entry forcing rewrites the store at a slot start: a stop for the
        # look-ahead whether or not the policy acts there
        n_entries = len(entry_slots) if entry_value is not None else 0
        woken, episode_end = wakes, None  # the wake tick list, the end of a memoized episode
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
                s, waste = _idle(s, waste, P[nxt * slot_len] - P[slot * slot_len], cap)
                if record_ticks:
                    slot_info.extend(repeat((policy.current_phase, 0), nxt - slot))
                slot = nxt
                if slot == n_slots:
                    break
            base = slot * slot_len
            if i < n_entries and entry_slots[i] == slot:
                i += 1
                if policy.current_phase >= 2:
                    forced_delta += entry_value - s
                    s = entry_value
                    forced_at.append(base)
            if policy.current_phase == 1 and s < policy.full_floor:
                # bank the slots up to the first start at the floor
                t = bisect_left(P, P[base] + policy.full_floor - s, base)
                nxt = min(-(-t // slot_len), n_slots)
                s, waste = _idle(s, waste, P[nxt * slot_len] - P[base], cap)
                if record_ticks:
                    slot_info.extend(repeat((1, 0), nxt - slot))
                slot = nxt
                continue

            if (inc is not None and episode_end is None
                    and (memo := policy.episode_memo) is not None
                    and (peak := policy.episode_at(slot, s))):
                end = slot + peak.n_steps
                # no forcing inside the episode
                if end <= n_slots and (i == n_entries or entry_slots[i] >= end):
                    key = (peak, s, inc)
                    hit = memo.get(key)
                    if hit is not None:
                        ticks, s, episode_waste = hit
                        waste += episode_waste
                        awake_total += len(ticks)
                        catches_total += sum(map(events.__getitem__, ticks))
                        if record_ticks:
                            wakes.extend(ticks)
                            slot_info.extend(zip(repeat(3), range(1, peak.n_steps + 1)))
                        slot = end
                        continue
                    episode_end, waste_before, woken = end, waste, []

            plan = policy.plan_slot(slot, s)
            if record_ticks:
                slot_info.append((policy.current_phase, policy.current_step))
            slot_awake = 0
            slot_catches = 0
            if plan == BURST:
                # drain while a wake-up can be funded; nothing is harvested, and
                # no hook acts inside the known run, as probes skip known slots
                known = policy.known_slots
                stop = entry_slots[i] if i < n_entries else n_slots
                run_end = slot + 1
                while run_end < stop and run_end in known:
                    run_end += 1
                slot_awake = min((run_end - slot) * slot_len, s // wake)
                s -= slot_awake * wake
                slot_catches = events[base : base + slot_awake].count(1)
                wake_runs.append(range(base, base + slot_awake))
                dark.append((base, run_end * slot_len))
                if record_ticks:
                    slot_info.extend(repeat(slot_info[-1], run_end - slot - 1))
                slot = run_end - 1
            elif not plan:
                s, waste = _idle(s, waste, P[base + slot_len] - P[base], cap)
            else:
                if s < len(plan) * wake:
                    raise RuntimeError(
                        f"slot {slot}: {policy.name} planned {len(plan)} wake-ups, and the "
                        f"store funds {s // wake}")
                # funded at its start, so no wake-up fails: the store is the
                # harvest-less-draw path reflected at `cap`, which rises
                # between wake-ups and peaks just before one or at the end;
                # before a wake-up it is at most `s + P[base + plan[-1]] - P[base]`
                top = s - P[base]
                slot_awake = len(plan)
                slot_catches = sum(map(events[base : base + slot_len].__getitem__, plan))
                end = top + P[base + slot_len] - slot_awake * wake
                if end > cap or top + P[base + plan[-1]] > cap:
                    peak = max([end] + [top + P[base + o] - j * wake for j, o in enumerate(plan)])
                    if peak > cap:
                        waste += peak - cap
                        end -= peak - cap
                s = end
                if woken is not None:
                    woken.extend([base + o for o in plan])

            awake_total += slot_awake
            catches_total += slot_catches
            policy.on_slot_end(slot, slot_awake, slot_catches, s)
            slot += 1
            if slot == episode_end:
                ticks = tuple(woken)
                memo[key] = (ticks, s, waste - waste_before)
                if record_ticks:
                    wakes.extend(ticks)
                episode_end, woken = None, wakes

        harvested = P[period_ticks] - (sum(P[b] - P[a] for a, b in dark) if dark else 0)
        if record_ticks:
            recorded = _tick_arrays(policy, period_ticks, slot_len, slot_info, wakes,
                                    wake_runs, dark, forced_at, entry_value, P, inc, cap, wake,
                                    stored_start, s)
            recorded["event"] = np.frombuffer(bytes(events), np.uint8).astype(bool)

    store.stored = s
    store.wasted_saturation += waste
    policy.on_period_end(period_index)

    # the log's reals are in wake costs, each the correctly rounded quotient;
    # every awake tick of a drawing policy drew one wake cost
    return PeriodLog(period_index, phase_start, awake_total, event_ticks, catches_total,
                     float(awake_total) if policy.draws_energy else 0.0, harvested / wake,
                     waste / wake, 0, stored_start / wake, s / wake, forced_delta / wake,
                     recorded)


def _ctid_run(s: int, waste: int, cap: int, wake: int, e_on: int, e_off: int, interval: int,
              discharging: bool, start: int, P, t: int, end: int):
    """CTID over ticks t..end-1 of the cumulative inflow `P`, in quanta, from
    the mode (`discharging`, `start`) that `CtidPolicy` carries: charge until
    the store holds `e_on`, then discharge -- harvest nothing and wake every
    `interval` ticks from the flip -- until it falls to `e_off` or cannot
    fund a wake-up.  Since `e_on` is at least one wake cost, every discharge
    wake-up is funded.  A charge phase ends at one bisection of `P`, and a
    discharge phase's wake-ups in the span are one draw run.  Returns (s,
    waste, discharging, start, dark spans, wake ranges): the caller counts
    awake ticks and catches from the ranges and keeps the mode, whose
    cadence moves into the frame of the ticks after `end`, reduced modulo
    `interval`.
    """
    dark = []
    wakes = []
    dark_from = t
    while t < end:
        if discharging and (s <= e_off or s < wake):
            discharging = False
            if t > dark_from:  # a phase the last span ended can flip at its first tick
                dark.append((dark_from, t))
        if not discharging:
            if s >= e_on:
                discharging = True
                start = dark_from = t
            else:
                # harvest up to the tick whose pre-tick check sees e_on, which
                # a store clamped below it never does, or to the span's end
                b = bisect_left(P, P[t] + e_on - s, t, end) if e_on <= cap else end
                s, waste = _idle(s, waste, P[b] - P[t], cap)
                t = b
                continue
        # the store, and so the stop rule, only changes at a wake-up: the
        # phase's wake-ups in this span are one draw run, and it goes on at
        # the tick after the wake-up that meets the rule
        t += (start - t) % interval
        if t < end:
            k = min((end - 1 - t) // interval + 1, s // wake, -((e_off - s) // wake))
            s -= k * wake
            stop = t + k * interval
            wakes.append(range(t, stop, interval))
            t = stop - interval + 1 if s <= e_off or s < wake else end
    if discharging:
        dark.append((dark_from, end))
    return s, waste, discharging, (start - end) % interval, dark, wakes


def _blind_period(policy, s: int, P, cap: int, wake: int, ticks: int) -> list:
    """A GT or CTID period of `ticks` ticks of the cumulative inflow `P`,
    from `s` quanta and the policy's mode: [s, waste, mode, dark spans, wake
    ranges, awake ticks, harvest, None], the last slot left for the per-tick
    arrays.  GT is awake at every tick, draws nothing and harvests
    throughout; CTID is `_ctid_run`, whose mode (`discharging`, `start`)
    the caller keeps."""
    if isinstance(policy, GtPolicy):
        s, waste = _idle(s, 0, P[ticks], cap)
        return [s, waste, None, (), (range(ticks),), ticks, P[ticks], None]
    s, waste, *mode, dark, wakes = _ctid_run(
        s, 0, cap, wake, policy.e_on, policy.e_off, policy.cfg.wake_interval,
        policy.discharging, policy.discharge_start, P, 0, ticks)
    return [s, waste, mode, dark, wakes, sum(map(len, wakes)),
            P[ticks] - sum(P[b] - P[a] for a, b in dark), None]


def _ctid_warm_up(policy: CtidPolicy, store: AbstractStore, source: HarvestSource,
                  ticks: int) -> None:
    """Run CTID's cycle for `ticks` ticks before period 0 at the source's
    tick-0 inflow, with no events: ticks 0..ticks-1 of a frame `ticks` ahead
    of period 0's, so wake intervals stay aligned to its tick 0."""
    inc = source.count(0) * store.inflow(source.step)
    store.stored, waste, policy.discharging, policy.discharge_start, *_ = _ctid_run(
        store.stored, 0, store.capacity, store.wake, policy.e_on, policy.e_off,
        policy.cfg.wake_interval, policy.discharging, policy.discharge_start + ticks,
        _steady(inc, ticks), 0, ticks)
    store.wasted_saturation += waste


def _idle(s: int, waste: int, harvest: int, cap: int):
    """(s, waste) after harvest-only ticks that harvest `harvest` quanta in
    all.  The per-tick clamp `min(s + q, cap)` is monotone for any inflow
    `q >= 0`, so the store clamps at most once and then stays full."""
    s += harvest
    if s > cap:
        return cap, waste + s - cap
    return s, waste


def _tick_arrays(policy, period_ticks, slot_len, slot_info, wakes, wake_runs, dark,
                 forced_at, entry_value, P, inc, cap, wake, s, end):
    """The per-tick arrays of one recorded period but `event`, rebuilt from
    the kernel's decisions and the cumulative inflow `P` (`inc` a tick under
    a constant source), with energies in wake costs.  `stored` replays from
    `s` quanta the per-tick rule: forcing, the draw, then the harvest
    clamped at `cap`.  A draw never meets the clamp, so a tick's draw and
    harvest are one step, and between forced ticks the store is the prefix
    sum `S` of the steps less the running maximum of `S - cap`, floored at
    0: a one-sided reflection at `cap`, whose increments are the waste.  The
    sums are int64 while they stay below 2**53, where a float holds them
    too, and Python ints beyond.  Raises RuntimeError unless the replay ends
    at the kernel's `end`."""
    n_slots = period_ticks // slot_len
    awake = np.zeros(period_ticks, dtype=bool)
    awake[np.fromiter(wakes, np.intp)] = True
    for r in wake_runs:
        awake[r.start : r.stop : r.step] = True
    draws = awake if policy.draws_energy else np.zeros(period_ticks, dtype=bool)
    dtype = np.int64 if max(cap + P[-1], wake) < 2**53 else object
    harvested = (np.full(period_ticks, inc, dtype) if inc is not None
                 else np.diff(np.array(P, dtype)))
    for a, b in dark:
        harvested[a:b] = 0
    steps = harvested.copy()
    steps[draws] -= wake
    stored = np.empty_like(steps)
    t = 0
    for b in (*forced_at, period_ticks):
        if t < b:
            path = np.cumsum(steps[t:b], out=stored[t:b])
            path += s
            over = path - cap
            if over.max() > 0:
                path -= np.maximum.accumulate(np.maximum(over, 0, out=over), out=over)
        t, s = b, entry_value
    if stored[-1] != end:
        raise RuntimeError(f"per-tick replay ends at {stored[-1]!r}, the kernel at {end!r}")
    # GT and CTID keep one phase and step all period
    phase, step = zip(*(slot_info or [(policy.current_phase, policy.current_step)] * n_slots))
    return {
        "awake": awake,
        "drawn": draws * WAKE_COST,
        "harvested": (harvested / wake).astype(np.float64, copy=False),
        "stored": (stored / wake).astype(np.float64, copy=False),
        "phase": np.array(phase, dtype=np.int8).repeat(slot_len),
        "slot": np.arange(n_slots, dtype=np.int32).repeat(slot_len),
        "step": np.array(step, dtype=np.int32).repeat(slot_len),
    }


def apply_change(pattern: EventPattern, change: PatternChange) -> EventPattern:
    if change.kind == "shift":
        return shift_pattern(pattern, change.arg)
    if change.kind == "morph":
        return morph_pattern(pattern, *change.arg)
    return change.arg


def _parse_stop_rule(rule: str | None) -> tuple[float, int]:
    """(phase, periods): stop once `periods` periods in a row end in `phase` or
    above; phase_ge:N is (N, 1) with N <= 3, the last phase, phase3_stable:N
    is (3, N) with N >= 1, no rule never stops."""
    if rule is None:
        return inf, 1
    kind, _, arg = rule.partition(":")
    if kind not in ("phase_ge", "phase3_stable") or not (arg == "" or arg.isdigit()):
        raise ValueError(
            f"unknown stop rule {rule!r}; valid: phase_ge[:N], phase3_stable[:N]"
        )
    if kind == "phase_ge":
        if int(arg or 2) > 3:  # no policy passes phase 3: it would never stop
            raise ValueError(f"stop rule {rule!r} needs N <= 3, the last phase")
        return int(arg or 2), 1
    periods = int(arg or 5)
    if periods < 1:  # a streak of 0 periods would stop after any period
        raise ValueError(f"stop rule {rule!r} needs N >= 1 periods")
    return 3, periods


def _segment_periods(config: SimConfig, policy: BasePolicy, store: AbstractStore):
    """(period, segment, events) for each period of the run, the segment's
    entry slots being the learner slots where its peaks start
    (`peak_start_slots`), or none without forcing.  Each non-empty
    segment's world is built once, at its start, where the learning
    policy's entry-level hint is set too."""
    segments = config.segments()
    ends = [min(start, config.n_periods) for start, _, _ in segments[1:]] + [config.n_periods]
    for (start, pattern, level), end in zip(segments, ends):
        if start >= end:
            continue
        source = make_source(config, pattern)
        # streams keyed by the pattern: a returning pattern replays its events
        name = "trace" if pattern == config.pattern else f"trace:{pattern_id(pattern)}"
        bits = sample_trace(pattern, config.seed, end - start, stream_name=name,
                            repeat_first_period=config.repeat_first_period).occurrences.tobytes()
        if isinstance(policy, SmartOnPolicy):
            policy.entry_level_hint = level
        entry_slots, entry_value = (), None
        if level is not None and config.policy in FORCED_POLICIES:
            entry_slots = peak_start_slots(pattern, config.learner.state_duration)
            entry_value = entry_level_energy(level, quanta(config.capacity, config.quantum),
                                             config.learner.k_levels)
        segment = Segment.of(source, store, config.pattern.period_ticks,
                             config.learner.state_duration, entry_slots, entry_value,
                             config.record_level == "per-tick")
        ticks = pattern.period_ticks
        for p in range(start, end):
            yield p, segment, bits[(p - start) * ticks : (p - start + 1) * ticks]


def run_experiment(config: SimConfig) -> ExperimentResult:
    """Run a full multi-period experiment per the config."""
    store = make_store(config)
    policy = make_policy(config)

    if config.n_periods <= 0:
        return ExperimentResult(config, [], episodes=[], phase1_stays=[], tables={},
                                policy=policy)

    if config.initial_stored > 0.0:
        store.stored = min(quanta(config.initial_stored, store.wake), store.capacity)
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
    for p, segment, events in _segment_periods(config, policy, store):
        periods.append(run_period(policy, store, segment, events, p))
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

    events = sample_trace(pattern, config.seed, 1, repeat_first_period=True).occurrences.tobytes()
    entry_slots = peak_start_slots(pattern, slot_len)
    if len(pattern.peaks) != 1:
        raise ValueError("partition studies use single-peak patterns")
    shape_expected = None

    target_idx = 0
    first_at = None
    segment = Segment.of(source, store, pattern.period_ticks, slot_len, entry_slots)
    segments = {level: replace(segment, entry_value=entry_level_energy(level, store.capacity, k))
                for level in order}

    for p in range(PARTITION_MAX_PERIODS):
        level = order[target_idx]
        policy.entry_level_hint = level
        run_period(policy, store, segments[level], events, p)
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
