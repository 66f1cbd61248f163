"""Three-phase duty-cycle learner: profiling, per-shape Q-learning, exploit/probe.

Phase-1 profiles the period slot by slot at the highest wake-up frequency,
skipping already-visited slots, until consecutive full profiles agree.
Phase-2 runs one Q-learning episode per event peak: the table is keyed by the
peak's H/L signature, states are (energy level, step) pairs, actions are
wake-up frequencies, and convergence is tracked separately per entry energy
level so a partition can be exploited before the rest of the table settles.
Phase-3 greedily exploits converged partitions and spends a small probe
budget outside known peaks to notice pattern changes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache

import numpy as np

from .energy import require_finite, require_integer

DEFAULT_FREQUENCIES = (0.0, 0.2, 0.5, 1.0)


class EmptyPeak(Exception):
    """All slot counts in a candidate peak were zero."""


class InvalidTransition(Exception):
    """A phase observation arrived that the current phase cannot accept."""


@dataclass
class LearnerConfig:
    alpha: float = 0.7
    gamma: float = 0.618
    reward_catch: float = 10.0
    reward_miss: float = -1.0
    k_levels: int = 4
    state_duration: int = 30
    frequencies: tuple[float, ...] = DEFAULT_FREQUENCIES
    # Q convergence: an entry partition is converged when its tracked updates
    # stayed within convergence_epsilon for convergence_window consecutive
    # episodes entered at that level, with at least window * |affordable
    # actions| episodes total so the latch cannot fire before exploration
    # reaches the downstream rows.  Scope "entry_row" tracks the entry
    # state's own row (whose forced-entry rewards and bootstrap masks are
    # stationary); "touched" tracks every entry updated in the episode
    # (deep rows reached through different energy paths see different
    # affordability masks, so their targets legitimately oscillate and the
    # touched scope may latch very late).
    convergence_epsilon: float = 3.0
    convergence_window: int = 5
    convergence_scope: str = "entry_row"
    # Profiling convergence: consecutive full profiles must agree per slot
    # within abs or relative tolerance.
    profile_window: int = 2
    profile_tol_abs: float = 2.0
    profile_tol_rel: float = 0.25
    shape_theta: float = 0.5
    probe_budget: int = 2
    probe_trigger: int = 1
    peak_max_duration: int = 120

    def __post_init__(self):
        require_finite(self, "reward_catch", "reward_miss", "convergence_epsilon",
                       "profile_tol_abs", "profile_tol_rel", "shape_theta")
        require_integer(self, "k_levels", "state_duration", "convergence_window",
                        "profile_window", "probe_budget", "probe_trigger", "peak_max_duration")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0 <= self.gamma < 1:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.k_levels < 2:
            raise ValueError(f"need at least 2 energy levels, got {self.k_levels}")
        if self.state_duration <= 0:
            raise ValueError(f"state_duration must be positive, got {self.state_duration}")
        freqs = tuple(self.frequencies)
        if not all(map(math.isfinite, freqs)):
            raise ValueError(f"frequencies must be finite, got {freqs}")
        if list(freqs) != sorted(freqs) or len(set(freqs)) != len(freqs):
            raise ValueError(f"frequencies must be strictly increasing, got {freqs}")
        if freqs[0] != 0.0:
            raise ValueError("the action set must include frequency 0 (never awake)")
        if len(freqs) < 2:  # profiling and probes need a nonzero rate
            raise ValueError("frequencies need a nonzero frequency besides 0")
        if freqs[-1] > 1.0:
            # one wake-up per tick at most: faster rates would repeat offsets
            raise ValueError(f"frequencies must not exceed 1 Hz, got {freqs[-1]}")
        for f in freqs[1:]:
            # a rate that wakes no tick in a slot would profile nothing, forever
            if round(f * self.state_duration) == 0:
                raise ValueError(
                    f"frequencies: {f} wakes no tick in a {self.state_duration}-tick slot"
                )
        if self.convergence_scope not in ("entry_row", "touched"):
            raise ValueError(f"unknown convergence scope {self.convergence_scope!r}")
        # below these bounds a window or budget would silently act as another value
        if self.convergence_window < 1:
            raise ValueError(f"need convergence_window >= 1, got {self.convergence_window}")
        if self.profile_window < 1:
            raise ValueError(f"need profile_window >= 1, got {self.profile_window}")
        if self.probe_budget < 0:
            raise ValueError(f"need probe_budget >= 0, got {self.probe_budget}")
        if self.probe_trigger < 1:  # 0 would re-profile after every probing period
            raise ValueError(f"need probe_trigger >= 1, got {self.probe_trigger}")

    @property
    def n_actions(self) -> int:
        return len(self.frequencies)

    @property
    def max_step_reward(self) -> float:
        return self.state_duration * self.reward_catch

    @property
    def q_bound(self) -> float:
        return self.max_step_reward / (1.0 - self.gamma)


@cache
def wake_offsets(freq: float, duration: int) -> tuple[int, ...]:
    """Tick offsets within a slot for an evenly spread wake-up frequency;
    strictly increasing for frequencies up to 1 Hz.  Memoised: each learning
    policy builds its plans here once, so the runs of a process share one
    tuple per schedule."""
    if freq <= 0:
        return ()
    n = round(freq * duration)
    offsets = tuple(math.floor(k / freq) for k in range(n))
    if offsets and offsets[-1] >= duration:
        raise ValueError(f"frequency {freq} does not fit duration {duration}")
    return offsets


@cache
def schedule_cost(freq: float, duration: int) -> int:
    """The wake-ups of one full step at `freq`."""
    return len(wake_offsets(freq, duration))


class SlotProfile:
    """Per-slot catch counters for one Phase-1 stay.

    One *run* visits every slot exactly once (possibly over several passes);
    completed runs are snapshotted into ``history`` and the slate cleared for
    the next run.  `counts` is a list of ints and `visited` a bytearray.
    """

    def __init__(self, n_slots: int):
        self.n_slots = n_slots
        self.counts = [0] * n_slots
        self.visited = bytearray(n_slots)
        self.history: list[list[int]] = []

    def record_slot(self, slot: int, catches: int) -> None:
        if self.visited[slot]:
            raise ValueError(f"slot {slot} already visited in this run")
        self.counts[slot] = catches
        self.visited[slot] = 1

    def run_complete(self) -> bool:
        return 0 not in self.visited

    def next_unvisited(self, slot: int) -> int:
        """The first unvisited slot at or after `slot`, else `n_slots`."""
        i = self.visited.find(0, slot)
        return self.n_slots if i < 0 else i

    def finish_run(self) -> None:
        """Snapshot the completed profile and start a fresh run."""
        if not self.run_complete():
            raise ValueError("cannot finish an incomplete profiling run")
        self.history.append(self.counts)
        self.counts = [0] * self.n_slots
        self.visited = bytearray(self.n_slots)


def _counts_stable(a, b, cfg: LearnerConfig) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    diff = np.abs(a.astype(float) - b.astype(float))
    rel_base = np.maximum(np.maximum(a, b), 1).astype(float)
    return bool(np.all((diff <= cfg.profile_tol_abs) | (diff / rel_base <= cfg.profile_tol_rel)))


def profile_converged(profile: SlotProfile, cfg: LearnerConfig) -> bool:
    """True when the just-completed run and its predecessors agree slot-wise.

    Evaluated with the current run's counts as the newest snapshot; needs
    ``profile_window`` total snapshots (current included) that are pairwise
    stable in sequence.
    """
    if not profile.run_complete():
        return False
    snapshots = profile.history[-(cfg.profile_window - 1):] + [profile.counts] \
        if cfg.profile_window > 1 else [profile.counts]
    if len(snapshots) < cfg.profile_window:
        return False
    return all(
        _counts_stable(a, b, cfg) for a, b in zip(snapshots, snapshots[1:])
    )


def classify_shape(counts, cfg: LearnerConfig) -> str:
    """H/L signature of a profiled peak: H where count >= theta * peak max."""
    arr = np.asarray(counts, dtype=float)
    peak_max = arr.max() if arr.size else 0.0
    if arr.size == 0 or peak_max <= 0.0:
        raise EmptyPeak(f"no events in counts {list(counts)}")
    threshold = cfg.shape_theta * peak_max
    return "".join("H" if c >= threshold else "L" for c in arr)


def find_peaks(counts, cfg: LearnerConfig) -> list[tuple[int, str]]:
    """Contiguous runs of slots with nonzero counts.

    Returns (start_slot, shape_key) per peak; runs longer than the peak-step
    cap are split into cap-sized chunks.
    """
    arr = np.asarray(counts)
    cap = max(1, cfg.peak_max_duration // cfg.state_duration)
    peaks: list[tuple[int, str]] = []
    start = None
    for i in range(len(arr) + 1):
        inside = i < len(arr) and arr[i] > 0
        if inside and start is None:
            start = i
        elif not inside and start is not None:
            for chunk in range(start, i, cap):
                end = min(chunk + cap, i)
                # a chunk of a run of positive counts: never an EmptyPeak
                peaks.append((chunk, classify_shape(arr[chunk:end], cfg)))
            start = None
    return peaks


class QTable:
    """State-action values for one peak shape, with per-entry-level
    convergence bookkeeping.  `values[state][action]` is a Python float, one
    list per (energy level, step) row: an update touches one cell."""

    def __init__(self, shape: str, k_levels: int, t_steps: int, n_actions: int):
        self.shape = shape
        self.k = k_levels
        self.t = t_steps
        self.n = n_actions
        self.values = [[0.0] * n_actions for _ in range(k_levels * t_steps)]
        # per entry level, in first-entry order: max |dQ| of each completed
        # episode entered there
        self.episode_changes: dict[int, list[float]] = {}
        self.entry_affordable: dict[int, set] = {}  # actions affordable at entry
        self.converged_levels: set[int] = set()
        self.episodes_to_converge: dict[int, int] = {}

    def get_state(self, level: int, step: int) -> int:
        return get_state(level, step, self.k, self.t)

    def record_episode(
        self, entry_level: int, max_change: float, entry_affordable=()
    ) -> None:
        self.episode_changes.setdefault(entry_level, []).append(max_change)
        self.entry_affordable.setdefault(entry_level, set()).update(entry_affordable)


def get_state(level: int, step: int, k_levels: int, t_steps: int) -> int:
    """Row index of (energy level, step), row-major by level."""
    if not 1 <= level <= k_levels:
        raise ValueError(f"level {level} outside 1..{k_levels}")
    if not 1 <= step <= t_steps:
        raise ValueError(f"step {step} outside 1..{t_steps}")
    return (level - 1) * t_steps + (step - 1)


def reward_from_counts(catches: int, awake: int, cfg: LearnerConfig) -> float:
    return catches * cfg.reward_catch + (awake - catches) * cfg.reward_miss


def q_update(
    table: QTable,
    state: int,
    action: int,
    reward: float,
    next_state: int | None,
    cfg: LearnerConfig,
    next_affordable=None,
) -> float:
    """One Bellman update; next_state None means the episode's terminal step
    (zero bootstrap).  Returns |dQ|.

    `next_affordable` restricts the bootstrap max to the actions the store
    could actually fund at the next step: the first actions, as
    `affordable_actions` gives them.  An energy level spans a range of
    stored energy, so without the mask the max borrows value from actions
    the just-executed path can no longer afford, and low-entry policies
    degenerate into spend-first behavior.  The cells are Python floats, and
    the update is the IEEE double arithmetic NumPy scalars would do."""
    values = table.values
    if next_state is None:
        bootstrap = 0.0
    elif next_affordable is None:
        bootstrap = max(values[next_state])
    else:
        bootstrap = max(values[next_state][: len(next_affordable)])
    row = values[state]
    old = row[action]
    new = (1.0 - cfg.alpha) * old + cfg.alpha * (reward + cfg.gamma * bootstrap)
    row[action] = new
    bound = cfg.state_duration * cfg.reward_catch / (1.0 - cfg.gamma)  # `cfg.q_bound`
    if not abs(new) <= bound + 1e-9:
        raise RuntimeError(f"Q value {new} escaped bound {bound}")
    return abs(new - old)


@cache
def _action_costs(frequencies: tuple[float, ...], duration: int):
    """Each action's full-step schedule cost, and the action prefixes."""
    costs = tuple(schedule_cost(f, duration) for f in frequencies)
    return costs, tuple(tuple(range(n)) for n in range(len(costs) + 1))


def affordable_actions(cfg: LearnerConfig, wakeups: int) -> tuple[int, ...]:
    """Actions whose full-step schedule a store that funds `wakeups` whole
    wake-ups can fund right now.  A schedule's cost never falls as the
    frequency rises, so these are the first actions up to the last cost
    within `wakeups`: a shared tuple."""
    costs, prefixes = _action_costs(tuple(cfg.frequencies), cfg.state_duration)
    return prefixes[bisect_right(costs, wakeups)]


def choose_action(table: QTable, state: int, phase: int, affordable, stream) -> int:
    """Phase-2: uniform over affordable actions.  Phase-3: affordable argmax,
    ties broken toward the lower frequency."""
    if phase == 2:
        return affordable[stream.next_below(len(affordable))]
    if phase == 3:
        # max keeps the first of equal values: the lowest such action
        return max(affordable, key=table.values[state].__getitem__)
    raise ValueError(f"no action policy for phase {phase}")


def partition_converged(table: QTable, entry_level: int, cfg: LearnerConfig) -> bool:
    """True when the last convergence_window episodes entered at entry_level
    each kept their tracked updates within convergence_epsilon, after at
    least 2 * window * |actions affordable at that entry| episodes at that
    level, a floor that guarantees the entry row's actions were each
    explored several times."""
    changes = table.episode_changes.get(entry_level, [])
    # two windows per action affordable at this entry: random exploration
    # then needs ~2*window visits per first-step action before the entry
    # row can latch, which keeps the downstream rows it bootstraps from
    # out of their cold-start regime
    n_affordable = len(table.entry_affordable.get(entry_level, cfg.frequencies))
    min_episodes = 2 * cfg.convergence_window * n_affordable
    if len(changes) < max(cfg.convergence_window, min_episodes):
        return False
    return all(c <= cfg.convergence_epsilon for c in changes[-cfg.convergence_window:])


def probe_plan(candidates: tuple[int, ...], budget: int, stream) -> set[int]:
    """Up to `budget` probe slots drawn uniformly from `candidates`, the
    slots outside known peaks, which the caller keeps between changes."""
    if budget <= 0 or not candidates:
        return set()
    return set(stream.sample_without_replacement(candidates, budget))


@dataclass(frozen=True)
class LearnedPeak:
    start_slot: int
    shape: str

    @property
    def n_steps(self) -> int:
        return len(self.shape)

    @property
    def end_slot(self) -> int:
        return self.start_slot + self.n_steps


# ---------------------------------------------------------------------------
# Phase machine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileConverged:
    peaks: tuple[LearnedPeak, ...]
    entry_level_hint: int


@dataclass(frozen=True)
class PartitionConvergedObs:
    shape: str
    entry_level: int


@dataclass(frozen=True)
class ProbeCaught:
    catches: int


class PhaseContext:
    """Owns the learner's phase, profile, tables and peak knowledge for one run."""

    def __init__(self, cfg: LearnerConfig, n_slots: int):
        self.cfg = cfg
        self.n_slots = n_slots
        self.phase = 1
        self.profile = SlotProfile(n_slots)
        self.tables: dict[str, QTable] = {}
        self.known_peaks: tuple[LearnedPeak, ...] = ()
        self.profiles_completed = 0
        self.phase1_entries = 1

    def table_for(self, shape: str) -> QTable:
        """The shape's table, zero-initialized on first encounter."""
        if shape not in self.tables:
            self.tables[shape] = QTable(
                shape, self.cfg.k_levels, len(shape), self.cfg.n_actions
            )
        return self.tables[shape]


def phase_transition(ctx: PhaseContext, observation) -> PhaseContext:
    """Apply one phase observation; mutates and returns ctx.

    P1 -> P3 when every profiled shape already has a table converged at the
    current entry level (covers positional drift), so also for a profile
    with no peaks, which exploits nothing and keeps probing; P1 -> P2
    otherwise; P2 -> P3 on partition convergence; P3 -> P1 on a probe catch
    at or above the trigger.
    """
    cfg = ctx.cfg
    if ctx.phase == 1 and isinstance(observation, ProfileConverged):
        ctx.known_peaks = tuple(observation.peaks)
        level = observation.entry_level_hint
        all_known = all(
            p.shape in ctx.tables and level in ctx.tables[p.shape].converged_levels
            for p in observation.peaks
        )
        ctx.phase = 3 if all_known else 2
        return ctx
    if ctx.phase == 2 and isinstance(observation, PartitionConvergedObs):
        ctx.phase = 3
        return ctx
    if ctx.phase == 3 and isinstance(observation, ProbeCaught):
        if observation.catches >= cfg.probe_trigger:
            ctx.phase = 1
            ctx.profile = SlotProfile(ctx.n_slots)
            ctx.phase1_entries += 1
        return ctx
    raise InvalidTransition(
        f"phase {ctx.phase} cannot accept {type(observation).__name__}"
    )
