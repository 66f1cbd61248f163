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
from dataclasses import dataclass
from functools import cache

import numpy as np

from .energy import WAKE_COST

DEFAULT_FREQUENCIES = (0.0, 0.2, 0.5, 1.0)


class EmptyPeak(Exception):
    """All slot counts in a candidate peak sat at the noise floor."""


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
    noise_floor: float = 0.0
    probe_budget: int = 2
    probe_trigger: int = 1
    peak_max_duration: int = 120

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0 <= self.gamma < 1:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.k_levels < 2:
            raise ValueError(f"need at least 2 energy levels, got {self.k_levels}")
        if self.state_duration <= 0:
            raise ValueError(f"state_duration must be positive, got {self.state_duration}")
        freqs = tuple(self.frequencies)
        if list(freqs) != sorted(freqs) or len(set(freqs)) != len(freqs):
            raise ValueError(f"frequencies must be strictly increasing, got {freqs}")
        if freqs[0] != 0.0:
            raise ValueError("the action set must include frequency 0 (never awake)")
        if freqs[-1] > 1.0:
            # one wake-up per tick at most: faster rates would repeat offsets
            raise ValueError(f"frequencies must not exceed 1 Hz, got {freqs[-1]}")
        if self.convergence_scope not in ("entry_row", "touched"):
            raise ValueError(f"unknown convergence scope {self.convergence_scope!r}")
        # below these bounds a window or budget would silently act as another value
        if self.convergence_window < 1:
            raise ValueError(f"need convergence_window >= 1, got {self.convergence_window}")
        if self.profile_window < 1:
            raise ValueError(f"need profile_window >= 1, got {self.profile_window}")
        if self.probe_budget < 0:
            raise ValueError(f"need probe_budget >= 0, got {self.probe_budget}")

    @property
    def n_actions(self) -> int:
        return len(self.frequencies)

    @property
    def f_max(self) -> float:
        return self.frequencies[-1]

    @property
    def f_probe(self) -> float:
        """Lowest nonzero frequency; probes wake at this rate."""
        return next(f for f in self.frequencies if f > 0)

    @property
    def max_step_reward(self) -> float:
        return self.state_duration * self.reward_catch

    @property
    def q_bound(self) -> float:
        return self.max_step_reward / (1.0 - self.gamma)


@cache
def wake_offsets(freq: float, duration: int) -> tuple[int, ...]:
    """Tick offsets within a slot for an evenly spread wake-up frequency;
    strictly increasing for frequencies up to 1 Hz.  Memoised: the learner
    asks for the same few schedules at every slot."""
    if freq <= 0:
        return ()
    n = round(freq * duration)
    offsets = tuple(math.floor(k / freq) for k in range(n))
    if offsets and offsets[-1] >= duration:
        raise ValueError(f"frequency {freq} does not fit duration {duration}")
    return offsets


@cache
def schedule_cost(freq: float, duration: int) -> float:
    return len(wake_offsets(freq, duration)) * WAKE_COST


class SlotProfile:
    """Per-slot catch counters for one Phase-1 stay.

    One *run* visits every slot exactly once (possibly over several passes);
    completed runs are snapshotted into ``history`` and the slate cleared for
    the next run.
    """

    def __init__(self, n_slots: int):
        self.n_slots = n_slots
        self.counts = np.zeros(n_slots, dtype=np.int64)
        self.visited = np.zeros(n_slots, dtype=bool)
        self.passes = 0
        self.history: list[np.ndarray] = []

    def record_slot(self, slot: int, catches: int) -> None:
        if self.visited[slot]:
            raise ValueError(f"slot {slot} already visited in this run")
        self.counts[slot] = catches
        self.visited[slot] = True

    def run_complete(self) -> bool:
        return bool(self.visited.all())

    def next_unvisited(self, slot: int) -> int:
        """The first unvisited slot at or after `slot`, else `n_slots`."""
        i = self.visited.tobytes().find(0, slot)
        return self.n_slots if i < 0 else i

    def finish_run(self) -> None:
        """Snapshot the completed profile and start a fresh run."""
        if not self.run_complete():
            raise ValueError("cannot finish an incomplete profiling run")
        self.history.append(self.counts.copy())
        self.counts = np.zeros(self.n_slots, dtype=np.int64)
        self.visited = np.zeros(self.n_slots, dtype=bool)


def _counts_stable(a: np.ndarray, b: np.ndarray, cfg: LearnerConfig) -> bool:
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
    if arr.size == 0 or peak_max <= cfg.noise_floor:
        raise EmptyPeak(f"no events above noise floor in counts {list(counts)}")
    threshold = cfg.shape_theta * peak_max
    return "".join("H" if c >= threshold else "L" for c in arr)


def find_peaks(counts, cfg: LearnerConfig) -> list[tuple[int, str]]:
    """Contiguous runs of slots with counts above the noise floor.

    Returns (start_slot, shape_key) per peak; runs longer than the peak-step
    cap are split into cap-sized chunks.
    """
    arr = np.asarray(counts)
    cap = max(1, cfg.peak_max_duration // cfg.state_duration)
    peaks: list[tuple[int, str]] = []
    start = None
    for i in range(len(arr) + 1):
        inside = i < len(arr) and arr[i] > cfg.noise_floor
        if inside and start is None:
            start = i
        elif not inside and start is not None:
            for chunk in range(start, i, cap):
                end = min(chunk + cap, i)
                try:
                    peaks.append((chunk, classify_shape(arr[chunk:end], cfg)))
                except EmptyPeak:
                    pass
            start = None
    return peaks


class QTable:
    """State-action values for one peak shape, with per-entry-level
    convergence bookkeeping."""

    def __init__(self, shape: str, k_levels: int, t_steps: int, n_actions: int):
        self.shape = shape
        self.k = k_levels
        self.t = t_steps
        self.n = n_actions
        self.values = np.zeros((k_levels * t_steps, n_actions))
        self.touched = np.zeros((k_levels * t_steps, n_actions), dtype=bool)
        # per entry level: max |dQ| of each completed episode entered there
        self.episode_changes: dict[int, list[float]] = {}
        self.episodes_at_level: dict[int, int] = {}
        self.entry_affordable: dict[int, set] = {}  # actions affordable at entry
        self.first_entered: list[int] = []  # levels in first-entry order
        self.converged_levels: set[int] = set()
        self.episodes_to_converge: dict[int, int] = {}

    def get_state(self, level: int, step: int) -> int:
        return get_state(level, step, self.k, self.t)

    def row(self, level: int, step: int) -> np.ndarray:
        return self.values[self.get_state(level, step)]

    def record_episode(
        self, entry_level: int, max_change: float, entry_affordable=()
    ) -> None:
        if entry_level not in self.episode_changes:
            self.episode_changes[entry_level] = []
            self.first_entered.append(entry_level)
        self.episode_changes[entry_level].append(max_change)
        self.episodes_at_level[entry_level] = (
            self.episodes_at_level.get(entry_level, 0) + 1
        )
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
    could actually fund at the next step.  An energy level spans a range of
    stored energy, so without the mask the max borrows value from actions
    the just-executed path can no longer afford, and low-entry policies
    degenerate into spend-first behavior."""
    if next_state is None:
        bootstrap = 0.0
    elif next_affordable is None:
        bootstrap = float(table.values[next_state].max())
    else:
        bootstrap = max(float(table.values[next_state, a]) for a in next_affordable)
    old = table.values[state, action]
    new = (1.0 - cfg.alpha) * old + cfg.alpha * (reward + cfg.gamma * bootstrap)
    table.values[state, action] = new
    table.touched[state, action] = True
    if not abs(new) <= cfg.q_bound + 1e-9:
        raise RuntimeError(f"Q value {new} escaped bound {cfg.q_bound}")
    return abs(new - old)


def affordable_actions(cfg: LearnerConfig, stored: float) -> list[int]:
    """Actions whose full-step schedule the store can fund right now."""
    return [
        i
        for i, f in enumerate(cfg.frequencies)
        if schedule_cost(f, cfg.state_duration) <= stored + 1e-9
    ]


def choose_action(table: QTable, state: int, phase: int, affordable, stream) -> int:
    """Phase-2: uniform over affordable actions.  Phase-3: affordable argmax,
    ties broken toward the lower frequency."""
    if phase == 2:
        return stream.choice(list(affordable))
    if phase == 3:
        best = affordable[0]
        for a in affordable[1:]:
            if table.values[state, a] > table.values[state, best]:
                best = a
        return best
    raise ValueError(f"no action policy for phase {phase}")


def partition_converged(
    table: QTable, entry_level: int, cfg: LearnerConfig, min_episodes: int | None = None
) -> bool:
    """True when the last convergence_window episodes entered at entry_level
    each kept their tracked updates within convergence_epsilon, after at
    least `min_episodes` episodes at that level (defaults to window *
    |actions affordable at the level midpoint|, a floor that guarantees the
    entry row's actions were each explored several times)."""
    changes = table.episode_changes.get(entry_level, [])
    if min_episodes is None:
        # two windows per action affordable at this entry: random exploration
        # then needs ~2*window visits per first-step action before the entry
        # row can latch, which keeps the downstream rows it bootstraps from
        # out of their cold-start regime
        n_affordable = len(table.entry_affordable.get(entry_level, cfg.frequencies))
        min_episodes = 2 * cfg.convergence_window * n_affordable
    if len(changes) < max(cfg.convergence_window, min_episodes):
        return False
    return all(c <= cfg.convergence_epsilon for c in changes[-cfg.convergence_window:])


def probe_plan(n_slots: int, known_peak_slots, budget: int, stream) -> set[int]:
    """Up to `budget` probe slots drawn uniformly from outside known peaks."""
    candidates = [s for s in range(n_slots) if s not in known_peak_slots]
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


@dataclass(frozen=True)
class ProbeQuiet:
    pass


class PhaseContext:
    """Owns the learner's phase, profile, tables and peak knowledge for one run."""

    def __init__(self, cfg: LearnerConfig, n_slots: int):
        self.cfg = cfg
        self.n_slots = n_slots
        self.phase = 1
        self.profile = SlotProfile(n_slots)
        self.tables: dict[str, QTable] = {}
        self.known_peaks: tuple[LearnedPeak, ...] = ()
        self.phase1_passes = 0
        self.profiles_completed = 0
        self.phase1_entries = 1
        self.phase2_episodes = 0

    def table_for(self, shape: str) -> QTable:
        """The shape's table, zero-initialized on first encounter."""
        if shape not in self.tables:
            self.tables[shape] = QTable(
                shape, self.cfg.k_levels, len(shape), self.cfg.n_actions
            )
        return self.tables[shape]

    def peak_slot_set(self) -> set[int]:
        slots: set[int] = set()
        for p in self.known_peaks:
            slots.update(range(p.start_slot, p.end_slot))
        return slots


def phase_transition(ctx: PhaseContext, observation) -> PhaseContext:
    """Apply one phase observation; mutates and returns ctx.

    P1 -> P3 when every profiled shape already has a table converged at the
    current entry level (covers positional drift); P1 -> P2 otherwise;
    P2 -> P3 on partition convergence; P3 -> P1 on a probe catch at or above
    the trigger.
    """
    cfg = ctx.cfg
    if ctx.phase == 1 and isinstance(observation, ProfileConverged):
        ctx.known_peaks = tuple(observation.peaks)
        level = observation.entry_level_hint
        all_known = all(
            p.shape in ctx.tables and level in ctx.tables[p.shape].converged_levels
            for p in observation.peaks
        )
        ctx.phase = 3 if all_known and observation.peaks else 2
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
    if ctx.phase == 3 and isinstance(observation, ProbeQuiet):
        return ctx
    raise InvalidTransition(
        f"phase {ctx.phase} cannot accept {type(observation).__name__}"
    )


# ---------------------------------------------------------------------------
# Serialization: header + one row per (level, step), 6-decimal values
# ---------------------------------------------------------------------------

def save_qtable(table: QTable, path, cfg: LearnerConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"shape={table.shape} k={table.k} t={table.t} n={table.n} "
            f"alpha={cfg.alpha:.6f} gamma={cfg.gamma:.6f}\n"
        )
        for level in range(1, table.k + 1):
            for step in range(1, table.t + 1):
                row = table.values[table.get_state(level, step)]
                cells = " ".join(f"{v:.6f}" for v in row)
                fh.write(f"{level} {step} {cells}\n")


def load_qtable(path) -> tuple[QTable, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        meta = dict(kv.split("=", 1) for kv in header)
        table = QTable(meta["shape"], int(meta["k"]), int(meta["t"]), int(meta["n"]))
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            level, step = int(parts[0]), int(parts[1])
            values = [float(v) for v in parts[2:]]
            table.values[table.get_state(level, step)] = values
    params = {"alpha": float(meta["alpha"]), "gamma": float(meta["gamma"])}
    return table, params
