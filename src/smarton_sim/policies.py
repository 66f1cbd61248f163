"""Wake-up policies: GT and CTID baselines, CTIDpro, and the learning policy.

The learning policy and CTIDpro are slot-planned: at each slot boundary they
return a tuple of wake offsets within the slot, or the ``BURST`` marker for
CTIDpro's greedy drain-until-empty (harvest paused), which spans the run of
`known_slots` it starts, up to the next entry slot.  They also look ahead
(`next_active_slot`): the slots before the next one that can act -- an
unvisited profile slot, a learned peak, a probe slot -- plan nothing, so the
kernel banks them as one idle run without calling the hooks, as it does a
profile slot whose start holds less than `full_floor`.  Both profile and
probe through one base class, `_Profiling`, and a profile with no peaks
leaves them exploiting nothing and probing.  GT and CTID plan nothing: the
engine's kernel runs them in closed form and as a charge/discharge advance
whose mode flips fall on any tick, and this module only holds their
configuration and carried state.

GT is an oracle: it is awake at every tick and draws no energy, but its
efficiency metric still prices every awake tick at one wake cost.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .energy import WAKE_COST, quanta, quantize, require_finite
from .learner import (
    LearnedPeak,
    LearnerConfig,
    PartitionConvergedObs,
    PhaseContext,
    ProbeCaught,
    ProfileConverged,
    QTable,
    SlotProfile,
    affordable_actions,
    choose_action,
    find_peaks,
    partition_converged,
    probe_plan,
    profile_converged,
    phase_transition,
    q_update,
    reward_from_counts,
    wake_offsets,
)
from .rng import Stream

BURST = "burst"


@dataclass(frozen=True)
class CtidConfig:
    """Charge-then-immediately-discharge thresholds, in wake-cost units."""

    e_on: float = 30.0
    e_off: float = 0.0
    discharge_frequency: float = 1.0

    def __post_init__(self):
        require_finite(self, "e_on", "e_off", "discharge_frequency")
        if not self.e_off < self.e_on:
            raise ValueError(f"need e_off < e_on, got {self.e_off} >= {self.e_on}")
        if self.e_on < WAKE_COST:
            # a discharge could not fund its first wake-up, so the cycle would
            # flip straight back and never harvest again
            raise ValueError(f"need e_on >= one wake cost {WAKE_COST}, got {self.e_on}")
        if self.e_off < 0:
            raise ValueError(f"e_off must be nonnegative, got {self.e_off}")
        # one wake-up per tick at most, as for the learner's frequencies
        if not 0 < self.discharge_frequency <= 1:
            raise ValueError(f"need 0 < discharge_frequency <= 1, got {self.discharge_frequency}")

    @property
    def wake_interval(self) -> int:
        """Ticks between discharge wake-ups."""
        return max(1, round(1.0 / self.discharge_frequency))


class BasePolicy:
    name = "base"
    draws_energy = True
    current_phase = 0  # 0 = not a phased policy
    current_step = 0
    episode_memo = None  # a dict while `episode_at` names episodes to replay

    def on_period_start(self, period: int) -> None:
        pass

    def next_active_slot(self, slot: int) -> int:
        """The first slot at or after `slot` whose `plan_slot` or
        `on_slot_end` can act, or the period's slot count when none is left.
        The kernel banks the slots before it without calling either hook."""
        return slot

    def episode_at(self, slot: int, stored: int):
        """The peak whose episode starts at `slot`, or None; asked while
        `episode_memo` is set, when episodes are pure functions of their start."""
        return None

    def plan_slot(self, slot: int, stored: int):
        """Wake offsets within the slot, or BURST, given the quanta `stored`
        at the slot start."""
        return ()

    def on_slot_end(self, slot: int, awake: int, catches: int, stored: int) -> None:
        """The slot's awake ticks and catches, and the quanta `stored` at its
        end."""

    def on_period_end(self, period: int) -> None:
        pass


class GtPolicy(BasePolicy):
    """Ground-truth oracle: awake everywhere, catches everything.  The
    kernel keeps its periods in `periods` by (stored quanta, inflow), as
    for `CtidPolicy`."""

    name = "gt"
    draws_energy = False

    def __init__(self):
        self.periods = {}


class CtidPolicy(BasePolicy):
    """Charge to e_on, then discharge at the configured frequency until the
    store cannot fund another wake-up (or falls to e_off).  Oblivious to
    events; harvesting is suspended while discharging.  The engine kernel
    runs the cycle and keeps its mode here between periods, and its
    thresholds in quanta, `wake` of them to a wake-up.  Under a constant
    source the kernel keeps each period here, in `periods`, by (stored
    quanta, `discharging`, `discharge_start`, inflow), with its per-tick
    arrays once built: bounded by the run's output, at most one array set
    per period run, of which each log owns a copy."""

    name = "ctid"

    def __init__(self, cfg: CtidConfig, wake: int = 1):
        self.cfg = cfg
        self.e_on = quanta(cfg.e_on, wake)
        self.e_off = quanta(cfg.e_off, wake)
        self.discharging = False
        # wake-ups fall on ticks t with (t - discharge_start) % wake_interval
        # == 0, t counted from the running period's start
        self.discharge_start = 0
        self.periods = {}


class _Profiling(BasePolicy):
    """Phase-1 profiling and Phase-3 probing of the learning policy and
    CTIDpro, keyed on `current_phase`: 1 while profiling, 3 while exploiting.
    It is a plain attribute, set where the phase changes.

    Profiling wakes at the top frequency in each unvisited slot whose whole
    schedule the store can fund, until consecutive runs agree; `_exploit`
    then takes the peaks, if any.  A period that starts in phase 3 probes
    slots outside `known_slots` at the lowest nonzero frequency, drawn from
    a tuple of those slots built once per change of `known_slots`; and
    `probe_trigger` or more catches there call `_reprofile` at its end.
    Subclasses provide `profile`, `known_slots`, `_exploit_starts`,
    `_exploit` and `_reprofile`, and define the engine hooks themselves.
    Stored energy is in quanta, `wake` of them to a wake-up."""

    _episode: _Episode | None = None  # the learning policy's open episode

    def __init__(self, cfg: LearnerConfig, n_slots: int, seed: int, wake: int = 1):
        self.cfg = cfg
        self.wake = wake
        self.n_slots = n_slots
        self.current_phase = 1
        self.probe_stream = Stream(seed, "probe")
        # one schedule per frequency; the frequencies start at 0, so the
        # second is the probes' and the last the profiling schedule
        self._plans = tuple(wake_offsets(f, cfg.state_duration) for f in cfg.frequencies)
        self.full_offsets, self.probe_offsets = self._plans[-1], self._plans[1]
        # the least stored energy that funds a whole profiling or probe slot
        self.full_floor = len(self.full_offsets) * wake
        self.probe_floor = len(self.probe_offsets) * wake
        self._profiling_slot: int | None = None
        self._probe_slots: set[int] = set()
        self._probe_catches = 0
        self._active_slots: tuple[int, ...] = ()  # exploit starts and probe slots
        # the slots outside `known_slots`; set to None where those change
        self._probe_candidates: tuple[int, ...] | None = None

    def _refresh_active_slots(self) -> None:
        self._active_slots = tuple(sorted(self._exploit_starts() | self._probe_slots))

    def _draw_probes(self) -> None:
        """This period's probe slots, at its start: drawn in phase 3 only.
        `_active_slots` is rebuilt in phase 3 and where the probes leave it."""
        self._probe_catches = 0
        if self.current_phase == 3:
            if self._probe_candidates is None:
                known = self.known_slots
                self._probe_candidates = tuple(s for s in range(self.n_slots) if s not in known)
            self._probe_slots = probe_plan(self._probe_candidates, self.cfg.probe_budget,
                                           self.probe_stream)
        elif self._probe_slots:
            self._probe_slots = set()
        else:
            return
        self._refresh_active_slots()

    def next_active_slot(self, slot: int) -> int:
        # every slot of an episode plans; while profiling only unvisited
        # slots plan anything; otherwise the slots where exploiting begins
        # and this period's probe slots
        if self._episode is not None:
            return slot
        if self.current_phase == 1:
            return self.profile.next_unvisited(slot)
        active = self._active_slots
        i = bisect_left(active, slot)
        return active[i] if i < len(active) else self.n_slots

    def _plan_profile(self, slot: int, stored: int):
        fund = not self.profile.visited[slot] and stored >= self.full_floor
        plan = self.full_offsets if fund else ()
        self._profiling_slot = slot if plan else None
        return plan

    def _plan_probe(self, slot: int, stored: int):
        if slot in self._probe_slots and stored >= self.probe_floor:
            return self.probe_offsets
        return ()

    def _profile_slot_end(self, slot: int, catches: int, stored: int) -> None:
        if self._profiling_slot == slot:
            self.profile.record_slot(slot, catches)
            self._profiling_slot = None
            if self.profile.run_complete():
                self._finish_profile_run(stored)

    def _finish_profile_run(self, stored: int) -> None:
        profile = self.profile
        if profile_converged(profile, self.cfg):
            peaks = find_peaks(profile.counts, self.cfg)
            self._exploit(tuple(LearnedPeak(start, shape) for start, shape in peaks), stored)
        else:
            profile.finish_run()

    def _probe_slot_end(self, slot: int, catches: int) -> None:
        if slot in self._probe_slots:
            self._probe_catches += catches

    def _end_probing(self) -> None:
        """At the period end: re-profile on enough probe catches."""
        if self.current_phase == 3 and self._probe_catches >= self.cfg.probe_trigger:
            self._reprofile()


@dataclass(slots=True)
class _Episode:
    """One Q-learning episode over a learned peak.  `state` and `affordable`
    belong to the step at `slot`: found when the step before it ended, or at
    entry, for the store `at`, and found again when the store differs as the
    step is planned."""

    table: QTable
    entry_level: int
    entry_affordable: tuple[int, ...]
    slot: int
    n_steps: int
    at: int
    state: int
    affordable: tuple[int, ...]
    step: int = 1
    action: int = 0  # the action planned for the running step
    reward: float = 0.0
    actions: list[int] = field(default_factory=list)
    # (state, action, reward, next state, next affordable) of each phase-2 step
    transitions: list[tuple] = field(default_factory=list)


class SmartOnPolicy(_Profiling):
    """The three-phase learner bound to one run.  Its open episode is one
    `_Episode`, whose steps `_plan_episode_action` plans and
    `_finish_episode_step` finishes; the actions a store can fund are one
    bisect of the funding floors fixed at construction."""

    name = "smarton"

    def __init__(self, cfg: LearnerConfig, n_slots: int, seed: int, capacity: int,
                 wake: int = 1):
        super().__init__(cfg, n_slots, seed, wake)
        self.capacity = capacity  # in quanta
        # the least stored energy that funds each action's schedule, and the
        # actions a store at each of these floors can fund
        self._floors = tuple(len(plan) * wake for plan in self._plans)
        self._affordable_at = tuple(affordable_actions(cfg, len(plan)) for plan in self._plans)
        self.ctx = PhaseContext(cfg, n_slots)
        self.explore = Stream(seed, "explore")
        # the forced entry level of the running segment, if any
        self.entry_level_hint = None
        # convergence studies keep exploring after partitions converge; the
        # exploitation gate is then read off the latch bookkeeping instead
        self.explore_forever = False
        # episode state
        self._phase_at_period_start = 1
        self._last_entry_level: dict[str, int] = {}
        self.episodes: list[dict] = []
        self.phase1_stays: list[dict] = [{"entry": 1, "passes": 0, "profiles": 0}]
        self._peak_starts: dict[int, LearnedPeak] = {}

    # -- helpers -----------------------------------------------------------

    @property
    def profile(self) -> SlotProfile:
        return self.ctx.profile

    @property
    def known_slots(self) -> set[int]:
        return {s for p in self.ctx.known_peaks for s in range(p.start_slot, p.end_slot)}

    def _exploit_starts(self):
        return self._peak_starts.keys()

    def _quantize(self, stored: int) -> int:
        return quantize(stored, self.capacity, self.cfg.k_levels)

    def _affordable(self, stored: int) -> tuple[int, ...]:
        return self._affordable_at[bisect_right(self._floors, stored) - 1]

    def _refresh_peaks(self) -> None:
        self._peak_starts = {p.start_slot: p for p in self.ctx.known_peaks}
        self._probe_candidates = None
        self._refresh_active_slots()

    # -- engine hooks ------------------------------------------------------

    def on_period_start(self, period: int) -> None:
        self._phase_at_period_start = self.ctx.phase
        self._draw_probes()

    def _transition(self, observation) -> None:
        phase_transition(self.ctx, observation)
        self.current_phase = self.ctx.phase
        # phase 3 plans greedily on tables it never updates: an episode is a
        # pure function of peak, entry energy and inflow for the whole stay
        self.episode_memo = (self.episode_memo or {}) if self.ctx.phase == 3 else None

    def episode_at(self, slot: int, stored: int):
        peak = self._peak_starts.get(slot)
        if self._episode is not None or peak is None:
            return None
        # the one side effect of a replayed episode, as `_begin_episode` sets it
        self._last_entry_level[peak.shape] = self._quantize(stored)
        return peak

    def plan_slot(self, slot: int, stored: int):
        self.current_step = 0
        if self.ctx.phase == 1:
            return self._plan_profile(slot, stored)
        ep = self._episode
        if ep is None:
            peak = self._peak_starts.get(slot)
            if peak is None:
                return self._plan_probe(slot, stored)
            self._begin_episode(peak, stored)
        elif slot != ep.slot:
            raise RuntimeError(f"episode cursor lost: slot {slot}, expected {ep.slot}")
        return self._plan_episode_action(stored)

    def _begin_episode(self, peak: LearnedPeak, stored: int) -> None:
        table = self.ctx.table_for(peak.shape)
        entry_level = self._quantize(stored)
        affordable = self._affordable(stored)
        self._last_entry_level[peak.shape] = entry_level
        self._episode = _Episode(table, entry_level, affordable, peak.start_slot, peak.n_steps,
                                 stored, table.get_state(entry_level, 1), affordable)

    def _plan_episode_action(self, stored: int):
        """The running step's schedule, the one planner of episode steps."""
        ep = self._episode
        if stored != ep.at:  # entry forcing moved the store since the last step ended
            ep.at = stored
            ep.state = ep.table.get_state(self._quantize(stored), ep.step)
            ep.affordable = self._affordable(stored)
        action = ep.action = choose_action(ep.table, ep.state, self.ctx.phase, ep.affordable,
                                           self.explore)
        ep.actions.append(action)
        self.current_step = ep.step
        return self._plans[action]

    def on_slot_end(self, slot: int, awake: int, catches: int, stored: int) -> None:
        if self.ctx.phase == 1:
            self._profile_slot_end(slot, catches, stored)
        elif self._episode is not None:
            self._finish_episode_step(catches, awake, stored)
        else:
            self._probe_slot_end(slot, catches)

    def _finish_profile_run(self, stored: int) -> None:
        self.phase1_stays[-1]["profiles"] += 1
        self.ctx.profiles_completed += 1
        super()._finish_profile_run(stored)

    def _exploit(self, peaks: tuple[LearnedPeak, ...], stored: int) -> None:
        hint = self.entry_level_hint
        self._transition(ProfileConverged(peaks, self._quantize(stored) if hint is None else hint))
        self._refresh_peaks()

    def _finish_episode_step(self, catches: int, awake: int, stored: int) -> None:
        ep = self._episode
        state = ep.state
        reward = reward_from_counts(catches, awake, self.cfg)
        ep.reward += reward
        if ep.step < ep.n_steps:
            # the next step plans from these unless entry forcing moves the store
            ep.slot += 1
            ep.step += 1
            ep.at = stored
            next_state = ep.state = ep.table.get_state(self._quantize(stored), ep.step)
            next_affordable = ep.affordable = self._affordable(stored)
        else:
            next_state = next_affordable = None
        if self.ctx.phase == 2:
            ep.transitions.append((state, ep.action, reward, next_state, next_affordable))
        if next_state is None:
            self._complete_episode()

    def _apply_episode_updates(self, ep: _Episode) -> float:
        """Run the episode's Bellman updates in reverse step order so a value
        discovered at a late step reaches the entry row within the same
        episode; forward order would need one episode per propagation hop,
        which starves rarely explored low-energy paths.  Returns the largest
        tracked |dQ|."""
        cfg = self.cfg
        table = ep.table
        touched = cfg.convergence_scope == "touched"
        scope_row = table.get_state(ep.entry_level, 1)
        max_change = 0.0
        for state, action, reward, next_state, next_affordable in reversed(ep.transitions):
            dq = q_update(table, state, action, reward, next_state, cfg,
                          next_affordable=next_affordable)
            if dq > max_change and (touched or state == scope_row):
                max_change = dq
        return max_change

    def _complete_episode(self) -> None:
        ep = self._episode
        self._episode = None
        if self.ctx.phase != 2:
            return
        max_change = self._apply_episode_updates(ep)
        table = ep.table
        level = ep.entry_level
        table.record_episode(level, max_change, ep.entry_affordable)
        self.episodes.append(
            {
                "shape": table.shape,
                "entry_level": level,
                "actions": tuple(ep.actions),
                "reward": ep.reward,
                "max_change": max_change,
            }
        )
        newly = (
            level not in table.converged_levels
            and partition_converged(table, level, self.cfg)
        )
        if newly:
            table.converged_levels.add(level)
            table.episodes_to_converge[level] = len(table.episode_changes[level])
        if (
            newly
            and not self.explore_forever
            and self._all_current_partitions_converged()
        ):
            self._transition(PartitionConvergedObs(table.shape, level))

    def _all_current_partitions_converged(self) -> bool:
        for peak in self.ctx.known_peaks:
            table = self.ctx.tables.get(peak.shape)
            last = self._last_entry_level.get(peak.shape)
            if table is None or last is None or last not in table.converged_levels:
                return False
        return True

    def on_period_end(self, period: int) -> None:
        # a pass is one traversal of the period while profiling; count it
        # against the phase the period started in so a mid-period transition
        # still credits the completed pass
        if self._phase_at_period_start == 1:
            self.phase1_stays[-1]["passes"] += 1
        self._end_probing()

    def _reprofile(self) -> None:
        self._transition(ProbeCaught(self._probe_catches))
        self.phase1_stays.append({"entry": self.ctx.phase1_entries, "passes": 0, "profiles": 0})


class CtidProPolicy(_Profiling):
    """CTID plus Phase-1 profiling: banks energy outside profiled event slots
    and drains greedily at the top frequency inside them.  No value learning;
    probing re-triggers profiling, as for the learning policy."""

    name = "ctidpro"

    def __init__(self, cfg: LearnerConfig, n_slots: int, seed: int, wake: int = 1):
        super().__init__(cfg, n_slots, seed, wake)
        self.profile = SlotProfile(n_slots)
        self.known_slots: set[int] = set()

    def _exploit_starts(self):
        return self.known_slots

    def on_period_start(self, period: int) -> None:
        self._draw_probes()

    def plan_slot(self, slot: int, stored: int):
        if self.current_phase == 1:
            return self._plan_profile(slot, stored)
        if slot in self.known_slots:
            return BURST
        return self._plan_probe(slot, stored)

    def on_slot_end(self, slot: int, awake: int, catches: int, stored: int) -> None:
        if self.current_phase == 1:
            self._profile_slot_end(slot, catches, stored)
        else:
            self._probe_slot_end(slot, catches)

    def _exploit(self, peaks: tuple[LearnedPeak, ...], stored: int) -> None:
        self.known_slots = {s for p in peaks for s in range(p.start_slot, p.end_slot)}
        self.current_phase = 3
        self._probe_candidates = None
        self._refresh_active_slots()

    def on_period_end(self, period: int) -> None:
        self._end_probing()

    def _reprofile(self) -> None:
        self.profile = SlotProfile(self.n_slots)
        self.current_phase = 1
