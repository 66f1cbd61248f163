"""Wake-up policies: GT and CTID baselines, CTIDpro, and the learning policy.

The learning policy and CTIDpro are slot-planned: at each slot boundary they
return a tuple of wake offsets within the slot, or the ``BURST`` marker for a
greedy drain-until-empty slot (CTID-style discharge, harvest paused for the
whole slot).  They also look ahead (`next_active_slot`): the slots before the
next one that can act -- an unvisited profile slot, a learned peak, a probe
slot -- plan nothing, so the kernel banks them as one idle run without
calling the hooks.  GT and CTID plan nothing: the engine's kernel runs them in
closed form and as a charge/discharge advance whose mode flips fall on any
tick, and this module only holds their configuration and carried state.

GT is an oracle: it is awake at every tick and draws no energy, but its
efficiency metric still prices every awake tick at one wake cost.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .energy import WAKE_COST, DRAW_SLACK, quantize
from .learner import (
    LearnedPeak,
    LearnerConfig,
    PartitionConvergedObs,
    PhaseContext,
    ProbeCaught,
    ProbeQuiet,
    ProfileConverged,
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
    schedule_cost,
    wake_offsets,
)
from .rng import Stream

BURST = "burst"


@dataclass
class CtidConfig:
    """Charge-then-immediately-discharge thresholds, in wake-cost units."""

    e_on: float = 30.0
    e_off: float = 0.0
    discharge_frequency: float = 1.0

    def __post_init__(self):
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

    def on_period_start(self, period: int) -> None:
        pass

    def next_active_slot(self, slot: int) -> int:
        """The first slot at or after `slot` whose `plan_slot` or
        `on_slot_end` can act, or the period's slot count when none is left.
        The kernel banks the slots before it without calling either hook."""
        return slot

    def plan_slot(self, slot: int, stored: float):
        """Wake offsets within the slot, or BURST, given the energy `stored`
        at the slot start."""
        return ()

    def on_slot_end(self, slot: int, awake: int, catches: int, stored: float) -> None:
        """The slot's awake ticks and catches, and the energy `stored` at its
        end."""

    def on_period_end(self, period: int) -> None:
        pass


def _first_at_or_after(slots: tuple, slot: int, default: int) -> int:
    """The first of the sorted `slots` at or after `slot`, else `default`."""
    i = bisect_left(slots, slot)
    return slots[i] if i < len(slots) else default


class GtPolicy(BasePolicy):
    """Ground-truth oracle: awake everywhere, catches everything."""

    name = "gt"
    draws_energy = False


class CtidPolicy(BasePolicy):
    """Charge to e_on, then discharge at the configured frequency until the
    store cannot fund another wake-up (or falls to e_off).  Oblivious to
    events; harvesting is suspended while discharging.  The engine kernel
    runs the cycle and keeps its mode here between periods."""

    name = "ctid"

    def __init__(self, cfg: CtidConfig):
        self.cfg = cfg
        self.discharging = False
        self.discharge_start = 0
        self.wake_interval = cfg.wake_interval


class _ProfileDriver:
    """Shared Phase-1 mechanics: visit unvisited slots at the top frequency
    when the store can fund the whole slot, else stay asleep and bank."""

    def __init__(self, cfg: LearnerConfig):
        self.cfg = cfg
        self.full_offsets = wake_offsets(cfg.f_max, cfg.state_duration)
        self.full_cost = schedule_cost(cfg.f_max, cfg.state_duration)

    def plan(self, profile, slot: int, stored: float):
        if not profile.visited[slot] and stored >= self.full_cost - DRAW_SLACK:
            return self.full_offsets
        return ()


class SmartOnPolicy(BasePolicy):
    """The three-phase learner bound to one run."""

    name = "smarton"

    def __init__(
        self,
        cfg: LearnerConfig,
        n_slots: int,
        seed: int,
        capacity: float,
        entry_level_hint=None,
    ):
        self.cfg = cfg
        self.capacity = capacity
        self.ctx = PhaseContext(cfg, n_slots)
        self.explore = Stream(seed, "explore")
        self.probe_stream = Stream(seed, "probe")
        self.profiler = _ProfileDriver(cfg)
        self.entry_level_hint = entry_level_hint
        # convergence studies keep exploring after partitions converge; the
        # exploitation gate is then read off the latch bookkeeping instead
        self.explore_forever = False
        # episode state
        self._episode = None
        self._probe_slots: set[int] = set()
        self._probe_catches = 0
        self._phase_at_period_start = 1
        self._profiling_slot: int | None = None
        self._last_entry_level: dict[str, int] = {}
        self.episodes: list[dict] = []
        self.phase1_stays: list[dict] = [{"entry": 1, "passes": 0, "profiles": 0}]
        self._peak_starts: dict[int, LearnedPeak] = {}
        self._active_slots: tuple[int, ...] = ()  # peak starts and probe slots

    # -- helpers -----------------------------------------------------------

    @property
    def current_phase(self) -> int:  # engine records this per slot
        return self.ctx.phase

    def _quantize(self, stored: float) -> int:
        return quantize(stored, self.capacity, self.cfg.k_levels)

    def _refresh_peaks(self) -> None:
        self._peak_starts = {p.start_slot: p for p in self.ctx.known_peaks}
        self._refresh_active_slots()

    def _refresh_active_slots(self) -> None:
        self._active_slots = tuple(sorted(self._peak_starts.keys() | self._probe_slots))

    def _hint(self, stored: float) -> int:
        if self.entry_level_hint is not None:
            return self.entry_level_hint
        return self._quantize(stored)

    # -- engine hooks ------------------------------------------------------

    def on_period_start(self, period: int) -> None:
        self._probe_catches = 0
        self._probe_slots = set()
        self._phase_at_period_start = self.ctx.phase
        if self.ctx.phase == 3 and self.cfg.probe_budget > 0:
            self._probe_slots = probe_plan(
                self.ctx.n_slots,
                self.ctx.peak_slot_set(),
                self.cfg.probe_budget,
                self.probe_stream,
            )
        self._refresh_active_slots()

    def next_active_slot(self, slot: int) -> int:
        # outside an episode only unvisited profile slots (phase 1), learned
        # peak starts and this period's probe slots (phase 3) plan anything
        if self._episode is not None:
            return slot
        if self.ctx.phase == 1:
            return self.ctx.profile.next_unvisited(slot)
        return _first_at_or_after(self._active_slots, slot, self.ctx.n_slots)

    def plan_slot(self, slot: int, stored: float):
        self.current_step = 0
        phase = self.ctx.phase
        if phase == 1:
            plan = self.profiler.plan(self.ctx.profile, slot, stored)
            self._profiling_slot = slot if plan else None
            return plan
        if self._episode is not None:
            return self._episode_step_plan(slot, stored)
        peak = self._peak_starts.get(slot)
        if peak is not None:
            return self._begin_episode(peak, stored)
        if phase == 3 and slot in self._probe_slots:
            offsets = wake_offsets(self.cfg.f_probe, self.cfg.state_duration)
            if stored >= len(offsets) * WAKE_COST - DRAW_SLACK:
                return offsets
        return ()

    def _begin_episode(self, peak: LearnedPeak, stored: float):
        cfg = self.cfg
        table = self.ctx.table_for(peak.shape)
        entry_level = self._quantize(stored)
        self._last_entry_level[peak.shape] = entry_level
        self._episode = {
            "peak": peak,
            "table": table,
            "entry_level": entry_level,
            "entry_affordable": tuple(affordable_actions(cfg, stored)),
            "step": 1,
            "pending": None,  # (state, action) awaiting reward
            "transitions": [],
            "max_change": 0.0,
            "actions": [],
            "reward": 0.0,
        }
        return self._plan_episode_action(stored)

    def _plan_episode_action(self, stored: float):
        cfg = self.cfg
        ep = self._episode
        level = self._quantize(stored)
        state = ep["table"].get_state(level, ep["step"])
        affordable = affordable_actions(cfg, stored)
        action = choose_action(ep["table"], state, self.ctx.phase, affordable, self.explore)
        ep["pending"] = (state, action)
        ep["actions"].append(action)
        self.current_step = ep["step"]
        return wake_offsets(cfg.frequencies[action], cfg.state_duration)

    def _episode_step_plan(self, slot: int, stored: float):
        ep = self._episode
        expected = ep["peak"].start_slot + ep["step"] - 1
        if slot != expected:
            raise RuntimeError(f"episode cursor lost: slot {slot}, expected {expected}")
        return self._plan_episode_action(stored)

    def on_slot_end(self, slot: int, awake: int, catches: int, stored: float) -> None:
        phase = self.ctx.phase
        if phase == 1:
            if self._profiling_slot == slot:
                self.ctx.profile.record_slot(slot, catches)
                self._profiling_slot = None
                if self.ctx.profile.run_complete():
                    self._finish_profile_run(stored)
            return
        if self._episode is not None:
            self._finish_episode_step(catches, awake, stored)
            return
        if phase == 3 and slot in self._probe_slots and catches > 0:
            self._probe_catches += catches

    def _finish_profile_run(self, stored: float) -> None:
        ctx = self.ctx
        self.phase1_stays[-1]["profiles"] += 1
        ctx.profiles_completed += 1
        if profile_converged(ctx.profile, self.cfg):
            peaks = tuple(
                LearnedPeak(start, shape)
                for start, shape in find_peaks(ctx.profile.counts, self.cfg)
            )
            phase_transition(ctx, ProfileConverged(peaks, self._hint(stored)))
            self._refresh_peaks()
        else:
            ctx.profile.finish_run()

    def _finish_episode_step(self, catches: int, awake: int, stored: float) -> None:
        cfg = self.cfg
        ep = self._episode
        state, action = ep["pending"]
        reward = reward_from_counts(catches, awake, cfg)
        ep["reward"] += reward
        t_steps = ep["peak"].n_steps
        if self.ctx.phase == 2:
            if ep["step"] < t_steps:
                next_level = self._quantize(stored)
                next_state = ep["table"].get_state(next_level, ep["step"] + 1)
                next_affordable = tuple(affordable_actions(cfg, stored))
            else:
                next_state = None
                next_affordable = None
            ep["transitions"].append((state, action, reward, next_state, next_affordable))
        if ep["step"] < t_steps:
            ep["step"] += 1
            return
        self._complete_episode()

    def _apply_episode_updates(self, ep) -> None:
        """Run the episode's Bellman updates in reverse step order so a value
        discovered at a late step reaches the entry row within the same
        episode; forward order would need one episode per propagation hop,
        which starves rarely explored low-energy paths."""
        cfg = self.cfg
        scope_row = ep["table"].get_state(ep["entry_level"], 1)
        for state, action, reward, next_state, next_affordable in reversed(
            ep["transitions"]
        ):
            dq = q_update(
                ep["table"], state, action, reward, next_state, cfg,
                next_affordable=next_affordable,
            )
            if cfg.convergence_scope == "touched" or state == scope_row:
                ep["max_change"] = max(ep["max_change"], dq)

    def _complete_episode(self) -> None:
        ep = self._episode
        self._episode = None
        if self.ctx.phase != 2:
            return
        self._apply_episode_updates(ep)
        table = ep["table"]
        level = ep["entry_level"]
        table.record_episode(level, ep["max_change"], ep["entry_affordable"])
        self.ctx.phase2_episodes += 1
        self.episodes.append(
            {
                "shape": table.shape,
                "entry_level": level,
                "actions": tuple(ep["actions"]),
                "reward": ep["reward"],
                "max_change": ep["max_change"],
            }
        )
        newly = (
            level not in table.converged_levels
            and partition_converged(table, level, self.cfg)
        )
        if newly:
            table.converged_levels.add(level)
            table.episodes_to_converge[level] = table.episodes_at_level[level]
        if (
            newly
            and not self.explore_forever
            and self._all_current_partitions_converged()
        ):
            phase_transition(self.ctx, PartitionConvergedObs(table.shape, level))

    def _all_current_partitions_converged(self) -> bool:
        for peak in self.ctx.known_peaks:
            table = self.ctx.tables.get(peak.shape)
            last = self._last_entry_level.get(peak.shape)
            if table is None or last is None or last not in table.converged_levels:
                return False
        return True

    def on_period_end(self, period: int) -> None:
        ctx = self.ctx
        # a pass is one traversal of the period while profiling; count it
        # against the phase the period started in so a mid-period transition
        # still credits the completed pass
        if self._phase_at_period_start == 1:
            ctx.phase1_passes += 1
            self.phase1_stays[-1]["passes"] += 1
        if ctx.phase == 3:
            if self._probe_catches >= self.cfg.probe_trigger:
                phase_transition(ctx, ProbeCaught(self._probe_catches))
                self.phase1_stays.append(
                    {"entry": ctx.phase1_entries, "passes": 0, "profiles": 0}
                )
            else:
                phase_transition(ctx, ProbeQuiet())


class CtidProPolicy(BasePolicy):
    """CTID plus Phase-1 profiling: banks energy outside profiled event slots
    and drains greedily at the top frequency inside them.  No value learning;
    probing re-triggers profiling, mirroring the learning policy."""

    name = "ctidpro"

    def __init__(self, cfg: LearnerConfig, n_slots: int, seed: int):
        self.cfg = cfg
        self.n_slots = n_slots
        self.profile = None
        self.profiler = _ProfileDriver(cfg)
        self.probe_stream = Stream(seed, "probe")
        self.known_slots: set[int] = set()
        self.profiling = True
        self._profiling_slot: int | None = None
        self._probe_slots: set[int] = set()
        self._probe_catches = 0
        self._active_slots: tuple[int, ...] = ()  # known and probe slots
        self.profile = SlotProfile(n_slots)

    @property
    def current_phase(self) -> int:
        return 1 if self.profiling else 3

    def on_period_start(self, period: int) -> None:
        self._probe_catches = 0
        self._probe_slots = set()
        if not self.profiling and self.cfg.probe_budget > 0:
            self._probe_slots = probe_plan(
                self.n_slots, self.known_slots, self.cfg.probe_budget, self.probe_stream
            )
        self._refresh_active_slots()

    def _refresh_active_slots(self) -> None:
        self._active_slots = tuple(sorted(self.known_slots | self._probe_slots))

    def next_active_slot(self, slot: int) -> int:
        if self.profiling:
            return self.profile.next_unvisited(slot)
        return _first_at_or_after(self._active_slots, slot, self.n_slots)

    def plan_slot(self, slot: int, stored: float):
        if self.profiling:
            plan = self.profiler.plan(self.profile, slot, stored)
            self._profiling_slot = slot if plan else None
            return plan
        if slot in self.known_slots:
            return BURST
        if slot in self._probe_slots:
            offsets = wake_offsets(self.cfg.f_probe, self.cfg.state_duration)
            if stored >= len(offsets) * WAKE_COST - DRAW_SLACK:
                return offsets
        return ()

    def on_slot_end(self, slot: int, awake: int, catches: int, stored: float) -> None:
        if self.profiling:
            if self._profiling_slot == slot:
                self.profile.record_slot(slot, catches)
                self._profiling_slot = None
                if self.profile.run_complete():
                    self._finish_profile_run()
            return
        if slot in self._probe_slots and catches > 0:
            self._probe_catches += catches

    def _finish_profile_run(self) -> None:
        if profile_converged(self.profile, self.cfg):
            self.known_slots = {
                s
                for start, shape in find_peaks(self.profile.counts, self.cfg)
                for s in range(start, start + len(shape))
            }
            self.profiling = False
            self._refresh_active_slots()
        else:
            self.profile.finish_run()

    def on_period_end(self, period: int) -> None:
        if not self.profiling and self._probe_catches >= self.cfg.probe_trigger:
            self.profile = SlotProfile(self.n_slots)
            self.profiling = True
