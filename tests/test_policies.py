"""Policy behaviors: GT oracle, CTID cycle timing, CTIDpro greedy bursts,
trace obliviousness, and the catch-dominance argument."""

import math

import numpy as np
import pytest

from smarton_sim import engine
from smarton_sim.energy import WAKE_COST, HarvestSource
from smarton_sim.engine import (
    PatternChange,
    Segment,
    SimConfig,
    compute_metrics,
    make_policy,
    make_store,
    make_source,
    run_experiment,
    run_period,
)
from smarton_sim.events import build_pattern, sample_trace
from smarton_sim.learner import LearnedPeak, LearnerConfig, wake_offsets
from smarton_sim.policies import CtidConfig, CtidPolicy, CtidProPolicy, GtPolicy, SmartOnPolicy
from smarton_sim.rng import Stream
from smarton_sim.scenario import PRESETS, expand_sweep

import per_tick_oracle
from per_tick_oracle import store_for


def run_one_period(policy, store, events, entry_slots=(), entry_value=None,
                   record=True, period=0):
    segment = Segment.of(HarvestSource.constant(1.0), store, len(events), 30, entry_slots,
                         entry_value, record)
    return run_period(policy, store, segment, events, period)


class TestGt:
    def test_awake_every_tick(self):
        log = run_one_period(GtPolicy(), store_for(120, 9), [0] * 1200)
        assert log.awake_ticks == 1200

    def test_catches_all_events(self):
        pattern = build_pattern([("type1", 10)])
        trace = sample_trace(pattern, seed=0, n_periods=1)
        events = trace.occurrences.tolist()
        log = run_one_period(GtPolicy(), store_for(120, 9), events)
        assert log.catches == int(trace.occurrences.sum())
        assert log.drawn == 0.0  # oracle never debits the store

    def test_efficiency_equals_event_density(self):
        # 5% density -> efficiency 0.05
        events = [0] * 1200
        for t in range(0, 1200, 20):
            events[t] = 1
        log = run_one_period(GtPolicy(), store_for(120, 9), events)
        m = compute_metrics([log])
        assert m.energy_efficiency == pytest.approx(0.05)


def ctid_policy(store, **cfg):
    """A CTID policy in the quanta of `store`."""
    return CtidPolicy(CtidConfig(**cfg), store.wake)


class TestCtid:
    def test_first_wake_at_tick_90(self):
        # e_on=10, r=9, cold start: stored reaches 10 after 90 harvests
        store = store_for(120, 9)
        log = run_one_period(ctid_policy(store, e_on=10.0, e_off=0.0), store, [0] * 1200)
        awake = np.flatnonzero(log.ticks["awake"])
        assert awake[0] == 90

    def test_ten_consecutive_discharge_ticks(self):
        store = store_for(120, 9)
        log = run_one_period(ctid_policy(store, e_on=10.0, e_off=0.0), store, [0] * 1200)
        awake = np.flatnonzero(log.ticks["awake"])
        assert list(awake[:10]) == list(range(90, 100))
        assert awake[10] >= 190  # next burst only after recharging

    def test_long_run_duty_cycle_is_one_over_one_plus_r(self):
        store = store_for(120, 9)
        policy = ctid_policy(store, e_on=10.0, e_off=0.0)
        total_awake = 0
        for p in range(50):
            log = run_one_period(policy, store, [0] * 1200, record=False, period=p)
            total_awake += log.awake_ticks
        assert total_awake / (50 * 1200) == pytest.approx(1 / (1 + 9), rel=0.01)

    def test_no_source_never_wakes(self):
        store = store_for(120, 9)
        policy = ctid_policy(store, e_on=10.0, e_off=0.0)
        segment = Segment.of(HarvestSource.constant(0.0), store, 1200, 30)
        log = run_period(policy, store, segment, [0] * 1200, 0)
        assert log.awake_ticks == 0

    def test_trace_oblivious(self):
        # identical stores, different event traces: identical wake schedule
        pattern = build_pattern([("type2", 10)])
        schedules = []
        for seed in (1, 2):
            store = store_for(120, 9)
            policy = ctid_policy(store, e_on=10.0, e_off=0.0)
            trace = sample_trace(pattern, seed=seed, n_periods=1)
            log = run_one_period(policy, store, trace.occurrences.tolist())
            schedules.append(log.ticks["awake"].tolist())
        assert schedules[0] == schedules[1]

    def test_slower_discharge_frequency(self):
        store = store_for(120, 9)
        policy = ctid_policy(store, e_on=10.0, e_off=0.0, discharge_frequency=0.5)
        log = run_one_period(policy, store, [0] * 1200)
        awake = np.flatnonzero(log.ticks["awake"])
        assert list(awake[:3]) == [90, 92, 94]

    @pytest.mark.parametrize("e_on", [0.5, 0.999])
    def test_e_on_below_one_wake_is_rejected(self, e_on):
        # the discharge could not fund its first wake-up and would stall
        with pytest.raises(ValueError, match="wake cost"):
            CtidConfig(e_on=e_on)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["e_on", "e_off", "discharge_frequency"])
    def test_non_finite_numbers_are_rejected(self, name, value):
        # e_on = inf passed every check, and the cycle never discharged
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CtidConfig(**{name: value})

    def test_e_on_of_one_wake_keeps_cycling(self):
        store = store_for(120, 9)
        policy = ctid_policy(store, e_on=WAKE_COST)
        for p in range(3):
            log = run_one_period(policy, store, [0] * 1200, record=False, period=p)
            # one wake-up per nine harvested ticks, none skipped
            assert log.awake_ticks == 120
            assert log.skipped_wakeups == 0


class TestCtidPro:
    def _exploit_policy(self, known, store):
        cfg = LearnerConfig()
        policy = CtidProPolicy(cfg, 40, seed=0, wake=store.wake)
        policy.current_phase = 3
        policy.known_slots = set(known)
        policy.cfg = cfg
        return policy

    def test_greedy_burst_until_exhaustion(self):
        # 45 wake-ups of entry energy cover 300..344; 345..359 stays asleep
        store = store_for(200, 9)
        policy = self._exploit_policy({10, 11, 12}, store)
        log = run_one_period(
            policy, store, [0] * 1200,
            entry_slots=(10,), entry_value=45 * store.wake,
        )
        awake = set(np.flatnonzero(log.ticks["awake"]).tolist())
        assert set(range(300, 345)) <= awake
        assert not awake & set(range(345, 390))

    def test_no_profile_never_awake(self):
        store = store_for(120, 9)
        policy = self._exploit_policy(set(), store)
        policy._probe_slots = set()
        cfg_probe_off = LearnerConfig(probe_budget=0)
        policy.cfg = cfg_probe_off
        log = run_one_period(policy, store, [0] * 1200)
        assert log.awake_ticks == 0

    def test_banks_outside_profiled_slots(self):
        store = store_for(400, 9)
        policy = self._exploit_policy({10, 11, 12}, store)
        policy.cfg = LearnerConfig(probe_budget=0)
        log = run_one_period(policy, store, [0] * 1200, record=False)
        # all harvest outside the 3 burst slots banks up
        assert log.harvested == pytest.approx((1200 - 90) / 9)


class TestEpisodeSteps:
    @pytest.mark.parametrize("stored, level, action", [(100, 4, 3), (5, 1, 0)])
    def test_step_plans_from_the_store_at_its_start(self, stored, level, action):
        # the step ends with 100 stored; entry forcing may then set 5, which
        # is level 1 and affords only the never-awake action
        policy = SmartOnPolicy(LearnerConfig(), n_slots=40, seed=0, capacity=120)
        policy.ctx.phase = 3
        policy.ctx.known_peaks = (LearnedPeak(10, "HHH"),)
        policy._refresh_peaks()
        table = policy.ctx.table_for("HHH")
        table.values[table.get_state(4, 2)] = [0.0, 1.0, 2.0, 9.0]
        table.values[table.get_state(1, 2)] = [0.0, 5.0, 5.0, 5.0]
        policy.plan_slot(10, 120)
        policy.on_slot_end(10, 0, 0, 100)
        plan = policy.plan_slot(11, stored)
        assert (policy._episode.state, policy._episode.action) == (table.get_state(level, 2),
                                                                   action)
        assert plan == wake_offsets((0.0, 0.2, 0.5, 1.0)[action], 30)

    def test_a_step_planned_off_the_episode_cursor_is_refused(self):
        policy = SmartOnPolicy(LearnerConfig(), n_slots=40, seed=0, capacity=120)
        policy.ctx.phase = 3
        policy.ctx.known_peaks = (LearnedPeak(10, "HHH"),)
        policy._refresh_peaks()
        policy.plan_slot(10, 120)
        policy.on_slot_end(10, 0, 0, 100)
        with pytest.raises(RuntimeError, match="episode cursor lost: slot 12, expected 11"):
            policy.plan_slot(12, 100)


class TestLookAhead:
    @pytest.mark.parametrize("policy_name", ["smarton", "ctidpro"])
    def test_slots_before_the_next_active_one_plan_nothing(self, policy_name, monkeypatch):
        # the per-tick oracle plans every slot; each slot the look-ahead
        # passes over must plan nothing and leave the look-ahead and the
        # phase as they were
        seen = {"slots": 0, "skipped": 0}
        make_policy_ = engine.make_policy

        def checked_policy(config):
            policy = make_policy_(config)
            plan_slot, on_slot_end = policy.plan_slot, policy.on_slot_end
            ahead = {}

            def plan(slot, stored):
                ahead[slot] = (policy.next_active_slot(slot), policy.current_phase)
                result = plan_slot(slot, stored)
                seen["slots"] += 1
                if ahead[slot][0] > slot:
                    seen["skipped"] += 1
                    assert result == (), f"slot {slot} planned {result}"
                return result

            def slot_end(slot, awake, catches, stored):
                on_slot_end(slot, awake, catches, stored)
                nxt, phase = ahead.pop(slot)
                if nxt > slot:
                    assert policy.next_active_slot(slot + 1) == nxt
                    assert policy.current_phase == phase

            policy.plan_slot, policy.on_slot_end = plan, slot_end
            return policy

        monkeypatch.setattr(engine, "make_policy", checked_policy)
        config = SimConfig(
            pattern=build_pattern([("type1", 10)]), policy=policy_name, entry_level=4,
            repeat_first_period=True, n_periods=140, seed=1, charging_ratio=8.5,
            learner=LearnerConfig(probe_budget=5),
            schedule=(PatternChange(70, "replace", build_pattern([("type3", 25)]),
                                    entry_level=3),),
        )
        result = per_tick_oracle.run_experiment(config)
        assert 1 in result.phase_timeline[70:] and result.phase_timeline[-1] == 3
        assert seen["skipped"] > seen["slots"] / 2

    @pytest.mark.parametrize("policy_name", ["smarton", "ctidpro"])
    def test_a_phase3_period_keeps_its_active_slots(self, policy_name, monkeypatch):
        # what lets a kernel walk a phase-3 period's active slots itself: the
        # tuple `on_period_start` leaves holds at every later stop of the
        # period, which the per-tick oracle makes at every slot
        seen = {"periods": 0, "probing": 0, "stops": 0}
        make_policy_ = engine.make_policy

        def checked_policy(config):
            policy = make_policy_(config)
            period_start, plan_slot, on_slot_end = (
                policy.on_period_start, policy.plan_slot, policy.on_slot_end)
            fixed = [None]  # the period's active slots, in a phase-3 period

            def start(period):
                period_start(period)
                fixed[0] = policy._active_slots if policy.current_phase == 3 else None
                if fixed[0] is not None:
                    seen["periods"] += 1
                    seen["probing"] += bool(policy._probe_slots)

            def checked(hook):
                def stop(*args):
                    result = hook(*args)
                    if fixed[0] is not None:
                        seen["stops"] += 1
                        assert policy._active_slots == fixed[0], args
                    return result
                return stop

            policy.on_period_start = start
            policy.plan_slot, policy.on_slot_end = checked(plan_slot), checked(on_slot_end)
            return policy

        monkeypatch.setattr(engine, "make_policy", checked_policy)
        config = SimConfig(
            pattern=build_pattern([("type1", 10)]), policy=policy_name, entry_level=4,
            repeat_first_period=True, n_periods=140, seed=1, charging_ratio=8.5,
            learner=LearnerConfig(probe_budget=5),
            schedule=(PatternChange(70, "replace", build_pattern([("type3", 25)]),
                                    entry_level=3),),
        )
        per_tick_oracle.run_experiment(config)
        assert seen["probing"] == seen["periods"] > 20
        assert seen["stops"] == 2 * 40 * seen["periods"]

    def test_exploiting_ctidpro_looks_ahead_to_known_and_probe_slots(self):
        policy = CtidProPolicy(LearnerConfig(probe_budget=0), 40, seed=0)
        policy.current_phase = 3
        policy.known_slots = {10, 11, 12}
        policy.on_period_start(0)
        assert [policy.next_active_slot(s) for s in (0, 10, 11, 12, 13)] == [10, 10, 11, 12, 40]

    def test_profiling_looks_ahead_to_unvisited_slots(self):
        policy = CtidProPolicy(LearnerConfig(), 4, seed=0)
        policy.profile.record_slot(0, 0)
        policy.profile.record_slot(2, 0)
        assert [policy.next_active_slot(s) for s in range(4)] == [1, 1, 3, 3]


def _preset_run(name, **sweep):
    scenario = PRESETS[name]()
    for axis, value in sweep.items():
        scenario = scenario.with_value("sweep", axis, value)
    return expand_sweep(scenario)[0][1]


class TestProbeDraws:
    """Each period's probe slots, drawn from a candidate tuple the policy
    keeps between changes of its known slots, equal a fresh draw from the
    slots outside the known ones, and the phase attribute follows the phase
    context."""

    @pytest.mark.parametrize("config", [
        pytest.param(_preset_run("fig-perf", seeds="0", event_type="type1", entry_level="1",
                                 policy="smarton"), id="fig-perf-smarton"),
        pytest.param(_preset_run("fig-perf", seeds="0", event_type="type3", entry_level="4",
                                 policy="ctidpro"), id="fig-perf-ctidpro"),
        pytest.param(_preset_run("adaptation", seeds="0"), id="adaptation"),
        pytest.param(_preset_run("adaptation", seeds="0", policy="ctidpro"),
                     id="adaptation-ctidpro"),
    ])
    def test_probe_sets_equal_a_fresh_draw_in_every_period(self, config, monkeypatch):
        reference = Stream(config.seed, "probe")
        inner = engine.run_period
        probing = []

        def run_period(policy, *args):
            known = set(policy.known_slots)
            phase = policy.current_phase
            log = inner(policy, *args)
            want = set()
            if phase == 3:
                candidates = [s for s in range(policy.n_slots) if s not in known]
                want = set(reference.sample_without_replacement(candidates, 2))
                probing.append(log.period)
            assert policy._probe_slots == want, f"period {log.period}"
            if isinstance(policy, SmartOnPolicy):
                assert policy.current_phase == policy.ctx.phase, f"period {log.period}"
            return log

        monkeypatch.setattr(engine, "run_period", run_period)
        result = run_experiment(config)
        assert config.learner.probe_budget == 2
        assert len(probing) > 60
        timeline = result.phase_timeline
        if config.schedule:  # the adaptation run re-profiles after probing
            assert 1 in timeline[timeline.index(3):]


class TestSharedProfiling:
    @pytest.mark.parametrize(
        "peaks, seed, entry_level",
        [([("type1", 10)], 1, 4), ([("type3", 25), ("type2", 5)], 2, 2)],
    )
    def test_smarton_and_ctidpro_profile_alike(self, peaks, seed, entry_level):
        # both policies profile through the same code: every period that
        # both run wholly in phase 1 is the same
        results = [
            run_experiment(SimConfig(
                pattern=build_pattern(peaks), policy=name, entry_level=entry_level,
                repeat_first_period=True, n_periods=60, seed=seed,
            ))
            for name in ("smarton", "ctidpro")
        ]
        timelines = [r.phase_timeline for r in results]
        # the period in which one of them leaves phase 1; the same profile
        # converges for both in the same slot
        left = next(p for p in range(59) if any(t[p + 1] != 1 for t in timelines))
        assert left > 5 and all(t[left + 1] != 1 for t in timelines)
        assert results[0].periods[:left] == results[1].periods[:left]

    @pytest.mark.parametrize("policy_name", ["smarton", "ctidpro"])
    def test_profile_with_no_peaks_keeps_probing(self, policy_name):
        # the base pattern draws no events at seed 0, so the first profile
        # converges with no peaks; probes must still find the pattern that
        # replaces it at period 40
        config = SimConfig(
            pattern=build_pattern([("type2", 10)], p_high=0.001, p_low=0.0),
            policy=policy_name, n_periods=120, seed=0, repeat_first_period=True,
            schedule=(PatternChange(40, "replace", build_pattern([("type2", 10)])),),
        )
        result = run_experiment(config)
        assert sum(p.event_ticks for p in result.periods[:40]) == 0
        assert result.phase_timeline[39] == 3
        assert 1 in result.phase_timeline[40:]
        tail = result.periods[-10:]
        assert sum(p.catches for p in tail) == sum(p.event_ticks for p in tail) == 740


class TestEnergyFeasibility:
    @pytest.mark.parametrize("policy_name", ["ctid", "ctidpro", "smarton"])
    def test_cumulative_drawn_bounded_by_harvest(self, policy_name):
        pattern = build_pattern([("type1", 10)])
        config = SimConfig(
            pattern=pattern, policy=policy_name, n_periods=30, seed=3,
            repeat_first_period=True,
        )
        result = run_experiment(config)
        drawn = harvested = 0.0
        for log in result.periods:
            drawn += log.drawn
            harvested += log.harvested
            assert drawn <= harvested + 1e-6


class TestDominanceAtEqualAwakeTime:
    def test_smarton_catch_rate_beats_ctid_given_equal_awake_budget(self):
        # run a converged learner; replay CTID's own schedule on the same
        # trace truncated to the same number of awake ticks
        wins = 0
        for seed in range(20):
            pattern = build_pattern([("type1", 10)])
            config = SimConfig(
                pattern=pattern, policy="smarton", entry_level=4,
                repeat_first_period=True, n_periods=100, seed=seed,
            )
            result = run_experiment(config)
            tail = [p for p in result.periods if p.phase_start == 3][-10:]
            assert tail, f"seed {seed} never reached exploitation"
            smarton_awake = sum(p.awake_ticks for p in tail)
            smarton_catches = sum(p.catches for p in tail)

            trace = sample_trace(pattern, seed, 100, repeat_first_period=True)
            start = tail[0].period * 1200
            bits = trace.occurrences[start : start + len(tail) * 1200]
            store = store_for(120, 9)
            ctid = ctid_policy(store, e_on=30.0, e_off=0.0)
            segment = Segment.of(HarvestSource.constant(1.0), store, 1200, 30, record=True)
            awake_flags = []
            for p in range(len(tail)):
                log = run_period(ctid, store, segment, bits[p * 1200 : (p + 1) * 1200].tolist(), p)
                awake_flags.extend(log.ticks["awake"].tolist())
            # CTID's first `smarton_awake` awake ticks on the same trace
            ctid_catches = 0
            budget = smarton_awake
            for t, awake in enumerate(awake_flags):
                if awake and budget > 0:
                    budget -= 1
                    ctid_catches += int(bits[t])
            if smarton_catches >= ctid_catches:
                wins += 1
        assert wins == 20

