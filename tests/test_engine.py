"""Simulation engine: the tick loop, metrics, experiments, studies."""

import math
import pickle
import signal
import sys
from contextlib import contextmanager
from dataclasses import fields, replace as dc_replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smarton_sim import energy, engine
from smarton_sim.energy import DRAW_SLACK, AbstractStore, HarvestSource
from smarton_sim.engine import (
    ACCUMULATE_MIN,
    MAX_JITTER_CYCLE,
    Metrics,
    PatternChange,
    SimConfig,
    compute_metrics,
    convergence_stats,
    entry_level_energy,
    make_policy,
    make_store,
    make_source,
    run_experiment,
    run_partition_study,
    run_period,
    _add_below,
    _ctid_warm_up,
    _draws,
    _idle_run,
)
from smarton_sim.events import build_pattern
from smarton_sim.learner import LearnerConfig, wake_offsets
from smarton_sim.policies import (
    BasePolicy, CtidConfig, CtidPolicy, CtidProPolicy, GtPolicy, SmartOnPolicy,
)
from smarton_sim.rng import Stream
from smarton_sim.scenario import PRESETS, build_sim_config, expand_sweep, parse_config

import per_tick_oracle


POLICIES = ("smarton", "ctid", "ctidpro", "gt")

# a cyclic source trace whose 151-tick cycle drifts across the period: long
# equal-inflow runs, dark ticks and a tick-by-tick varying stretch
TRACE_VALUES = (
    [1.0] * 50 + [0.0] * 30 + [2.5] * 17 + [0.3, 0.7, 1.9, 0.0, 4.0] * 6 + [0.95] * 24
)


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def assert_same_run(kernel, oracle):
    """Every PeriodLog field bit for bit, and every per-tick array's dtype
    and bytes."""
    assert kernel.phase_timeline == oracle.phase_timeline
    assert kernel.episodes == oracle.episodes
    assert len(kernel.periods) == len(oracle.periods)
    for got, want in zip(kernel.periods, oracle.periods):
        assert_same_log(got, want)


def assert_same_log(got, want):
    names = [f.name for f in fields(want) if f.name != "ticks"]
    for name in names:
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), (
            f"period {want.period} {name}"
        )
    if want.ticks is None:
        assert got.ticks is None
        return
    assert got.ticks.keys() == want.ticks.keys()
    assert_same_arrays(got.ticks, want.ticks, f"period {want.period} ")


def assert_same_arrays(got, want, where=""):
    """Each array of `want` in `got` with its dtype and bytes."""
    for name, array in want.items():
        assert got[name].dtype == array.dtype, f"{where}{name}"
        assert got[name].tobytes() == array.tobytes(), f"{where}{name}"


def assert_kernel_matches_oracle(config):
    assert_same_run(run_experiment(config), per_tick_oracle.run_experiment(config))


@contextmanager
def time_limit(seconds, what):
    """Raise TimeoutError in the block once `seconds` of wall time pass."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{what} did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def base_config(**kw):
    defaults = dict(
        pattern=build_pattern([("type1", 10)]),
        policy="smarton",
        entry_level=4,
        repeat_first_period=True,
        n_periods=60,
        seed=1,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestRunPeriod:
    def test_gt_full_period_awake(self):
        log = run_period(
            GtPolicy(), AbstractStore(120, 9), HarvestSource.constant(1.0),
            [0] * 1200, 0, 1200, 30, frozenset(), None, False,
        )
        assert log.awake_ticks == 1200

    def test_zero_source_smarton_stays_asleep(self):
        config = base_config(source_level=0.0, entry_level=None, n_periods=3)
        result = run_experiment(config)
        assert all(p.awake_ticks == 0 for p in result.periods)
        assert result.periods[-1].stored_end == 0.0

    def test_replay_determinism(self):
        a = run_experiment(base_config())
        b = run_experiment(base_config())
        for pa, pb in zip(a.periods, b.periods):
            assert (pa.awake_ticks, pa.catches, pa.drawn, pa.stored_end) == (
                pb.awake_ticks, pb.catches, pb.drawn, pb.stored_end,
            )
        assert a.phase_timeline == b.phase_timeline

    def test_ledger_identity_per_period(self):
        config = base_config(record_level="per-tick", n_periods=40)
        result = run_experiment(config)
        forced = [log for log in result.periods if log.forced_delta != 0.0]
        assert forced, "expected entry forcing once learning starts"
        for log in result.periods:
            balance = (
                log.stored_start + log.harvested + log.forced_delta
                - log.drawn - log.wasted_saturation
            )
            assert log.stored_end == pytest.approx(balance, rel=1e-9, abs=1e-9)

    def test_ledger_identity_without_forcing(self):
        config = base_config(record_level="per-tick", n_periods=10, entry_level=None)
        result = run_experiment(config)
        for log in result.periods:
            balance = log.stored_start + log.harvested - log.drawn - log.wasted_saturation
            assert log.forced_delta == 0.0
            assert log.stored_end == pytest.approx(balance, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    def test_fast_and_general_paths_agree_exactly(self, record_level):
        for policy in POLICIES:
            for seed in (0, 4):
                assert_kernel_matches_oracle(base_config(
                    policy=policy, seed=seed, n_periods=25,
                    record_level=record_level, ctid_phase_jitter=True,
                ))

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize(
        "policy, overrides",
        [
            # gated source with forced entry levels: inflow runs inside a slot
            pytest.param("smarton", dict(gate_source_in_peaks=True), id="gated-smarton"),
            pytest.param("ctidpro", dict(gate_source_in_peaks=True), id="gated-ctidpro"),
            pytest.param("smarton", dict(gate_source_in_peaks=True, entry_level=1),
                         id="gated-smarton-entry1"),
            pytest.param("ctidpro", dict(gate_source_in_peaks=True, entry_level=2),
                         id="gated-ctidpro-entry2"),
            # one wake every other tick while discharging
            pytest.param("ctid", dict(ctid=CtidConfig(discharge_frequency=0.5)),
                         id="ctid-half-hz"),
            # a full store saturates from tick 0
            pytest.param("smarton", dict(initial_stored=120.0, entry_level=None),
                         id="full-smarton"),
            pytest.param("ctid", dict(initial_stored=120.0), id="full-ctid"),
            pytest.param("ctidpro", dict(initial_stored=120.0), id="full-ctidpro"),
            pytest.param("gt", dict(initial_stored=120.0), id="full-gt"),
            # nothing to harvest
            pytest.param("smarton", dict(source_level=0.0, initial_stored=50.0),
                         id="dark-smarton"),
            pytest.param("ctid", dict(source_level=0.0, initial_stored=50.0), id="dark-ctid"),
            pytest.param("ctidpro", dict(source_level=0.0, initial_stored=50.0),
                         id="dark-ctidpro"),
            pytest.param("gt", dict(source_level=0.0), id="dark-gt"),
            # e_on at or above capacity: charge phases saturate, so no jump
            pytest.param("ctid", dict(ctid=CtidConfig(e_on=120.0)), id="ctid-e_on-at-cap"),
            pytest.param("ctid", dict(ctid=CtidConfig(e_on=150.0)), id="ctid-e_on-over-cap"),
            # 20 s and 60 s learner slots
            pytest.param("smarton", dict(learner=LearnerConfig(state_duration=20)),
                         id="slot20-smarton"),
            pytest.param("ctidpro", dict(learner=LearnerConfig(state_duration=60)),
                         id="slot60-ctidpro"),
        ],
    )
    def test_fast_and_general_paths_agree_exactly_on_kernel_branches(
        self, policy, overrides, record_level
    ):
        kw = dict(policy=policy, seed=4, n_periods=25, ctid_phase_jitter=True)
        kw.update(overrides)
        assert_kernel_matches_oracle(base_config(record_level=record_level, **kw))

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("source", ["constant", "gated", "diurnal", "trace"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_kernel_matches_per_tick_oracle_on_every_source(
        self, policy, source, record_level, tmp_path
    ):
        kw = dict(policy=policy, seed=2, n_periods=25, record_level=record_level,
                  ctid_phase_jitter=True)
        if source == "gated":
            kw.update(gate_source_in_peaks=True)
        elif source == "diurnal":
            # the first day's light ends in period 36
            kw.update(source_kind="diurnal", n_periods=40)
        elif source == "trace":
            path = tmp_path / "source.txt"
            path.write_text("\n".join(map(str, TRACE_VALUES)) + "\n", encoding="utf-8")
            kw.update(source_kind="trace", source_path=str(path))
        assert_kernel_matches_oracle(base_config(**kw))

    @given(
        policy=st.sampled_from(POLICIES),
        ratio=st.floats(min_value=1.0, max_value=20.0),
        capacity=st.floats(min_value=20.0, max_value=300.0),
        level=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=3.0)),
        fill=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
        e_on=st.floats(min_value=2.0, max_value=200.0),
        e_off_share=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.99)),
        # 1/7: a wake interval that does not divide the period
        frequency=st.sampled_from((0.2, 0.25, 0.5, 1.0, 1 / 7)),
        probe_budget=st.sampled_from((0, 2, 5)),
        entry=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        gated=st.booleans(),
        record_level=st.sampled_from(("summary", "per-tick")),
    )
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_per_tick_oracle_on_random_energy(
        self, policy, ratio, capacity, level, fill, e_on, e_off_share, frequency,
        probe_budget, entry, gated, record_level
    ):
        assert_kernel_matches_oracle(base_config(
            policy=policy, charging_ratio=ratio, capacity=capacity,
            source_level=level, initial_stored=fill * capacity,
            ctid=CtidConfig(e_on=e_on, e_off=e_off_share * e_on,
                            discharge_frequency=frequency),
            learner=LearnerConfig(probe_budget=probe_budget), entry_level=entry,
            gate_source_in_peaks=gated, record_level=record_level,
            ctid_phase_jitter=True, n_periods=4, seed=3,
        ))

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("policy", ["smarton", "ctidpro"])
    def test_kernel_matches_per_tick_oracle_through_phase_3_and_back(
        self, policy, record_level
    ):
        # phase 3 skips every slot outside the known peak and the probe
        # slots; the replaced pattern is caught by a probe, which sends the
        # policy back through profiling to phase 3
        config = base_config(
            policy=policy, record_level=record_level, n_periods=140,
            learner=LearnerConfig(probe_budget=5), charging_ratio=8.5,
            schedule=(PatternChange(70, "replace", build_pattern([("type3", 25)]),
                                    entry_level=3),),
        )
        kernel = run_experiment(config)
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))
        timeline = kernel.phase_timeline
        assert 3 in timeline[:70] and 1 in timeline[70:] and timeline[-1] == 3

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("frequency", [0.2, 0.25, 0.5, 1.0])
    def test_ctid_discharge_across_the_period_boundary_matches_oracle(
        self, frequency, record_level
    ):
        config = base_config(
            policy="ctid", ctid=CtidConfig(discharge_frequency=frequency),
            charging_ratio=8.5, ctid_phase_jitter=True, n_periods=10,
            record_level=record_level,
        )
        oracle = per_tick_oracle.run_experiment(dc_replace(config, record_level="per-tick"))
        # a discharge phase (dark under a lit source) runs from the end of
        # one period into the next
        assert any(
            a.ticks["harvested"][-1] == 0.0 and b.ticks["harvested"][0] == 0.0
            for a, b in zip(oracle.periods, oracle.periods[1:])
        )
        assert_kernel_matches_oracle(config)

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    def test_ctid_discharge_cadence_holds_across_period_ends(self, record_level):
        # a 7-tick wake interval does not divide the 1,200-tick period, and a
        # discharge from e_on = 100 lasts about 700 ticks
        config = base_config(
            policy="ctid", ctid=CtidConfig(e_on=100.0, discharge_frequency=1 / 7),
            entry_level=None, n_periods=30, record_level="per-tick",
        )
        periods = run_experiment(config).periods
        awake = np.concatenate([log.ticks["awake"] for log in periods])
        dark = np.concatenate([log.ticks["harvested"] == 0.0 for log in periods])
        # each discharge phase is a maximal dark run under the lit source,
        # from its flip to its last wake-up
        edges = np.flatnonzero(np.diff(np.concatenate(([0], dark.view(np.int8), [0]))))
        crossings = 0
        for a, b in zip(edges[::2], edges[1::2]):
            assert np.array_equal(np.flatnonzero(awake[a:b]), np.arange(0, b - a, 7)), a
            crossings += a // 1200 != (b - 1) // 1200
        assert crossings > 5
        assert_kernel_matches_oracle(dc_replace(config, record_level=record_level))

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("ratio, level", [(1.0, 1.5), (8.5, 20.0)])
    def test_kernel_matches_oracle_when_one_tick_gaps_saturate(
        self, ratio, level, policy, record_level
    ):
        # an inflow above one wake cost refills a full store between two
        # wake-ups one tick apart, and the tick in between clamps; a
        # per-tick replay stays at capacity until a dark draw
        config = base_config(policy=policy, charging_ratio=ratio, source_level=level,
                             initial_stored=120.0, n_periods=6, record_level=record_level)
        assert_kernel_matches_oracle(config)

    @pytest.mark.parametrize("record", [False, True], ids=["summary", "per-tick"])
    @pytest.mark.parametrize("frequency, level", [(0.2, 2.7), (0.5, 5.4)])
    def test_short_gaps_that_clamp_inside_the_slot_match_the_oracle(
        self, frequency, level, record
    ):
        # a 0.2 Hz probe slot or a 0.5 Hz action entered a few ticks' inflow
        # below capacity: the gaps between wake-ups refill the store, first
        # below capacity, then to a clamp on a tick inside the gap, not on
        # its first one
        plan = wake_offsets(frequency, 30)

        class Planner(BasePolicy):
            def plan_slot(self, slot, stored):
                return plan if slot % 4 == 0 else ()

        source = HarvestSource.constant(level)  # 0.3 or 0.6 per tick at ratio 9
        events = bytes(t % 7 == 0 for t in range(1200))
        stores = [AbstractStore(120, 9, stored=120 - 3.5 * level / 9) for _ in range(2)]
        mid_gap_clamps = 0
        for p in range(3):
            args = (events, p, 1200, 30, frozenset(), None, record)
            got = run_period(Planner(), stores[0], source, *args)
            want = per_tick_oracle.run_period(Planner(), stores[1], source, *args)
            assert_same_log(got, want)
            if record:
                stored, awake = want.ticks["stored"], want.ticks["awake"]
                # a gap's first tick is a wake-up's: count clamps on later ones
                mid_gap_clamps += sum(
                    stored[t] == 120.0 and stored[t - 1] < 120.0 and not awake[t]
                    and (t // 30) % 4 == 0
                    for t in range(1, 1200)
                )
        assert stores[0] == stores[1]
        assert mid_gap_clamps > 0 or not record

    @pytest.mark.parametrize("record", [False, True], ids=["summary", "per-tick"])
    @pytest.mark.parametrize("source", [
        pytest.param(HarvestSource.constant(1.0), id="constant"),
        # lit for the first period, dark for the second
        pytest.param(HarvestSource.diurnal(1.0, day_ticks=2400), id="diurnal"),
    ])
    def test_unfundable_wake_ups_are_skipped_as_in_the_oracle(self, source, record):
        class Overplanner(BasePolicy):
            """Wake-ups one tick apart and with gaps, 11 per 30-tick slot:
            more than a source at 1/9 of a wake cost per tick funds."""

            def plan_slot(self, slot, stored):
                return (0, 1, 2, 3, 10, 11, 12, 13, 14, 28, 29)

        events = bytes(t % 3 == 0 for t in range(1200))
        stores = [AbstractStore(120, 9, stored=40.0) for _ in range(2)]
        skipped = awake = 0
        for p in range(3):
            args = (events, p, 1200, 30, frozenset(), None, record)
            got = run_period(Overplanner(), stores[0], source, *args)
            want = per_tick_oracle.run_period(Overplanner(), stores[1], source, *args)
            assert_same_log(got, want)
            skipped += got.skipped_wakeups
            awake += got.awake_ticks
        assert stores[0] == stores[1]
        assert skipped > 0 and awake > 0

    def test_partition_study_matches_per_tick_oracle(self):
        config = base_config(learner=LearnerConfig(k_levels=4), entry_level=None, seed=5)
        kernel = run_partition_study(config, [3, 1])
        assert kernel == per_tick_oracle.run_partition_study(config, [3, 1])

    def test_per_tick_records_have_period_shape(self):
        config = base_config(record_level="per-tick", n_periods=2)
        result = run_experiment(config)
        for log in result.periods:
            assert log.ticks is not None
            assert len(log.ticks["awake"]) == 1200
            assert len(log.ticks["stored"]) == 1200

    def test_episode_steps_past_127_are_recorded(self, tmp_path):
        # 1-tick learner slots in a 240-tick peak: episodes of 240 steps
        path = tmp_path / "scenario.ini"
        path.write_text(
            "[run]\nrecord_level = per-tick\nn_periods = 60\nrepeat_events = true\n"
            "entry_level = 4\n[pattern]\nstate_duration = 60\npeak_max_duration = 240\n"
            "p_high = 1.0\np_low = 0.99\npeaks = type4@2\n"
            "[learner]\nstate_duration = 1\nfrequencies = 0,1\n",
            encoding="utf-8",
        )
        config = build_sim_config(parse_config(path))
        kernel = run_experiment(config)
        assert max(int(log.ticks["step"].max()) for log in kernel.periods) > 127
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    def test_a_period_of_more_than_32767_slots_is_recorded(self):
        config = base_config(
            pattern=build_pattern([("type1", 10)], period_ticks=40_000, state_duration=40),
            learner=LearnerConfig(state_duration=1, frequencies=(0.0, 1.0)),
            record_level="per-tick", n_periods=2,
        )
        kernel = run_experiment(config)
        slots = kernel.periods[0].ticks["slot"]
        assert slots[-1] == 39_999 and (np.diff(slots) >= 0).all()
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))


def phase3_plans(monkeypatch):
    """Patch the learning policy so that the period of every episode step it
    plans in phase 3 is appended to the returned list."""
    planned = []
    period = [None]
    on_period_start = SmartOnPolicy.on_period_start
    plan = SmartOnPolicy._plan_episode_action

    def counting_period_start(self, p):
        period[0] = p
        on_period_start(self, p)

    def counting_plan(self, stored):
        if self.ctx.phase == 3:
            planned.append(period[0])
        return plan(self, stored)

    monkeypatch.setattr(SmartOnPolicy, "on_period_start", counting_period_start)
    monkeypatch.setattr(SmartOnPolicy, "_plan_episode_action", counting_plan)
    return planned


def clear_sweep_caches():
    for cache in engine.SWEEP_CACHES:
        cache.cache_clear()


def charge_calls(monkeypatch, e_on):
    """Patch `engine._fill` so that the arguments and result of every CTID
    charge to `e_on` it sums are appended to the returned list."""
    calls = []
    fill = engine._fill

    def counting_fill(*args):
        got = fill(*args)
        if args[2] == e_on - DRAW_SLACK:
            calls.append((args, got))
        return got

    monkeypatch.setattr(engine, "_fill", counting_fill)
    return calls


def count_ctid_runs(monkeypatch):
    """Patch `engine._ctid_run` and `engine._tick_arrays` so that the start
    of every CTID span computed and the end of every array set built are
    appended to the two returned lists."""
    computed, built = [], []
    ctid_run, tick_arrays = engine._ctid_run, engine._tick_arrays

    def counting_ctid_run(*args):
        computed.append(args[0])
        return ctid_run(*args)

    def counting_tick_arrays(*args):
        built.append(args[-1])
        return tick_arrays(*args)

    monkeypatch.setattr(engine, "_ctid_run", counting_ctid_run)
    monkeypatch.setattr(engine, "_tick_arrays", counting_tick_arrays)
    return computed, built


class TestSteadyStateReplay:
    """Phase-3 episodes are replayed from a memo within a run, and CTID
    charges, CTID periods and GT/CTID per-tick arrays from the sweep caches;
    every number must still match the per-tick oracle."""

    # loose enough that phase 3 starts by period ~60 on fresh events
    QUICK = LearnerConfig(convergence_epsilon=100.0)

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("entry", [1, 4])
    def test_fresh_events_in_every_period_match_oracle(self, entry, record_level, monkeypatch):
        config = base_config(n_periods=150, repeat_first_period=False, entry_level=entry,
                             learner=self.QUICK, record_level=record_level)
        planned = phase3_plans(monkeypatch)
        kernel = run_experiment(config)
        phase3 = [p for p, phase in enumerate(kernel.phase_timeline) if phase == 3]
        assert len(phase3) > 50
        # one key, planned once and replayed while the catches change, and
        # recorded runs replay it too
        assert set(planned) == {phase3[0]}
        assert len({kernel.periods[p].catches for p in phase3}) > 5
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    def test_store_saturating_inside_episodes_matches_oracle(self, monkeypatch):
        # 1.5 wake costs of inflow per tick refill the store within every episode
        config = base_config(n_periods=150, charging_ratio=1.0, source_level=1.5)
        planned = phase3_plans(monkeypatch)
        kernel = run_experiment(config)
        oracle = per_tick_oracle.run_experiment(dc_replace(config, record_level="per-tick"))
        peak = kernel.policy.ctx.known_peaks[0]
        a, b = peak.start_slot * 30, peak.end_slot * 30
        phase3 = [log for log in oracle.periods if log.phase_start == 3]
        assert len(phase3) > 50
        assert all((log.ticks["stored"][a:b] == config.capacity).any() for log in phase3)
        # an episode that reached capacity is never stored, so never replayed
        assert len(set(planned)) == len(phase3)
        # wasted_saturation too, bit for bit
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    def test_varying_entry_energy_matches_oracle(self, monkeypatch):
        # without forcing, and with a store too weak to saturate before the
        # peak, probes leave a different entry energy in every period
        config = base_config(n_periods=150, repeat_first_period=False, entry_level=None,
                             learner=self.QUICK, charging_ratio=20.0, capacity=200.0)
        planned = phase3_plans(monkeypatch)
        kernel = run_experiment(config)
        phase3 = [p for p, phase in enumerate(kernel.phase_timeline) if phase == 3]
        assert len(phase3) > 30
        assert len(set(planned)) > len(phase3) // 2
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    def test_adaptation_drops_the_memo_at_re_profiling(self, monkeypatch):
        # the returning pattern skips phase 2, so no table changes; its first
        # exploit episode is still planned, not replayed from segment one
        config = dc_replace(
            expand_sweep(PRESETS["adaptation"]())[0][1], seed=0,
        )
        planned = phase3_plans(monkeypatch)
        kernel = run_experiment(config)
        third = kernel.phase_timeline[140:]
        assert 2 not in third and 1 in third and 3 in third
        returned = 140 + third.index(3, third.index(1))
        assert any(p < 70 for p in planned) and returned in planned
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    def test_forcing_inside_a_learned_peak_matches_oracle(self):
        # back-to-back peaks profile as one run of slots, split into learned
        # peaks of at most 4 slots; the second peak's entry forcing at slot 13
        # falls inside the learned peak that starts at slot 10
        config = base_config(pattern=build_pattern([("type1", 10), ("type1", 13)]),
                             n_periods=150)
        kernel = run_experiment(config)
        assert any(p.start_slot < 13 < p.end_slot for p in kernel.policy.ctx.known_peaks)
        assert kernel.phase_timeline.count(3) > 50
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("peaks, peak_max_duration", [
        # the later peak's entry slot 25 lies after every episode of the
        # peak at slot 10, not inside one
        pytest.param([("type1", 10), ("type3", 25)], 120, id="apart"),
        # learned peaks of at most 3 slots: the episode from slot 10 ends at
        # the entry slot 13
        pytest.param([("type1", 10), ("type3", 13)], 90, id="back-to-back"),
    ])
    def test_an_entry_slot_after_an_episode_does_not_block_its_memo(
            self, peaks, peak_max_duration, record_level):
        config = base_config(
            pattern=build_pattern(peaks, peak_max_duration=peak_max_duration),
            n_periods=150, seed=0, record_level=record_level,
            learner=dc_replace(self.QUICK, peak_max_duration=peak_max_duration),
        )
        kernel = run_experiment(config)
        # both peaks' episodes are memoised
        starts = {slot for _, slot in peaks}
        assert {peak.start_slot for peak, _, _ in kernel.policy.episode_memo} == starts
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    def test_periods_at_different_constant_inflows_match_oracle(self, tmp_path):
        # a trace source that is constant within each period, at a level that
        # alternates between periods: an episode must not replay across them
        path = tmp_path / "source.txt"
        path.write_text("0.5\n" * 1200 + "2.0\n" * 1200, encoding="utf-8")
        config = base_config(n_periods=150, entry_level=1, source_kind="trace",
                             source_path=str(path))
        kernel = run_experiment(config)
        assert kernel.phase_timeline.count(3) > 50
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    @pytest.mark.parametrize("frequency", [0.5, 1.0])
    def test_ctid_charge_phases_cut_by_the_period_end_match_oracle(self, frequency, monkeypatch):
        # a 900-tick charge to e_on = 100 crosses most period ends
        config = base_config(
            policy="ctid", ctid=CtidConfig(e_on=100.0, discharge_frequency=frequency),
            entry_level=None, n_periods=40, ctid_phase_jitter=True,
        )
        oracle = per_tick_oracle.run_experiment(dc_replace(config, record_level="per-tick"))
        assert sum(
            a.ticks["harvested"][-1] > 0.0 and b.ticks["harvested"][0] > 0.0
            for a, b in zip(oracle.periods, oracle.periods[1:])
        ) > 10
        clear_sweep_caches()
        charges = charge_calls(monkeypatch, 100.0)
        kernel = run_experiment(config)
        # a charge the span's end cuts is summed up to that end
        assert any(limit < math.inf for (*_, limit), _ in charges)
        monkeypatch.undo()
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    @pytest.mark.parametrize("e_on", [30.0, 60.0])
    def test_ctid_charges_are_each_computed_once(self, e_on, monkeypatch):
        # at e_on = 30 the 300-tick cycle divides the period, so after the
        # jittered start every period end cuts a charge from empty at the
        # same tick: the cut charge comes from the sweep cache after the first time
        sums = []

        def counting_add_below(*args):
            sums.append(args)
            return _add_below(*args)

        clear_sweep_caches()
        monkeypatch.setattr(engine, "_fill", lru_cache(typed=True)(counting_add_below))
        config = base_config(policy="ctid", ctid=CtidConfig(e_on=e_on), entry_level=None,
                             n_periods=40, ctid_phase_jitter=True)
        kernel = run_experiment(config)
        charges = [args for args in sums if args[2] == e_on - DRAW_SLACK]
        assert any(limit < math.inf for *_, limit in charges)  # a charge cut by a span's end
        assert engine._fill.cache_info().hits > 0
        assert len(sums) == len(set(sums))
        monkeypatch.undo()
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    def test_ctid_without_inflow_terminates_and_matches_oracle(self, monkeypatch):
        config = base_config(policy="ctid", source_level=0.0, initial_stored=50.0,
                             entry_level=None, n_periods=20)
        clear_sweep_caches()
        charges = charge_calls(monkeypatch, 30.0)
        with time_limit(1.0, "CTID without inflow"):
            kernel = run_experiment(config)
        # no charge reaches e_on: each stalls at its start, with no limit and
        # then cut by the period end
        assert {limit < math.inf for (*_, limit), _ in charges} == {False, True}
        assert all(got == (args[0], args[3]) for args, got in charges)
        monkeypatch.undo()
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("e_on, replays", [
        # the 285-tick cycle realigns with the period after 19 periods
        pytest.param(30.0, True, id="e_on-30"),
        # one inflow of 1/8.5 can clamp a store at e_on: nothing is kept
        pytest.param(119.95, False, id="e_on-near-cap"),
    ])
    def test_ctid_periods_replay_from_their_start_state(
            self, e_on, replays, record_level, monkeypatch):
        computed, built = count_ctid_runs(monkeypatch)
        config = base_config(policy="ctid", ctid=CtidConfig(e_on=e_on), charging_ratio=8.5,
                             entry_level=None, repeat_first_period=False,
                             record_level=record_level)
        clear_sweep_caches()
        kernel = run_experiment(config)
        info = engine._ctid_period.cache_info()
        if replays:
            assert info.currsize and len(computed) == info.misses == info.currsize < 25
            # catches are counted from each period's fresh events
            assert len({log.catches for log in kernel.periods[25:]}) > 5
        else:
            assert not info.currsize and len(computed) == config.n_periods
        if record_level == "per-tick":
            # the per-tick arrays are built once per decision record, also
            # where the period itself is recomputed
            records = {(log.stored_start, log.ticks["awake"].tobytes(),
                        log.ticks["harvested"].tobytes()) for log in kernel.periods}
            assert len(built) == len(records) == engine._steady_arrays.cache_info().currsize < 25
        monkeypatch.undo()
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    def test_a_ctid_period_is_reused_by_another_run(self, record_level, monkeypatch):
        # CTID ignores events and entry levels: a run of another event type
        # and entry level passes through the same start states
        computed, built = count_ctid_runs(monkeypatch)
        first = base_config(policy="ctid", charging_ratio=8.5, entry_level=1,
                            repeat_first_period=False, n_periods=40, record_level=record_level)
        second = dc_replace(first, pattern=build_pattern([("type3", 10)]), entry_level=4)
        clear_sweep_caches()
        runs = [run_experiment(first)]
        counts = (len(computed), len(built))
        hits = engine._ctid_period.cache_info().hits
        runs.append(run_experiment(second))
        assert counts[0] and (len(computed), len(built)) == counts
        assert engine._ctid_period.cache_info().hits == hits + second.n_periods
        assert [log.catches for log in runs[0].periods] != [log.catches for log in runs[1].periods]
        monkeypatch.undo()
        for config, kernel in zip((first, second), runs):
            assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    def test_the_period_caches_keep_int_and_float_starts_apart(self):
        clear_sweep_caches()
        args = (1 / 9, 120.0, CtidConfig(), False, 0, 1200)
        periods = [engine._ctid_period(s, *args) for s in (5, 5.0)]
        assert engine._ctid_period.cache_info().currsize == 2
        assert periods[0] == periods[1]
        end = run_period(GtPolicy(), AbstractStore(120.0, 9.0), HarvestSource.constant(1.0),
                         bytes(1200), 0, 1200, 30, (), None, False).stored_end
        key = (1 / 9, 120.0, 1200, 30, (range(1200),), (), end)
        arrays = [engine._steady_arrays(GtPolicy, s, *key) for s in (0, 0.0)]
        assert engine._steady_arrays.cache_info().currsize == 2
        assert_same_arrays(*arrays)

    @pytest.mark.parametrize("policy", ["gt", "ctid"])
    def test_replayed_per_tick_periods_own_their_arrays(self, policy, monkeypatch):
        config = base_config(policy=policy, charging_ratio=8.5, entry_level=None,
                             repeat_first_period=False, n_periods=40, record_level="per-tick")
        cached = {}  # the cache's own arrays, by identity
        steady_arrays = engine._steady_arrays

        def keeping_steady_arrays(*args):
            arrays = steady_arrays(*args)
            cached[id(arrays)] = arrays
            return arrays

        monkeypatch.setattr(engine, "_steady_arrays", keeping_steady_arrays)
        clear_sweep_caches()
        kernel = run_experiment(config)
        assert len(cached) == steady_arrays.cache_info().currsize < 25

        def snapshot(arrays):
            return {name: (a.dtype, a.tobytes()) for name, a in arrays.items()}

        logs = [snapshot(log.ticks) for log in kernel.periods]
        kept = [snapshot(arrays) for arrays in cached.values()]
        # a period whose arrays the cache built, and a replay of it
        first = kernel.periods[1].ticks["stored"]
        replayed = [p for p, log in enumerate(kernel.periods) if p > 1 and np.array_equal(
            log.ticks["stored"], first)]
        assert replayed
        for p in (1, replayed[-1]):
            for a in kernel.periods[p].ticks.values():
                a[...] = ~a if a.dtype == bool else a + 1
        for p, log in enumerate(kernel.periods):
            if p not in (1, replayed[-1]):
                assert snapshot(log.ticks) == logs[p], f"period {p}"
        assert [snapshot(arrays) for arrays in cached.values()] == kept

    def test_a_replayed_period_keeps_the_end_check(self):
        clear_sweep_caches()
        args = (HarvestSource.constant(1.0), bytes(1200), 0, 1200, 30, (), None, True)
        log, again = (run_period(GtPolicy(), AbstractStore(120.0, 9.0), *args) for _ in "ab")
        assert_same_log(again, log)
        info = engine._steady_arrays.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # the entry is keyed by the kernel's end: the same end is a hit, and
        # another is a miss whose rebuilt arrays fail the replay's end check
        key = (GtPolicy, 0.0, 1 / 9, 120.0, 1200, 30, (range(1200),), ())
        engine._steady_arrays(*key, log.stored_end)
        with pytest.raises(RuntimeError, match="per-tick replay ends at"):
            engine._steady_arrays(*key, log.stored_end - 1.0)
        info = engine._steady_arrays.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 1)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_fig_perf_summary_equals_per_tick_over_150_periods(self, policy):
        scenario = PRESETS["fig-perf"]()
        for axis, value in (("seeds", "0"), ("event_type", "type1"),
                            ("entry_level", "1,4"), ("policy", policy)):
            scenario = scenario.with_value("sweep", axis, value)
        for _, config in expand_sweep(scenario):
            assert config.n_periods == 150
            summary = run_experiment(config)
            per_tick = run_experiment(dc_replace(config, record_level="per-tick"))
            for log in per_tick.periods:
                log.ticks = None
            assert_same_run(summary, per_tick)


def plan_calls(monkeypatch, cls):
    """Patch `cls.plan_slot` so that the (slot, stored, phase) of every call
    is appended to the returned list."""
    calls = []
    plan = cls.plan_slot

    def counting_plan(self, slot, stored):
        calls.append((slot, stored, self.current_phase))
        return plan(self, slot, stored)

    monkeypatch.setattr(cls, "plan_slot", counting_plan)
    return calls


class TestSkippedStops:
    """Profile slots the store cannot fund are banked without a stop, and a
    CTIDpro burst drains a whole known run at once; every number must still
    match the per-tick oracle."""

    FLOOR = 30.0 - DRAW_SLACK  # the top frequency's 30 wake-ups in a 30-tick slot

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("capacity, planned_below", [
        pytest.param(120.0, False, id="cap-120"),
        # an inflow of 1/9 clamps a store 0.05 above the floor: every slot stops
        pytest.param(30.05, True, id="cap-just-above-floor"),
    ])
    def test_profile_slots_below_the_floor(self, capacity, planned_below, record_level,
                                           monkeypatch):
        config = base_config(capacity=capacity, entry_level=None, n_periods=6,
                             record_level=record_level)
        calls = plan_calls(monkeypatch, SmartOnPolicy)
        kernel = run_experiment(config)
        assert kernel.phase_timeline == [1] * 6
        below = sum(stored < self.FLOOR for _, stored, _ in calls)
        assert below > 100 if planned_below else below == 0
        monkeypatch.undo()
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("policy", ["smarton", "ctidpro"])
    def test_a_profile_that_ends_mid_period(self, policy, record_level):
        config = base_config(policy=policy, capacity=40.0, charging_ratio=5.0, n_periods=14,
                             record_level=record_level)
        oracle = per_tick_oracle.run_experiment(dc_replace(config, record_level="per-tick"))
        # one period profiles slots from below the floor, ends the profile at
        # a slot inside it, and then starts slots below the floor in phase 2 or 3
        switched = []
        for log in oracle.periods:
            phase = log.ticks["phase"][::30]
            start = np.concatenate(([log.stored_start], log.ticks["stored"][29:-1:30]))
            below = start < self.FLOOR
            if phase[0] == 1 and phase[-1] != 1:
                switched.append(((phase == 1) & below).any() and ((phase != 1) & below).any())
        assert switched == [True]
        assert_kernel_matches_oracle(config)

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("peaks, runs", [
        # entry level 4 forces 105 wake costs: a drain through three 30-tick slots
        pytest.param([("type1", 10)], [(10, 13)], id="drain-outlasts-a-slot"),
        # the second peak's entry slot 13 lies inside the known run 10..15
        pytest.param([("type1", 10), ("type1", 13)], [(10, 13), (13, 16)],
                     id="entry-slot-inside-the-run"),
    ])
    def test_a_known_run_drains_as_one_burst(self, peaks, runs, record_level, monkeypatch):
        config = base_config(policy="ctidpro", pattern=build_pattern(peaks), n_periods=80,
                             record_level=record_level)
        calls = plan_calls(monkeypatch, CtidProPolicy)
        kernel = run_experiment(config)
        known = kernel.policy.known_slots
        assert known == {s for a, b in runs for s in range(a, b)}
        # one plan per run; a probe slot is never known
        assert {slot for slot, _, phase in calls if phase == 3 and slot in known} == {
            a for a, _ in runs}
        monkeypatch.undo()
        oracle = per_tick_oracle.run_experiment(dc_replace(config, record_level="per-tick"))
        phase3 = [log for log in oracle.periods if log.phase_start == 3]
        assert len(phase3) > 50
        for log in phase3:
            for a, b in runs:
                awake = log.ticks["awake"][a * 30 : b * 30]
                # entry energy 105 funds every tick of a 90-tick run
                assert awake.all()
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))


def add_below_loop(x, inc, level, limit):
    """The additions `_add_below` sums, one at a time."""
    k = 0
    while k < limit and x < level:
        x += inc
        k += 1
    return x, k


def idle_run_per_tick(s, waste, inc, cap, n):
    """The store's harvest clamp, one tick at a time."""
    for _ in range(n):
        room = cap - s
        if inc > room:
            waste += inc - room
            s = cap
        else:
            s += inc
    return s, waste


# the arguments `_add_below` sums over: starts across binades, inflows with
# ties, subnormal and stalled steps, and levels that stop the sum or never do
ADD_BELOW_ARGS = dict(
    x=st.one_of(
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e300),
        st.integers(min_value=1, max_value=2**53).map(lambda i: math.ldexp(i, -30)),
    ),
    inc=st.one_of(
        st.sampled_from((0.0, 5e-324, 1e-300, 1 / 3, 1 / 8.5, 0.375, 1.5)),
        st.floats(min_value=0.0, max_value=10.0),
        st.integers(min_value=1, max_value=2**20).map(lambda i: math.ldexp(i, -40)),
    ),
    level=st.one_of(st.just(math.inf), st.floats(min_value=0.0, max_value=1e4)),
    limit=st.integers(min_value=0, max_value=5000),
)


class TestIdleRuns:
    @given(
        cap=st.floats(min_value=1.0, max_value=500.0),
        fill=st.floats(min_value=0.0, max_value=1.0),
        inc=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
        waste=st.floats(min_value=0.0, max_value=1e4),
        n=st.integers(min_value=0, max_value=1200),
    )
    @settings(max_examples=300, deadline=None)
    def test_idle_run_is_bit_identical_to_per_tick_loop(self, cap, fill, inc, waste, n):
        s = fill * cap
        assert _idle_run(s, waste, inc, cap, n) == idle_run_per_tick(s, waste, inc, cap, n)

    def test_idle_run_from_just_above_capacity(self):
        cap = 120.0
        s = np.nextafter(cap, 200.0)
        for inc in (0.0, 1 / 8.5):
            assert _idle_run(s, 0.0, inc, cap, 50) == idle_run_per_tick(s, 0.0, inc, cap, 50)

    @given(
        s=st.floats(min_value=0.0, max_value=30.0),
        inc=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
        limit=st.integers(min_value=0, max_value=1200),
    )
    @settings(max_examples=300, deadline=None)
    def test_charge_matches_per_tick_checks(self, s, inc, limit):
        level = 30.0 - 1e-9
        assert _add_below(s, inc, level, limit) == add_below_loop(s, inc, level, limit)

    @pytest.mark.parametrize("inc", [1 / 9, 1 / 8.5, 0.1])
    @pytest.mark.parametrize("clamp", ["first", "middle", "last", "at-cap", "never"])
    @pytest.mark.parametrize("n", [ACCUMULATE_MIN - 1, ACCUMULATE_MIN, ACCUMULATE_MIN + 1])
    def test_idle_run_around_the_accumulate_cut_over(self, n, clamp, inc):
        cap = 120.0
        # the pre-tick value of tick j is about cap - inc / 2: j clamps, j - 1 does not
        j = {"first": 0, "middle": n // 2, "last": n - 1, "never": n + 5}.get(clamp)
        s = cap if j is None else cap - j * inc - inc / 2
        got = _idle_run(s, 3.25, inc, cap, n)
        assert got == idle_run_per_tick(s, 3.25, inc, cap, n)
        assert all(type(v) is float for v in got)
        assert (got[1] > 3.25) == (clamp != "never")

    @pytest.mark.parametrize("inc, cap", [
        (1 / 8.5, 120.0), (0.375, 120.0), (0.0, 120.0), (60.0, 120.0), (90.0, 120.0),
        (120.0, 120.0), (1.0, 1.0), (0.75, 1.0),
    ])
    def test_idle_run_starting_around_the_first_clamping_value(self, inc, cap):
        # the exact stored energy at which `cap - s` rounds below `inc`, and
        # three floats on either side of it
        below = math.nextafter(inc, -math.inf)
        mid = float(Fraction(cap) - (Fraction(inc) + Fraction(below)) / 2)
        starts = [mid]
        for direction in (-math.inf, math.inf):
            s = mid
            for _ in range(3):
                s = math.nextafter(s, direction)
                starts.append(s)
        assert {inc > cap - s for s in starts} == {False, True}
        for s in starts:
            for n in (1, ACCUMULATE_MIN):
                assert _idle_run(s, 2.5, inc, cap, n) == idle_run_per_tick(s, 2.5, inc, cap, n)

    @given(**ADD_BELOW_ARGS)
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_add_below_matches_the_loop(self, x, inc, level, limit):
        got = _add_below(x, inc, level, limit)
        assert tuple(map(_bits, got)) == tuple(map(_bits, add_below_loop(x, inc, level, limit)))
        assert type(got[0]) is float

    @given(calls=st.lists(st.tuples(*ADD_BELOW_ARGS.values()), min_size=1, max_size=4))
    # a period's harvest total after each count of lit ticks
    @example(calls=[(0.0, 1 / 8.5, math.inf, k) for k in range(1201)])
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_the_sweep_cache_returns_the_sums_bit_for_bit(self, calls):
        engine._fill.cache_clear()
        for x, inc, level, limit in calls:
            # a miss, then a hit, from the start, from 0.0 and one ulp either side
            starts = (x, 0.0, math.nextafter(x, math.inf), max(0.0, math.nextafter(x, -math.inf)))
            for s in starts * 2:
                got = engine._fill(s, inc, level, limit)
                want = _add_below(s, inc, level, limit)
                assert tuple(map(_bits, got)) == tuple(map(_bits, want))
            got = engine._fill(x, inc, level, limit)
            assert tuple(map(_bits, got)) == tuple(map(_bits, add_below_loop(x, inc, level, limit)))
        assert engine._fill.cache_info().hits >= 4 * len(calls)

    def test_the_sweep_cache_keeps_int_and_float_starts_apart(self):
        # a sum that adds nothing returns its start: an int stays an int
        engine._fill.cache_clear()
        assert type(engine._fill(120.0, 0.5, 100.0, 5)[0]) is float
        assert type(engine._fill(120, 0.5, 100.0, 5)[0]) is int

    @pytest.mark.parametrize("x, inc, level, limit", [
        # inc / ulp is a half-integer: every addition is a round-half-even tie
        (2.0**52 + 1, 1.5, math.inf, 3000),
        (2.0**50 + 0.75, 0.375, math.inf, 3000),
        (2.0**50 + 0.25, 0.375, 2.0**50 + 600.0, 3000),
        (0.6, 1 / 3, math.inf, 20000),
        (0.6, 1 / 3, 1000.0, 20000),
        (0.0, 5e-324, math.inf, 3000),  # a subnormal inc: exact additions
        (1e-310, 3e-320, 1e-305, 3000),
        (1e4, 1e-300, math.inf, 3000),  # stalled: inc is under half an ulp
        (1e308, 1e292, math.inf, 3000),  # the top binade
        (1.79e308, 1e293, math.inf, 3000),  # overflows to inf
        (3.0, 0.0, 5.0, 3000),
        (130.0, 0.1, 120.0, 3000),  # starts at or above level
        (120.0, 0.1, 120.0, 3000),
        (-0.0, 0.0, 1.0, 10),
    ])
    def test_add_below_edge_cases(self, x, inc, level, limit):
        got = _add_below(x, inc, level, limit)
        assert tuple(map(_bits, got)) == tuple(map(_bits, add_below_loop(x, inc, level, limit)))

    def test_add_below_stalls_in_constant_time(self):
        with time_limit(1.0, "a stalled sum"):
            assert _add_below(1e4, 1e-300, math.inf, 10**15) == (1e4, 10**15)
            assert _add_below(3.0, 0.0, 5.0, 10**15) == (3.0, 10**15)

    @pytest.mark.parametrize("stop", ["level", "limit"])
    @pytest.mark.parametrize("run", [1, 2, ACCUMULATE_MIN - 1, ACCUMULATE_MIN, 1000])
    def test_charge_stops_at_level_or_limit(self, run, stop):
        s, inc = 0.3, 1 / 8.5
        # the level lies between the (n-1)-th and n-th post-tick values, or
        # the limit cuts the charge first
        if stop == "level":
            n = run + 2
            level, limit = s + (n - 0.5) * inc, n + 10
        else:
            n = run
            level, limit = 200.0, n
        expected = add_below_loop(s, inc, level, limit)
        assert expected[1] == n
        got = _add_below(s, inc, level, limit)
        assert got == expected
        assert type(got[0]) is float

    def test_add_below_spans_several_binades(self):
        n = 65543
        got = _add_below(0.25, 1 / 8.5, math.inf, n)
        assert got == add_below_loop(0.25, 1 / 8.5, math.inf, n) and type(got[0]) is float

    def test_gt_waste_across_binades_matches_oracle(self):
        # GT never draws: the store saturates in period 0 and every later
        # period wastes about 133 on a total that grows past 2**14
        config = base_config(policy="gt", entry_level=None, n_periods=150)
        kernel = run_experiment(config)
        waste = [log.wasted_saturation for log in kernel.periods]
        assert all(w > 0.0 for w in waste) and sum(waste) > 2.0**14
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    def test_accumulate_is_sequential_unlike_sum(self):
        # each 1e-16 is under half an ulp of 1.0, so in order they vanish;
        # a pairwise sum adds them up first
        values = np.array([1.0] + [1e-16] * 1000)
        total = 0.0
        for v in values.tolist():
            total += v
        assert total == 1.0
        assert np.add.accumulate(values)[-1] == total
        assert np.sum(values) != total


def draws_per_wake(s, lo, limit):
    """Chained wake-ups, one at a time."""
    k = 0
    while k < limit and s > lo and s >= 1.0 - DRAW_SLACK:
        s = max(0.0, s - 1.0)
        k += 1
    return k, s


class TestDraws:
    @given(
        whole=st.integers(min_value=0, max_value=300),
        frac=st.one_of(
            st.sampled_from((0.0, 1e-9, -1e-9, 5e-10, -5e-10)),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        ),
        e_off=st.one_of(
            st.integers(min_value=0, max_value=60).map(float),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        bounded=st.booleans(),
        limit=st.integers(min_value=0, max_value=40),
        ctid=st.booleans(),
    )
    @settings(max_examples=2000, deadline=None)
    def test_draws_match_the_per_wake_loop(self, whole, frac, e_off, bounded, limit, ctid):
        s = max(0.0, whole + frac)
        lo = e_off + DRAW_SLACK if ctid else -1.0
        limit = limit if bounded else sys.maxsize
        got = _draws(s, lo, limit)
        assert tuple(map(_bits, got)) == tuple(map(_bits, draws_per_wake(s, lo, limit)))
        assert type(got[1]) is float

    def test_draws_above_exact_integers_step_wake_by_wake(self):
        s = 2.0**53 + 2.0
        assert _draws(s, -1.0, 5) == draws_per_wake(s, -1.0, 5)


def stored_per_tick(draws, harvested, forced_at, entry_value, cap, s):
    """The rule the per-tick replay reproduces: forcing, the draw, then the
    harvest clamped at `cap`, one tick at a time."""
    stored = []
    for t, (d, h) in enumerate(zip(draws, harvested)):
        if t in forced_at:
            s = min(entry_value, cap)
        if d:
            s = s - 1.0 if s >= 1.0 else 0.0
        s = cap if h > cap - s else s + h
        stored.append(s)
    return stored


def replay_period(cap, s, inflows, draw_ticks=(), dark=(), forced_at=(), entry_value=None,
                  slot_len=10, draws_energy=True, wake_runs=(), end=None):
    """`engine._tick_arrays` on one period, and the per-tick arrays a plain
    loop gives.  `inflows` is one inflow per tick, or (inc, ticks) for a
    uniform inflow."""
    if isinstance(inflows, tuple):
        inc, ticks = inflows
        inflows = None
    else:
        inc, ticks = inflows[0], len(inflows)
    awake = [False] * ticks
    for t in (*draw_ticks, *(t for r in wake_runs for t in r)):
        awake[t] = True
    lit = [inc] * ticks if inflows is None else list(inflows)
    for a, b in dark:
        lit[a:b] = [0.0] * (b - a)
    draws = awake if draws_energy else [False] * ticks
    stored = stored_per_tick(draws, lit, set(forced_at), entry_value, cap, s)
    want = {
        "awake": np.array(awake, dtype=bool),
        "drawn": np.array([1.0 if d else 0.0 for d in draws]),
        "harvested": np.array(lit),
        "stored": np.array(stored),
    }
    policy = BasePolicy()
    policy.draws_energy = draws_energy
    got = engine._tick_arrays(
        policy, ticks, slot_len, [], list(draw_ticks), list(wake_runs), list(dark),
        list(forced_at), entry_value, inflows, inc, cap, s,
        stored[-1] if end is None else end)
    return got, want


# inflows up to three wake costs a tick, the presets' among them
INFLOWS = st.one_of(
    st.sampled_from([0.0, 1 / 8.5, 0.5, 1.0, 9 / 8.5, 20 / 8.5, 3.0]),
    st.floats(min_value=0.0, max_value=3.0),
)
BELOW_ONE = st.floats(min_value=1.0 - DRAW_SLACK, max_value=1.0, exclude_max=True)


@st.composite
def replay_cases(draw):
    slot_len = draw(st.integers(min_value=1, max_value=30))
    ticks = slot_len * draw(st.integers(min_value=1, max_value=400 // slot_len))
    tick = st.integers(min_value=0, max_value=ticks - 1)
    span = st.integers(min_value=1, max_value=90)
    # wake runs at 1, 0.5 and 0.2 Hz, as bursts, discharges and planned slots
    wake_runs = [range(a, min(a + n * k, ticks), k) for a, n, k in draw(
        st.lists(st.tuples(tick, span, st.sampled_from([1, 2, 5])), max_size=5))]
    dark = sorted({(a, min(a + n, ticks)) for a, n in draw(st.lists(st.tuples(tick, span),
                                                                      max_size=4))})
    if draw(st.booleans()):
        inflows = (draw(INFLOWS), ticks)
    else:  # runs of equal inflow, zeros among them
        runs = draw(st.lists(st.tuples(st.one_of(st.just(0.0), INFLOWS), span), min_size=1))
        inflows = [inc for inc, n in runs for _ in range(n)] * ticks
        inflows = inflows[:ticks]
    cap = draw(st.one_of(st.sampled_from([120.0, 35.0, 2.0, 1.5, 1.0]),
                         st.floats(min_value=0.5, max_value=150.0)))
    s = draw(st.one_of(st.just(cap), st.floats(min_value=0.0, max_value=1.0).map(
        lambda f: f * cap), BELOW_ONE.map(lambda v: min(v, cap))))
    return dict(
        cap=cap, s=s, inflows=inflows, dark=dark, wake_runs=wake_runs, slot_len=slot_len,
        draw_ticks=sorted(set(draw(st.lists(tick, max_size=30)))),
        forced_at=sorted(set(draw(st.lists(tick, max_size=3)))),
        entry_value=draw(st.one_of(st.just(cap), BELOW_ONE,
                                   st.floats(min_value=0.0, max_value=2.0 * cap))),
        draws_energy=draw(st.sampled_from([True, True, True, False])),
    )


class TestTickReplay:
    """The per-tick `stored` replay (`engine._tick_arrays`) against a plain
    per-tick loop: every array's dtype and bytes."""

    @given(case=replay_cases())
    @settings(max_examples=500, deadline=None)
    def test_replay_matches_the_per_tick_loop(self, case):
        assert_same_arrays(*replay_period(**case))

    @pytest.mark.parametrize("entry", [None, 15.0, 1.0 - DRAW_SLACK / 2])
    def test_draws_from_below_one_wake_cost_empty_the_store(self, entry):
        # dark for 20 ticks, one wake-up a tick from just under 5: the fifth
        # draw is from just under one wake cost, inside a window, and empties
        # the store; a forced tick that also draws does the same at tick 60
        s = 5.0 - DRAW_SLACK / 2
        forced = () if entry is None else (60,)
        got, want = replay_period(120.0, s, (0.3, 300), draw_ticks=(*range(5), *forced),
                           dark=((0, 20),), forced_at=forced, entry_value=entry)
        assert_same_arrays(got, want)
        assert want["stored"][4] == 0.0 and want["stored"][3] > 0.0
        if entry is not None:
            assert want["stored"][60] == max(0.0, entry - 1.0) + 0.3

    @pytest.mark.parametrize("inc", [0.6, 1.0, 9 / 8.5, 2.5])
    def test_a_draw_right_after_a_clamp(self, inc):
        cap, s = 120.0, 100.0 + 1 / 3
        u = next(t for t, v in enumerate(stored_per_tick([False] * 300, [inc] * 300, (),
                                                          None, cap, s)) if v == cap)
        # draws on the tick after the first clamp and at 0.5 Hz from there
        got, want = replay_period(cap, s, (inc, 300), draw_ticks=range(u + 1, 300, 2))
        assert_same_arrays(got, want)
        assert want["stored"][u] == cap and want["stored"][u - 1] < cap

    def test_an_end_one_ulp_off_raises(self):
        args = (120.0, 60.0, (1 / 8.5, 300))
        kwargs = dict(draw_ticks=range(0, 300, 3), forced_at=(150,), entry_value=30.0)
        end = replay_period(*args, **kwargs)[1]["stored"][-1]
        for off in (math.inf, -math.inf):
            with pytest.raises(RuntimeError, match="per-tick replay ends at"):
                replay_period(*args, **kwargs, end=math.nextafter(end, off))


class TestMetrics:
    def test_ratio_arithmetic(self):
        logs = []
        config = base_config(policy="gt", n_periods=1)
        result = run_experiment(config)
        m = compute_metrics(result.periods)
        assert m.total_catches == m.event_ticks

    def test_example_values(self):
        # 20 awake ticks, 5 with events -> efficiency 0.25
        from smarton_sim.engine import PeriodLog

        log = PeriodLog(
            period=0, phase_start=3, awake_ticks=20, event_ticks=8, catches=5,
            drawn=20.0, harvested=30.0, wasted_saturation=0.0,
            skipped_wakeups=0, stored_start=0.0, stored_end=10.0,
        )
        m = compute_metrics([log])
        assert m.total_catches == 5
        assert m.energy_efficiency == pytest.approx(0.25)

    def test_no_awake_ticks_is_zero_efficiency(self):
        from smarton_sim.engine import PeriodLog

        log = PeriodLog(
            period=0, phase_start=3, awake_ticks=0, event_ticks=8, catches=0,
            drawn=0.0, harvested=30.0, wasted_saturation=0.0,
            skipped_wakeups=0, stored_start=0.0, stored_end=30.0,
        )
        m = compute_metrics([log])
        assert m.energy_efficiency == 0.0

    def test_ideal_system_efficiency_one(self):
        from smarton_sim.engine import PeriodLog

        log = PeriodLog(
            period=0, phase_start=3, awake_ticks=12, event_ticks=12, catches=12,
            drawn=12.0, harvested=30.0, wasted_saturation=0.0,
            skipped_wakeups=0, stored_start=0.0, stored_end=18.0,
        )
        m = compute_metrics([log])
        assert m.energy_efficiency == 1.0

    def test_bounds_assertion(self):
        with pytest.raises(ValueError):
            Metrics(
                total_catches=10, energy_efficiency=0.5, awake_ticks=5,
                event_ticks=20, drawn=5.0, harvested=10.0,
            )


class TestExperiment:
    def test_measurement_window(self):
        config = base_config(n_periods=40)
        result = run_experiment(config)
        full = compute_metrics(result.periods)
        tail = compute_metrics(result.periods, from_period=30)
        assert tail.event_ticks < full.event_ticks

    def test_stop_rule_phase_ge(self):
        config = base_config(stop_rule="phase_ge:2", n_periods=100)
        result = run_experiment(config)
        assert result.phase_timeline[-1] == 1
        assert result.policy.current_phase >= 2
        assert result.n_periods_run < 100

    def test_stop_rule_phase3_stable(self):
        config = base_config(stop_rule="phase3_stable:5", n_periods=200)
        result = run_experiment(config)
        assert result.policy.current_phase == 3
        assert result.phase_timeline[-4:] == [3] * 4
        assert result.n_periods_run < 200

    def test_ctid_phase_jitter_without_inflow_terminates(self):
        config = base_config(
            policy="ctid", ctid_phase_jitter=True, source_level=0.0, n_periods=3,
            entry_level=None,
        )
        with time_limit(1.0, "CTID warm-up"):
            result = run_experiment(config)
        assert all(p.awake_ticks == 0 for p in result.periods)

    @pytest.mark.parametrize(
        "change, match",
        [
            (PatternChange(5, "replace", build_pattern([("type1", 1)]), entry_level=1),
             "entry_level forcing"),
            (PatternChange(5, "shift", 1), "entry_level forcing"),
            (PatternChange(5, "replace", build_pattern([("type1", 10)]), entry_level=9),
             "entry_level 9"),
            (PatternChange(5, "rotate"), "change kind"),
            (PatternChange(-1, "replace", build_pattern([("type1", 10)])), "period -1"),
            (PatternChange(3, "replace", build_pattern([("type1", 10)], period_ticks=2400)),
             "change at period 3"),
        ],
        ids=["misaligned-replace", "misaligned-shift", "level-out-of-range", "bad-kind",
             "negative-period", "other-period-length"],
    )
    def test_schedule_errors_are_rejected_when_the_config_is_built(self, change, match):
        # the base peak starts at tick 300, a multiple of the 60 s learner slot
        with pytest.raises(ValueError, match=match):
            base_config(learner=LearnerConfig(state_duration=60), schedule=(change,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["capacity", "charging_ratio", "source_level", "initial_stored"])
    def test_non_finite_numbers_are_rejected_when_the_config_is_built(self, name, value):
        # nan fails every range check's comparison: a nan source level ran
        # dark, and a nan initial store was ignored
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            base_config(**{name: value})

    def test_a_pattern_with_another_state_duration_is_a_valid_change(self):
        wide = build_pattern([("type1", 5)], state_duration=60, peak_max_duration=180)
        config = base_config(policy="gt", n_periods=6,
                             schedule=(PatternChange(3, "replace", wide),))
        events = [log.event_ticks for log in run_experiment(config).periods]
        assert events[:3] == [events[0]] * 3 and events[3:] == [events[3]] * 3
        assert events[3] != events[0]

    @pytest.mark.parametrize("policy", ["smarton", "ctidpro"])
    def test_changes_at_one_period_apply_in_list_order(self, policy):
        # a change without entry_level keeps the level the one before it set
        def run(*changes):
            return run_experiment(base_config(policy=policy, n_periods=40, schedule=changes))

        split = run(PatternChange(25, "shift", 2, entry_level=3), PatternChange(25, "shift", 2))
        assert_same_run(split, run(PatternChange(25, "shift", 4, entry_level=3)))
        kept = run(PatternChange(25, "shift", 4))
        assert [p.forced_delta for p in split.periods] != [p.forced_delta for p in kept.periods]

    def test_a_returning_pattern_replays_its_realization(self):
        t1, t3 = build_pattern([("type1", 10)]), build_pattern([("type3", 25)])
        config = base_config(
            n_periods=12, repeat_first_period=False, record_level="per-tick",
            schedule=(PatternChange(4, "replace", t3), PatternChange(8, "replace", t1)),
        )
        events = [log.ticks["event"] for log in run_experiment(config).periods]
        for p in range(4):
            assert np.array_equal(events[8 + p], events[p])
        assert not np.array_equal(events[1], events[0])  # fresh arrivals every period

    @pytest.mark.parametrize("level", [1e-6, 1e-7, 1e-8, 1e-300])
    def test_ctid_phase_jitter_with_an_unbounded_warm_up_is_rejected(self, level):
        with pytest.raises(ValueError, match="CTID cycle"):
            base_config(policy="ctid", ctid_phase_jitter=True, source_level=level,
                        entry_level=None)

    def test_ctid_phase_jitter_at_the_cycle_bound_terminates(self):
        # the longest accepted cycle, and a seed that warms up over 90% of it
        level = 30.0 * 8.5 / (MAX_JITTER_CYCLE - 100)
        config = base_config(
            policy="ctid", ctid_phase_jitter=True, source_level=level,
            charging_ratio=8.5, n_periods=2, entry_level=None, seed=7,
        )
        assert 0.99 * MAX_JITTER_CYCLE < config.ctid_cycle_ticks <= MAX_JITTER_CYCLE
        assert Stream(7, "ctid-phase").next_double() > 0.9
        with time_limit(2.0, "CTID warm-up"):
            result = run_experiment(config)
        assert result.periods[0].stored_start > 0.0

    @pytest.mark.parametrize("ticks", [0, 1, 137, 271, 600])
    @pytest.mark.parametrize("e_on, frequency", [(30.0, 1.0), (10.0, 0.5), (130.0, 1.0)])
    def test_ctid_warm_up_matches_per_tick_oracle(self, ticks, e_on, frequency):
        states = []
        for warm_up in (_ctid_warm_up, per_tick_oracle.ctid_warm_up):
            policy = CtidPolicy(CtidConfig(e_on=e_on, discharge_frequency=frequency))
            store = AbstractStore(120, 8.5)
            warm_up(policy, store, HarvestSource.constant(1.0), ticks)
            states.append((store.stored.hex(), store.wasted_saturation.hex(),
                           policy.discharging, policy.discharge_start))
        assert states[0] == states[1]

    def test_phase_jitter_starts_ctid_mid_cycle(self):
        config = base_config(policy="ctid", entry_level=None, n_periods=1)
        cold = run_experiment(config)
        warm = run_experiment(dc_replace(config, ctid_phase_jitter=True))
        assert cold.periods[0].stored_start == 0.0
        assert warm.periods[0].stored_start > 0.0

    def test_zero_periods_empty_result(self):
        config = base_config(n_periods=0)
        result = run_experiment(config)
        assert result.periods == []

    def test_adaptation_skips_phase2_on_return(self):
        p1 = build_pattern([("type1", 10)])
        p3 = build_pattern([("type3", 25)])
        seg = 70
        config = base_config(
            n_periods=3 * seg, seed=0,
            schedule=(
                PatternChange(seg, "replace", p3, entry_level=3),
                PatternChange(2 * seg, "replace", p1, entry_level=4),
            ),
        )
        result = run_experiment(config)
        third = result.phase_timeline[2 * seg :]
        assert 2 not in third
        assert 1 in third  # re-profiling happened
        assert 3 in third  # and led straight back to exploitation

    def test_shift_schedule_keeps_shape_key(self):
        config = base_config(
            n_periods=150, seed=0,
            schedule=(PatternChange(70, "shift", 12),),
        )
        result = run_experiment(config)
        # positional drift: re-profiling finds the same shape, Phase-2 skipped
        after = result.phase_timeline[70:]
        assert 2 not in after
        assert 1 in after and 3 in after

    def test_convergence_stats_shape(self):
        result = run_experiment(base_config())
        stats = convergence_stats(result)
        assert stats["phase1_stays"][0]["passes"] > 0
        assert stats["phase2_episodes"] > 0
        per_level = stats["per_level"]
        assert any(level == 4 for (_, level) in per_level)
        for info in per_level.values():
            assert info["episodes_to_converge"] >= 5  # at least the window


class TestPartitionStudy:
    def test_five_x_separation_and_order_effect(self):
        config = base_config(
            learner=LearnerConfig(k_levels=10), entry_level=None, seed=7,
        )
        order = Stream(7, "shuffle").shuffled(range(1, 11))
        study = run_partition_study(config, order)
        assert set(study.episodes_per_level) == set(range(1, 11))
        assert study.first_converged_at == study.episodes_per_level[order[0]]
        assert study.all_converged_at >= 5 * study.first_converged_at

    @pytest.mark.parametrize("order", [[0], [5], [2, 2], []])
    def test_bad_order_is_refused_before_any_period(self, order, monkeypatch):
        # a level outside 1..k or a repeated level could never latch
        def no_period(*args):
            raise AssertionError("a period ran")

        monkeypatch.setattr(engine, "run_period", no_period)
        with pytest.raises(ValueError, match=r"distinct levels in 1\.\.4"):
            run_partition_study(base_config(entry_level=None), order)

    def test_a_peak_inside_a_learner_slot_is_refused_before_any_period(self, monkeypatch):
        # forcing sets the store at the peak's start, tick 330: inside the
        # 60-tick learner slot 5
        def no_period(*args):
            raise AssertionError("a period ran")

        monkeypatch.setattr(engine, "run_period", no_period)
        config = base_config(pattern=build_pattern([("type1", 11)]), entry_level=None,
                             learner=LearnerConfig(state_duration=60))
        with pytest.raises(ValueError, match="tick 330 is not a multiple"):
            run_partition_study(config, [1])

    def test_entry_forcing_value(self):
        assert entry_level_energy(4, 120.0, 4) == pytest.approx(105.0)
        assert entry_level_energy(1, 120.0, 4) == pytest.approx(15.0)


class TestSharedRowSpeedup:
    def test_later_learned_levels_need_fewer_episodes(self):
        # first-half vs second-half mean over 20 shuffled orders at K=10
        pattern = build_pattern([("type1", 10)])
        halves = {"early": [], "late": []}
        for seed in range(20):
            config = SimConfig(
                pattern=pattern, learner=LearnerConfig(k_levels=10),
                policy="smarton", repeat_first_period=True, seed=seed,
            )
            order = Stream(seed, "shuffle").shuffled(range(1, 11))
            study = run_partition_study(config, order)
            for position, level in enumerate(study.order, start=1):
                episodes = study.episodes_per_level[level]
                halves["early" if position <= 5 else "late"].append(episodes)
        early = np.mean(halves["early"])
        late = np.mean(halves["late"])
        assert late < early, f"late {late:.1f} not below early {early:.1f}"


class TestVaryingSourceRuns:
    def test_trace_file_is_read_once_per_config(self, tmp_path, monkeypatch):
        path = tmp_path / "source.txt"
        path.write_text("\n".join(map(str, TRACE_VALUES)) + "\n", encoding="utf-8")
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(energy, "open", counting_open, raising=False)
        # three segments, each of which builds its own source
        config = base_config(
            n_periods=12, source_kind="trace", source_path=str(path),
            schedule=(PatternChange(4, "shift", 1), PatternChange(8, "shift", 2)),
        )
        want = run_experiment(config)
        # the file changes after validation; runs keep the validated values,
        # also where the config crosses a process boundary
        path.write_text("9.0\n", encoding="utf-8")
        assert_same_run(run_experiment(config), want)
        assert_same_run(run_experiment(pickle.loads(pickle.dumps(config))), want)
        assert opened == [str(path)]

    def test_diurnal_source_runs(self):
        config = SimConfig(
            pattern=build_pattern([("type1", 10)]),
            policy="ctid",
            source_kind="diurnal",
            n_periods=5,
            seed=0,
        )
        result = run_experiment(config)
        assert result.n_periods_run == 5


class TestProfilingPassCounts:
    def test_four_fundable_slots_per_pass_means_ten_passes(self):
        # charging ratio 10: per-pass inflow funds 1200/10/30 = 4 slots, so
        # visiting all 40 slots once takes exactly 10 passes
        config = SimConfig(
            pattern=build_pattern([("type1", 10)]),
            policy="smarton",
            charging_ratio=10.0,
            learner=LearnerConfig(profile_window=1),
            repeat_first_period=True,
            n_periods=100,
            seed=0,
            stop_rule="phase_ge:2",
        )
        result = run_experiment(config)
        stay = result.phase1_stays[0]
        assert stay["profiles"] == 1
        # the counting argument gives 10; the staggered first-fundable slot
        # wraps the final leftovers into one extra period
        assert stay["passes"] in (10, 11)

    def test_unconstrained_energy_profiles_everything_in_one_pass(self):
        config = SimConfig(
            pattern=build_pattern([("type1", 10)]),
            policy="smarton",
            capacity=5000.0,
            initial_stored=5000.0,
            charging_ratio=1.0,
            repeat_first_period=True,
            n_periods=10,
            seed=0,
            stop_rule="phase_ge:2",
        )
        result = run_experiment(config)
        stay = result.phase1_stays[0]
        assert stay["passes"] == 2  # one pass per full profile
        assert stay["profiles"] == 2


class TestPerLevelConvergenceShape:
    def test_bottom_level_converges_fastest_at_k4(self):
        # the smallest affordable set gives level 1 the smallest partition;
        # levels 2-4 come out statistically flat under the default energy
        # dynamics (upward level crossings within an episode do not occur
        # at these level widths)
        pattern = build_pattern([("type1", 10)])
        means = {}
        for level in (1, 2, 3, 4):
            episodes = []
            for seed in range(10):
                config = SimConfig(
                    pattern=pattern, learner=LearnerConfig(k_levels=4),
                    policy="smarton", repeat_first_period=True, seed=seed,
                )
                study = run_partition_study(config, [level])
                episodes.append(study.episodes_per_level[level])
            means[level] = np.mean(episodes)
        assert means[1] < min(means[2], means[3], means[4])
