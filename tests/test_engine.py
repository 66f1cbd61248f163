"""Simulation engine: the tick loop, metrics, experiments, studies."""

import math
import pickle
import signal
from contextlib import contextmanager
from dataclasses import fields, replace as dc_replace
from decimal import Decimal
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smarton_sim import energy, engine
from smarton_sim.energy import AbstractStore, HarvestSource
from smarton_sim.engine import (
    MAX_JITTER_CYCLE,
    Metrics,
    PatternChange,
    Segment,
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
    _ctid_run,
    _ctid_warm_up,
    _idle,
    _tick_arrays,
)
from smarton_sim.events import build_pattern
from smarton_sim.learner import LearnerConfig, wake_offsets
from smarton_sim.policies import (
    BasePolicy, CtidConfig, CtidPolicy, CtidProPolicy, GtPolicy, SmartOnPolicy,
)
from smarton_sim.rng import Stream
from smarton_sim.scenario import PRESETS, build_sim_config, expand_sweep, parse_config

import per_tick_oracle
from per_tick_oracle import store_for


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


class FixedPlanner(BasePolicy):
    """Plans `plans[slot]`, cut to the wake-ups that the store funds at the
    slot start."""

    def __init__(self, plans, wake):
        self.plans, self.wake = plans, wake

    def plan_slot(self, slot, stored):
        return self.plans[slot][: stored // self.wake]


def run_fixed_plans(plans, slot_len, wake, inc, cap, stored, events, record):
    """One period of `FixedPlanner` slots at `inc` quanta a tick, a wake-up
    costing `wake` quanta, through the kernel and the per-tick oracle: every
    log field must agree and no wake-up is skipped.  Returns the oracle's log."""
    source = HarvestSource.constant(inc)  # `inc` quanta a tick at ratio `wake`
    stores = [AbstractStore(cap, float(wake), wake, stored) for _ in range(2)]
    segment = Segment.of(source, stores[0], len(plans) * slot_len, slot_len, record=record)
    got = run_period(FixedPlanner(plans, wake), stores[0], segment, events, 0)
    want = per_tick_oracle.run_period(FixedPlanner(plans, wake), stores[1], segment, events, 0)
    assert_same_log(got, want)
    assert stores[0] == stores[1]
    assert got.skipped_wakeups == 0
    return want


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


def decimals(low, high, places):
    """Decimals from `low` to `high` with `places` decimal places, the way an
    INI file writes energy inputs."""
    return st.decimals(min_value=Decimal(str(low)), max_value=Decimal(str(high)),
                       places=places, allow_nan=False, allow_infinity=False)


def ledger_residual(log, d):
    """stored_end - (stored_start + harvested + forced - drawn - wasted), in
    quanta of `d` to a wake cost, each recovered from its log value."""
    def q(x):
        n = round(x * d)
        assert n / d == x, (x, d)
        return n
    return q(log.stored_end) - (q(log.stored_start) + q(log.harvested) + q(log.forced_delta)
                                - q(log.drawn) - q(log.wasted_saturation))


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
        store = store_for(120, 9)
        segment = Segment.of(HarvestSource.constant(1.0), store, 1200, 30)
        log = run_period(GtPolicy(), store, segment, [0] * 1200, 0)
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
            assert ledger_residual(log, config.quantum) == 0

    def test_ledger_identity_without_forcing(self):
        config = base_config(record_level="per-tick", n_periods=10, entry_level=None)
        result = run_experiment(config)
        for log in result.periods:
            assert log.forced_delta == 0.0
            assert ledger_residual(log, config.quantum) == 0

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
        ratio=decimals(1, 20, 2),
        capacity=decimals(20, 300, 1),
        level=st.one_of(st.just(Decimal(0)), decimals(0.1, 3, 2)),
        fill=st.one_of(st.just(Decimal(0)), decimals(0, 1, 2)),
        e_on=decimals(2, 200, 1),
        e_off_share=st.one_of(st.just(Decimal(0)), decimals(0, 0.99, 2)),
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
            policy=policy, charging_ratio=float(ratio), capacity=float(capacity),
            source_level=float(level), initial_stored=float(fill * capacity),
            ctid=CtidConfig(e_on=float(e_on), e_off=float(e_off_share * e_on),
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
    @pytest.mark.parametrize("frequency, level, stored", [(0.2, 2.7, 118.95), (0.5, 5.4, 117.9)])
    def test_short_gaps_that_clamp_inside_the_slot_match_the_oracle(
        self, frequency, level, stored, record
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
        # 3.5 ticks' inflow below capacity
        stores = [store_for(120, 9, stored, levels=(level,)) for _ in range(2)]
        mid_gap_clamps = 0
        segment = Segment.of(source, stores[0], 1200, 30, record=record)
        for p in range(3):
            got = run_period(Planner(), stores[0], segment, events, p)
            want = per_tick_oracle.run_period(Planner(), stores[1], segment, events, p)
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
    @pytest.mark.parametrize("source, step", [
        pytest.param(HarvestSource.constant(1.0), 1.0, id="constant"),
        # lit for the first period, dark for the second, on a grid of 1e-6
        pytest.param(HarvestSource.diurnal(1.0, day_ticks=2400), 1e-6, id="diurnal"),
    ])
    def test_unfundable_wake_ups_are_skipped_as_in_the_oracle(self, source, step, record):
        class Overplanner(BasePolicy):
            """Wake-ups one tick apart and with gaps, 11 per 30-tick slot:
            more than a source at 1/9 of a wake cost per tick funds."""

            def plan_slot(self, slot, stored):
                return (0, 1, 2, 3, 10, 11, 12, 13, 14, 28, 29)

        events = bytes(t % 3 == 0 for t in range(1200))
        stores = [store_for(120, 9, 40.0, levels=(step,)) for _ in range(2)]
        skipped = awake = 0
        segment = Segment.of(source, stores[0], 1200, 30, record=record)
        for p in range(3):
            got = run_period(Overplanner(), stores[0], segment, events, p)
            want = per_tick_oracle.run_period(Overplanner(), stores[1], segment, events, p)
            assert_same_log(got, want)
            skipped += got.skipped_wakeups
            awake += got.awake_ticks
        assert stores[0] == stores[1]
        assert skipped > 0 and awake > 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), wake=st.integers(1, 5), inc=st.integers(0, 12),
           slot_len=st.integers(1, 40), n_slots=st.integers(1, 4),
           as_list=st.booleans(), record=st.booleans())
    def test_funded_slots_match_the_oracle(self, data, wake, inc, slot_len, n_slots, as_list,
                                           record):
        # every slot is funded at its start, so the kernel takes its closed
        # form; stores near a small capacity clamp inside the slots
        cap = data.draw(st.integers(wake, 12 * wake), label="cap")
        stored = data.draw(st.integers(0, cap), label="stored")
        offsets = st.sets(st.integers(0, slot_len - 1)).map(sorted).map(tuple)
        plans = data.draw(st.lists(offsets, min_size=n_slots, max_size=n_slots), label="plans")
        events = data.draw(st.binary(min_size=n_slots * slot_len, max_size=n_slots * slot_len)
                           .map(lambda b: bytes(x & 1 for x in b)), label="events")
        run_fixed_plans(plans, slot_len, wake, inc, cap, stored,
                        list(events) if as_list else events, record)

    @pytest.mark.parametrize("as_list", [False, True], ids=["bytes", "list"])
    @pytest.mark.parametrize("record", [False, True], ids=["summary", "per-tick"])
    @pytest.mark.parametrize("plans, cap, stored, clamps", [
        # a wake-up at 0 and at L - 1: from 5 quanta the store fills at tick
        # 6 and clamps from tick 7 to the last wake-up
        pytest.param([(0, 29)], 10, 5, [1], id="clamps-once"),
        # from full, each wake-up takes 2 quanta back, which 2 ticks refill
        pytest.param([(0, 10, 20)], 10, 10, [3], id="clamps-three-times"),
        pytest.param([(), (0, 1, 2, 3)], 10, 0, [1, 1], id="empty-plan"),
        pytest.param([()], 40, 11, [1], id="clamps-on-the-last-tick"),
    ])
    def test_funded_slots_that_clamp_match_the_oracle(self, plans, cap, stored, clamps, record,
                                                      as_list):
        # a wake-up costs 2 quanta and a tick harvests 1
        events = bytes(t % 3 == 0 for t in range(30 * len(plans)))
        events = list(events) if as_list else events
        run_fixed_plans(plans, 30, 2, 1, cap, stored, events, record)
        # the oracle's clamps per slot: the runs of ticks whose draw and
        # harvest overflow the capacity
        ticks = run_fixed_plans(plans, 30, 2, 1, cap, stored, events, True).ticks
        s, over = stored, []
        for d, h in zip(ticks["drawn"], ticks["harvested"]):
            s += 2 * (h - d)
            over.append(s > cap)
            s = min(s, cap)
        starts = [t for t in range(len(over)) if over[t] and (t % 30 == 0 or not over[t - 1])]
        assert [sum(t // 30 == i for t in starts) for i in range(len(plans))] == clamps

    def test_partition_study_matches_per_tick_oracle(self):
        config = base_config(learner=LearnerConfig(k_levels=4), entry_level=None, seed=5)
        kernel = run_partition_study(config, [3, 1])
        assert kernel == per_tick_oracle.run_partition_study(config, [3, 1])

    def test_a_partition_study_prices_each_entry_level_once(self, monkeypatch):
        config = base_config(learner=LearnerConfig(k_levels=4), entry_level=None, seed=5)
        calls = []

        def spy(*args):
            calls.append(args)
            return entry_level_energy(*args)

        monkeypatch.setattr(engine, "entry_level_energy", spy)
        run_partition_study(config, [3, 1])  # 100 periods
        assert [level for level, *_ in calls] == [3, 1]

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


def count_ctid_runs(monkeypatch):
    """Patch `engine._ctid_run` and `engine._tick_arrays` so that the start
    state (stored quanta, discharging, cadence) of every CTID span computed
    and the end of every array set built are appended to the two returned
    lists."""
    computed, built = [], []
    ctid_run, tick_arrays = engine._ctid_run, engine._tick_arrays

    def counting_ctid_run(*args):
        computed.append((args[0], args[7], args[8]))
        return ctid_run(*args)

    def counting_tick_arrays(*args):
        built.append(args[-1])
        return tick_arrays(*args)

    monkeypatch.setattr(engine, "_ctid_run", counting_ctid_run)
    monkeypatch.setattr(engine, "_tick_arrays", counting_tick_arrays)
    return computed, built


class TestSteadyStateReplay:
    """Phase-3 episodes are replayed from a memo within a run, and GT and
    CTID periods, with their per-tick arrays, from the run policy's
    `periods`; every number must still match the per-tick oracle."""

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
        monkeypatch.undo()
        oracle = per_tick_oracle.run_experiment(dc_replace(config, record_level="per-tick"))
        peak = kernel.policy.ctx.known_peaks[0]
        a, b = peak.start_slot * 30, peak.end_slot * 30
        phase3 = [p for p, log in enumerate(oracle.periods) if log.phase_start == 3]
        assert len(phase3) > 50
        assert all((oracle.periods[p].ticks["stored"][a:b] == config.capacity).any()
                   for p in phase3)
        # an episode that reaches capacity is stored with its waste and replayed
        assert set(planned) == {phase3[0]}
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    def test_varying_entry_energy_matches_oracle(self, monkeypatch):
        # without forcing, and with a store too weak to saturate before the
        # peak, probes leave the store at many entry energies; exact, they
        # recur, and each is planned once
        config = base_config(n_periods=150, repeat_first_period=False, entry_level=None,
                             learner=self.QUICK, charging_ratio=20.0, capacity=200.0)
        planned = phase3_plans(monkeypatch)
        kernel = run_experiment(config)
        phase3 = [p for p, phase in enumerate(kernel.phase_timeline) if phase == 3]
        assert len(phase3) > 30
        assert len(phase3) > len(set(planned)) == len(kernel.policy.episode_memo) > 10
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
    def test_ctid_charge_phases_cut_by_the_period_end_match_oracle(self, frequency):
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
        assert_kernel_matches_oracle(config)

    def test_ctid_without_inflow_terminates_and_matches_oracle(self):
        config = base_config(policy="ctid", source_level=0.0, initial_stored=50.0,
                             entry_level=None, n_periods=20)
        with time_limit(1.0, "CTID without inflow"):
            kernel = run_experiment(config)
        # the first discharge drains the 50 wake costs, and no charge
        # reaches e_on again
        assert [log.awake_ticks for log in kernel.periods] == [50] + [0] * 19
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("e_on", [
        # the 285-tick cycle realigns with the period after 19 periods
        pytest.param(30.0, id="e_on-30"),
        # one inflow of 1/8.5 could clamp a store just below e_on
        pytest.param(119.95, id="e_on-near-cap"),
    ])
    def test_ctid_periods_replay_from_their_start_state(self, e_on, record_level, monkeypatch):
        computed, built = count_ctid_runs(monkeypatch)
        starts = []
        run_period = engine.run_period

        def recording_starts(policy, store, *args):
            starts.append((store.stored, policy.discharging, policy.discharge_start))
            return run_period(policy, store, *args)

        monkeypatch.setattr(engine, "run_period", recording_starts)
        config = base_config(policy="ctid", ctid=CtidConfig(e_on=e_on), charging_ratio=8.5,
                             entry_level=None, repeat_first_period=False,
                             record_level=record_level)
        kernel = run_experiment(config)
        # each distinct start state is computed once, and kept on the policy
        assert len(starts) == config.n_periods
        assert sorted(computed) == sorted(set(starts))
        assert len(computed) == len(kernel.policy.periods) < 25
        # catches are counted from each period's fresh events
        assert len({log.catches for log in kernel.periods[25:]}) > 5
        if record_level == "per-tick":
            # the per-tick arrays are built once per distinct start state; an
            # empty store left discharging flips at once, as one not
            # discharging, so two start states can share one period
            records = {(log.stored_start, log.ticks["awake"].tobytes(),
                        log.ticks["harvested"].tobytes()) for log in kernel.periods}
            assert len(built) == len(computed) >= len(records) > 1
        monkeypatch.undo()
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("policy", ["gt", "ctid"])
    def test_no_period_is_shared_between_runs(self, policy, record_level, monkeypatch):
        computed, built = count_ctid_runs(monkeypatch)
        config = base_config(policy=policy, charging_ratio=8.5, entry_level=None,
                             repeat_first_period=False, n_periods=40, record_level=record_level)
        runs, counts = [], []
        for _ in "ab":
            runs.append(run_experiment(config))
            counts.append((len(computed), len(built), len(runs[-1].policy.periods)))
            computed.clear()
            built.clear()
        # the second run of the config computes every period the first did
        assert counts[0] == counts[1] and counts[0][2] > 0
        assert (counts[0][0] > 0) == (policy == "ctid")
        assert (counts[0][1] > 0) == (record_level == "per-tick")
        assert runs[0].policy.periods is not runs[1].policy.periods
        monkeypatch.undo()
        assert_same_run(runs[1], runs[0])
        assert_same_run(runs[0], per_tick_oracle.run_experiment(config))

    @pytest.mark.parametrize("policy", ["gt", "ctid"])
    def test_replayed_per_tick_periods_own_their_arrays(self, policy):
        config = base_config(policy=policy, charging_ratio=8.5, entry_level=None,
                             repeat_first_period=False, n_periods=40, record_level="per-tick")
        kernel = run_experiment(config)
        kept_arrays = [run[-1] for run in kernel.policy.periods.values()]
        assert 0 < len(kept_arrays) < 25 and all(kept_arrays)

        def snapshot(arrays):
            return {name: (a.dtype, a.tobytes()) for name, a in arrays.items()}

        logs = [snapshot(log.ticks) for log in kernel.periods]
        kept = [snapshot(arrays) for arrays in kept_arrays]
        # a period whose arrays the run built, and a replay of it
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
        assert [snapshot(arrays) for arrays in kept_arrays] == kept

    def test_a_replayed_period_keeps_the_end_check(self):
        store = store_for(120, 9)
        source = HarvestSource.constant(1.0)
        summary, recorded = (Segment.of(source, store, 1200, 30, record=record)
                             for record in (False, True))
        policy = GtPolicy()
        log = run_period(policy, store_for(120, 9), summary, bytes(1200), 0)
        (run,) = policy.periods.values()
        assert run[-1] is None
        # a recorded replay of a summary period builds its arrays once, and
        # checks that they end at the kernel's end
        again = run_period(policy, store_for(120, 9), recorded, bytes(1200), 0)
        assert_same_log(again, run_period(GtPolicy(), store_for(120, 9), recorded,
                                          bytes(1200), 0))
        assert again.catches == log.catches and run[-1] is not None
        run[0] -= 1
        run[-1] = None
        with pytest.raises(RuntimeError, match="per-tick replay ends at"):
            run_period(policy, store_for(120, 9), recorded, bytes(1200), 0)

    def test_each_policy_owns_its_periods(self):
        # a class-level dict would be shared by every run in the process
        assert GtPolicy().periods is not GtPolicy().periods
        ctid = CtidConfig()
        assert CtidPolicy(ctid).periods is not CtidPolicy(ctid).periods

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

    FLOOR = 30.0  # the top frequency's 30 wake-ups in a 30-tick slot

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("capacity", [
        pytest.param(120.0, id="cap-120"),
        # an inflow of 1/9 clamps a store 0.05 above the floor
        pytest.param(30.05, id="cap-just-above-floor"),
    ])
    def test_profile_slots_below_the_floor(self, capacity, record_level, monkeypatch):
        config = base_config(capacity=capacity, entry_level=None, n_periods=6,
                             record_level=record_level)
        calls = plan_calls(monkeypatch, SmartOnPolicy)
        kernel = run_experiment(config)
        assert kernel.phase_timeline == [1] * 6
        below = sum(stored < self.FLOOR * config.quantum for _, stored, _ in calls)
        assert below == 0
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


def idle_per_tick(s, waste, inc, cap, n):
    """The store's harvest clamp, one tick at a time."""
    for _ in range(n):
        room = cap - s
        if inc > room:
            waste += inc - room
            s = cap
        else:
            s += inc
    return s, waste


# energies in quanta at one quantum per wake cost, and scaled past 2**64
SCALES = st.sampled_from([1, 1, 2**70])


class TestIdleRuns:
    @pytest.mark.parametrize("s, inc, cap, n, want", [
        pytest.param(5, 3, 100, 0, (5, 7), id="no-ticks"),
        pytest.param(5, 0, 100, 10**9, (5, 7), id="no-inflow"),
        pytest.param(40, 3, 100, 20, (100, 7), id="fills-exactly"),
        pytest.param(40, 3, 100, 21, (100, 10), id="one-tick-over"),
        pytest.param(100, 3, 100, 5, (100, 22), id="full"),
        pytest.param(99, 5, 100, 1, (100, 11), id="clamps-on-its-only-tick"),
        pytest.param(0, 2**80, 2**81 + 1, 3, (2**81 + 1, 2**80 + 6), id="past-2**64"),
    ])
    def test_idle_run_edge_cases(self, s, inc, cap, n, want):
        assert _idle(s, 7, n * inc, cap) == want == idle_per_tick(s, 7, inc, cap, min(n, 50))
    @given(
        cap=st.integers(min_value=1, max_value=10**5),
        share=st.integers(min_value=0, max_value=1000),
        inc=st.integers(min_value=0, max_value=500),
        waste=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=0, max_value=1200),
        scale=SCALES,
    )
    @settings(max_examples=300, deadline=None)
    def test_idle_run_equals_the_per_tick_loop(self, cap, share, inc, waste, n, scale):
        cap, inc, waste = cap * scale, inc * scale, waste * scale
        s = cap * share // 1000
        assert _idle(s, waste, n * inc, cap) == idle_per_tick(s, waste, inc, cap, n)

    def test_gt_waste_over_150_periods_matches_oracle(self):
        # GT never draws: the store saturates in period 0 and every later
        # period wastes what it harvests
        config = base_config(policy="gt", entry_level=None, n_periods=150)
        kernel = run_experiment(config)
        waste = [log.wasted_saturation for log in kernel.periods]
        assert all(w > 0.0 for w in waste) and len(set(waste[1:])) == 1
        assert_same_run(kernel, per_tick_oracle.run_experiment(config))


def ctid_per_tick(s, waste, cap, wake, e_on, e_off, interval, discharging, start, inflows, t0):
    """CTID's rule, one tick at a time from tick t0, at `inflows[i]` quanta
    on tick t0 + i: (s, waste, discharging, start in the next frame, wake
    ticks, dark ticks)."""
    wakes, dark = [], []
    for i, inc in enumerate(inflows):
        t = t0 + i
        if discharging and (s <= e_off or s < wake):
            discharging = False
        if not discharging and s >= e_on:
            discharging, start = True, t
        if discharging:
            dark.append(t)
            if (t - start) % interval == 0:
                assert s >= wake
                s -= wake
                wakes.append(t)
        else:
            s, waste = idle_per_tick(s, waste, inc, cap, 1)
    end = t0 + len(inflows)
    return s, waste, discharging, (start - end) % interval, wakes, dark


@st.composite
def ctid_cases(draw):
    scale = draw(SCALES)
    wake = draw(st.integers(min_value=1, max_value=20))
    cap = draw(st.integers(min_value=wake, max_value=400))
    # e_on at least one wake cost, and past capacity too, where no charge ends
    e_on = draw(st.integers(min_value=wake, max_value=cap + 50))
    e_off = draw(st.integers(min_value=0, max_value=e_on - 1))
    interval = draw(st.integers(min_value=1, max_value=7))
    pieces = draw(st.lists(st.tuples(st.integers(min_value=1, max_value=200),
                                     st.integers(min_value=0, max_value=30)),
                           min_size=1, max_size=4))
    t0 = draw(st.integers(min_value=0, max_value=300))
    inflows = [inc * scale for n, inc in pieces for _ in range(n)]
    return dict(
        s=draw(st.integers(min_value=0, max_value=cap)) * scale, waste=0, cap=cap * scale,
        wake=wake * scale, e_on=e_on * scale, e_off=e_off * scale, interval=interval,
        discharging=draw(st.booleans()), start=draw(st.integers(min_value=-10, max_value=10)),
        P=cumulative(inflows, t0), t=t0, end=t0 + len(inflows),
    ), inflows


def cumulative(inflows, t0=0):
    """`P` of ticks t0.. at `inflows[i]` quanta on tick t0 + i: `P[t0]` is 0,
    and the ticks before t0 are never read."""
    return [0] * t0 + list(accumulate(inflows, initial=0))


class TestCtidRuns:
    """A CTID charge is one bisection of the cumulative inflow and a
    discharge one draw run: `engine._ctid_run` against CTID's rule stepped
    tick by tick."""

    @pytest.mark.parametrize("s, inc, e_on, e_off, interval", [
        pytest.param(0, 7, 100, 0, 1, id="e_on-at-capacity-clamps"),
        pytest.param(0, 7, 150, 0, 1, id="e_on-past-capacity"),
        pytest.param(30, 0, 50, 0, 1, id="no-inflow"),
        pytest.param(60, 3, 50, 20, 3, id="e_off-met-exactly"),
        pytest.param(60, 3, 50, 21, 7, id="e_off-between-wake-ups"),
        pytest.param(9, 1, 10, 0, 2, id="discharge-below-one-wake"),
    ])
    def test_ctid_run_edge_cases(self, s, inc, e_on, e_off, interval):
        # capacity 100, a wake-up costs 10; 1,000 ticks from tick 300
        args = dict(s=s, waste=0, cap=100, wake=10, e_on=e_on, e_off=e_off, interval=interval,
                    discharging=False, start=0)
        s, waste, discharging, start, dark, wakes = _ctid_run(
            **args, P=cumulative([inc] * 1000, 300), t=300, end=1300)
        want = ctid_per_tick(**args, inflows=[inc] * 1000, t0=300)
        assert (s, waste, discharging, start) == want[:4]
        assert [t for r in wakes for t in r] == want[4]
        assert [t for a, b in dark for t in range(a, b)] == want[5]

    @given(drawn=ctid_cases())
    @settings(max_examples=500, deadline=None)
    def test_ctid_run_equals_the_per_tick_loop(self, drawn):
        case, inflows = drawn  # `P` of up to 4 inflows, piece by piece, for charges to bisect
        s, waste, discharging, start, dark, wakes = _ctid_run(**case)
        args = {k: case[k] for k in ("s", "waste", "cap", "wake", "e_on", "e_off", "interval",
                                     "discharging", "start")}
        want = ctid_per_tick(**args, inflows=inflows, t0=case["t"])
        assert (s, waste, discharging, start) == want[:4]
        assert [t for r in wakes for t in r] == want[4]
        assert [t for a, b in dark for t in range(a, b)] == want[5]


@st.composite
def replay_cases(draw):
    scale = draw(SCALES)
    slot_len = draw(st.integers(min_value=1, max_value=30))
    ticks = slot_len * draw(st.integers(min_value=1, max_value=400 // slot_len))
    tick = st.integers(min_value=0, max_value=ticks - 1)
    span = st.integers(min_value=1, max_value=90)
    wake = draw(st.integers(min_value=1, max_value=20))
    cap = draw(st.integers(min_value=1, max_value=400))
    inflow = st.integers(min_value=0, max_value=3 * wake)
    if draw(st.booleans()):
        inflows = None
        inc = draw(inflow)
    else:  # runs of equal inflow, zeros among them
        runs = draw(st.lists(st.tuples(st.one_of(st.just(0), inflow), span), min_size=1))
        inflows = ([inc * scale for inc, n in runs for _ in range(n)] * ticks)[:ticks]
        inc = None
    return dict(
        scale=scale, slot_len=slot_len, ticks=ticks, wake=wake * scale, cap=cap * scale,
        inc=None if inc is None else inc * scale, inflows=inflows,
        s=draw(st.integers(min_value=0, max_value=cap)) * scale,
        dark=sorted({(a, min(a + n, ticks)) for a, n in draw(st.lists(st.tuples(tick, span),
                                                                      max_size=4))}),
        planned=set(draw(st.lists(tick, max_size=60))),
        forced_at=sorted(set(draw(st.lists(tick, max_size=3)))),
        entry_value=draw(st.integers(min_value=0, max_value=cap)) * scale,
        draws_energy=draw(st.sampled_from([True, True, True, False])),
    )


def replay_period(case, end_offset=0):
    """`engine._tick_arrays` on one period whose planned wake-ups are funded
    as the kernel funds them, and the arrays a per-tick loop gives."""
    ticks, cap, wake = case["ticks"], case["cap"], case["wake"]
    inflows = case["inflows"] or [case["inc"]] * ticks
    dark = {t for a, b in case["dark"] for t in range(a, b)}
    s = case["s"]
    rows = []
    for t in range(ticks):
        if t in case["forced_at"]:
            s = case["entry_value"]
        awake = t in case["planned"] and (not case["draws_energy"] or s >= wake)
        drawn = awake and case["draws_energy"]
        s -= wake if drawn else 0
        harvested = 0 if t in dark else inflows[t]
        s, _ = idle_per_tick(s, 0, harvested, cap, 1)
        rows.append((awake, 1.0 if drawn else 0.0, harvested / wake, s / wake))
    want = {name: np.array(col, dtype=dt) for name, col, dt in zip(
        ("awake", "drawn", "harvested", "stored"), zip(*rows), (bool, float, float, float))}
    policy = BasePolicy()
    policy.draws_energy = case["draws_energy"]
    got = _tick_arrays(policy, ticks, case["slot_len"], [], np.flatnonzero(want["awake"]), [],
                       case["dark"], case["forced_at"], case["entry_value"], cumulative(inflows),
                       case["inc"], cap, wake, case["s"], s + end_offset)
    return got, want


class TestTickReplay:
    """The per-tick `stored` replay (`engine._tick_arrays`), a one-sided
    reflection of the prefix sums at capacity, against a plain per-tick
    loop: every array's dtype and bytes."""

    @given(case=replay_cases())
    @settings(max_examples=500, deadline=None)
    def test_replay_matches_the_per_tick_loop(self, case):
        assert_same_arrays(*replay_period(case))

    @pytest.mark.parametrize("entry", [None, 15, 10])
    def test_draws_down_to_one_wake_cost_empty_the_store(self, entry):
        # dark for 20 ticks, one wake-up a tick from 50 quanta at 10 to a
        # wake-up: the fifth draw empties the store, and the sixth is not
        # funded; a forced tick that also draws does the same at tick 60
        forced = () if entry is None else (60,)
        case = dict(scale=1, slot_len=10, ticks=300, wake=10, cap=1200, inc=3, inflows=None,
                    s=50, dark=[(0, 20)], planned=set(range(6)) | set(forced),
                    forced_at=forced, entry_value=entry, draws_energy=True)
        got, want = replay_period(case)
        assert_same_arrays(got, want)
        assert want["stored"][4] == 0.0 and want["stored"][3] == 1.0
        assert not want["awake"][5]
        if entry is not None:
            assert want["stored"][60] == (entry - 10 + 3) / 10

    @pytest.mark.parametrize("inc", [6, 10, 11, 25])
    def test_a_draw_right_after_a_clamp(self, inc):
        # a store 1 quantum short of capacity clamps on its first harvest,
        # then draws at 0.5 Hz while the inflow refills it
        case = dict(scale=1, slot_len=10, ticks=300, wake=10, cap=1200, inc=inc, inflows=None,
                    s=1199, dark=[], planned=set(range(1, 300, 2)), forced_at=(),
                    entry_value=None, draws_energy=True)
        got, want = replay_period(case)
        assert_same_arrays(got, want)
        assert want["stored"][0] == 120.0
        assert want["stored"][1] == min(1190 + inc, 1200) / 10

    @given(case=replay_cases())
    @settings(max_examples=50, deadline=None)
    def test_an_end_one_quantum_off_raises(self, case):
        for off in (1, -1):
            with pytest.raises(RuntimeError, match="per-tick replay ends at"):
                replay_period(case, end_offset=off)


class TestExactEnergy:
    """Every energy of a run is a whole number of one quantum."""

    # fig-perf's inflow 1/8.5 is 2/17; the others' 1/r at r = 3, 6, 9, 12
    @pytest.mark.parametrize("preset, quanta", [
        ("fig-perf", {17}), ("conv-vs-ratio", {3, 6, 9, 12}), ("conv-per-entry", {9}),
        ("learning-order", {9}), ("state-duration", {9}), ("adaptation", {9}),
    ])
    def test_the_quantum_of_each_preset(self, preset, quanta):
        assert {config.quantum for _, config in expand_sweep(PRESETS[preset]())} == quanta

    def test_every_preset_has_its_quantum_checked(self):
        assert set(PRESETS) == {"fig-perf", "conv-vs-ratio", "conv-per-entry",
                                "learning-order", "state-duration", "adaptation"}

    @pytest.mark.parametrize("event_type", ["type1", "type2", "type3", "type4"])
    def test_saturated_gt_periods_waste_one_value(self, event_type):
        # the seed-0 fig-perf GT runs at entry level 1: 1,200 ticks of 2/17
        # each, all wasted once the store is full; as floats, type1's 149
        # saturated periods wasted 8 different amounts
        (config,) = [config for key, config in expand_sweep(PRESETS["fig-perf"]())
                     if (key.policy, key.event_type, key.entry_level, key.seed)
                     == ("gt", event_type, 1, 0)]
        waste = {log.wasted_saturation for log in run_experiment(config).periods[1:]}
        assert waste == {2400 / 17}

    @pytest.mark.parametrize("record_level", ["summary", "per-tick"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_a_library_float_runs_exactly(self, policy, record_level):
        # 0.1 + 0.2 prints as 0.30000000000000004: a quantum past 2**53, so
        # the per-tick sums are Python ints
        config = base_config(policy=policy, source_level=0.1 + 0.2, n_periods=20,
                             record_level=record_level, ctid_phase_jitter=True)
        assert config.quantum == 9 * 10**17 // 4
        assert_kernel_matches_oracle(config)

    def test_entry_forcing_values_are_whole_quanta(self):
        assert entry_level_energy(4, 120 * 17, 4) == 105 * 17
        assert entry_level_energy(1, 120 * 17, 4) == 15 * 17
        with pytest.raises(ValueError, match="not a whole number of quanta"):
            entry_level_energy(1, 1, 4)


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

    @pytest.mark.parametrize("period", [2.5, math.nan, True], ids=["fraction", "nan", "bool"])
    def test_a_change_period_that_is_not_an_integer_is_rejected(self, period):
        # 2.5 and nan failed inside the run, and True ran as period 1
        with pytest.raises(ValueError, match="period must be an integer"):
            base_config(n_periods=5, schedule=(PatternChange(period, "shift", 1),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["capacity", "charging_ratio", "source_level", "initial_stored"])
    def test_non_finite_numbers_are_rejected_when_the_config_is_built(self, name, value):
        # nan fails every range check's comparison: a nan source level ran
        # dark, and a nan initial store was ignored
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            base_config(**{name: value})

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, 3.0, True])
    @pytest.mark.parametrize("name", ["n_periods", "seed", "measure_from", "entry_level"])
    def test_integer_fields_refuse_other_numbers(self, name, value):
        # a fractional entry level would force a store between two quanta
        with pytest.raises(ValueError, match=f"{name}"):
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
            store = store_for(120, 8.5)
            policy = CtidPolicy(CtidConfig(e_on=e_on, discharge_frequency=frequency), store.wake)
            warm_up(policy, store, HarvestSource.constant(1.0), ticks)
            states.append((store.stored, store.wasted_saturation,
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


def count_inflow_calls(monkeypatch):
    """Patch `AbstractStore.inflow`, and the `count` of every source that
    `engine.make_source` builds, so that the returned dict counts their
    calls."""
    calls = {"inflow": 0, "count": 0}
    inflow, make_source = AbstractStore.inflow, engine.make_source

    def counting_inflow(self, step):
        calls["inflow"] += 1
        return inflow(self, step)

    def counting_make_source(config, pattern):
        source = make_source(config, pattern)
        count = source.count

        def counting_count(tick):
            calls["count"] += 1
            return count(tick)

        source.count = counting_count
        return source

    monkeypatch.setattr(AbstractStore, "inflow", counting_inflow)
    monkeypatch.setattr(engine, "make_source", counting_make_source)
    return calls


class TestInflowPerSegment:
    """A segment prices its source once, not once per period: one
    `AbstractStore.inflow` call, and one `count` call for a constant source.
    A varying source's `count` is called once per tick."""

    def test_a_constant_run_works_out_its_inflow_once(self, monkeypatch):
        config = base_config(n_periods=40, record_level="per-tick")
        calls = count_inflow_calls(monkeypatch)
        assert run_experiment(config).n_periods_run == 40
        assert calls == {"inflow": 1, "count": 1}

    def test_each_segment_of_the_adaptation_preset_works_out_its_inflow_once(
            self, monkeypatch):
        runs = expand_sweep(PRESETS["adaptation"]())
        calls = count_inflow_calls(monkeypatch)
        for _, config in runs:
            assert len(config.segments()) == 3
            assert run_experiment(config).n_periods_run == config.n_periods == 210
        assert calls == {"inflow": 3 * len(runs), "count": 3 * len(runs)}

    def test_a_diurnal_source_is_evaluated_once_per_tick(self, monkeypatch):
        config = base_config(n_periods=5, source_kind="diurnal", policy="ctid")
        calls = count_inflow_calls(monkeypatch)
        assert run_experiment(config).n_periods_run == 5
        assert calls == {"inflow": 1, "count": 5 * 1200}

    def test_a_gated_source_is_evaluated_over_one_period(self, monkeypatch):
        # the gate repeats every period, so the segment's one P serves all 40
        config = base_config(n_periods=40, gate_source_in_peaks=True)
        assert make_source(config, config.pattern).kind == "constant-gated"
        calls = count_inflow_calls(monkeypatch)
        assert run_experiment(config).n_periods_run == 40
        assert calls == {"inflow": 1, "count": 1200}


def _per_tick_harvest(source, unit, period, period_ticks):
    """`P` of one period by the per-tick sum of the inflows."""
    base = period * period_ticks
    return list(accumulate((unit * source.count(t) for t in range(base, base + period_ticks)),
                           initial=0))


class TestSegmentHarvest:
    """A source that repeats every period gives its segment one `P` object
    for all periods; any other source builds its `P` period by period."""

    @pytest.mark.parametrize("source", [
        pytest.param(HarvestSource.constant(1.0), id="constant"),
        pytest.param(HarvestSource.constant(0.0), id="constant-0"),
        pytest.param(HarvestSource.constant_gated(1.0, [(300, 420), (900, 960)], 1200),
                     id="gated"),
        pytest.param(HarvestSource.trace((0.5, 0.0, 1.25, 2.0)), id="trace-of-4"),
        pytest.param(HarvestSource.trace((0.3,) * 600 + (1.1,) * 600), id="trace-of-1200"),
    ])
    def test_a_periodic_segment_shares_one_p(self, source):
        store = store_for(120, 9, levels=(source.step,))
        segment = Segment.of(source, store, 1200, 30)
        assert segment.steady is not None
        first = segment.harvest(0)
        unit = store.inflow(source.step)
        for k in (0, 1, 7, 40, 1001):
            assert segment.harvest(k) is first
            assert list(first) == _per_tick_harvest(source, unit, k, 1200)

    @pytest.mark.parametrize("source", [
        pytest.param(HarvestSource.diurnal(1.0), id="diurnal"),
        pytest.param(HarvestSource.diurnal(1.0, day_ticks=2400), id="diurnal-2-periods"),
        pytest.param(HarvestSource.trace(TRACE_VALUES), id="trace-of-151"),
    ])
    def test_other_segments_build_p_per_period(self, source):
        store = store_for(120, 9, levels=(source.step,))
        segment = Segment.of(source, store, 1200, 30)
        assert segment.steady is None
        unit = store.inflow(source.step)
        built = [segment.harvest(k) for k in range(3)]
        assert built[0] is not segment.harvest(0)
        for k, P in enumerate(built):
            assert list(P) == _per_tick_harvest(source, unit, k, 1200)
        assert built[0] != built[1]

    def test_a_day_of_whole_periods_shares_one_p(self):
        source = HarvestSource.diurnal(1.0, day_ticks=600)
        segment = Segment.of(source, store_for(120, 9, levels=(source.step,)), 1200, 30)
        assert segment.harvest(5) is segment.harvest(0)


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
