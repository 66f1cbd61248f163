"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import time

import numpy as np
import pytest

from smarton_sim.energy import CapacitorArray
from smarton_sim.engine import (
    PatternChange,
    SimConfig,
    compute_metrics,
    run_experiment,
    run_partition_study,
)
from smarton_sim.events import build_pattern
from smarton_sim.learner import LearnerConfig, QTable, q_update
from smarton_sim.reports import emit_csv, run_sweep
from smarton_sim.rng import Stream
from smarton_sim.scenario import PRESETS

TYPES = ("type1", "type2", "type3", "type4")
LEVELS = (1, 2, 3, 4)


@pytest.fixture(scope="module")
def fig_perf():
    """The performance sweep shared by criteria 3 and 4, with its wall time."""
    t0 = time.time()
    records = run_sweep(PRESETS["fig-perf"]())
    elapsed = time.time() - t0
    return records, elapsed


def cell_stats(records, policy, event_type, level, from_period=0):
    catches, awake, events = [], [], []
    for rec in records:
        k = rec.key
        if (k.policy, k.event_type, k.entry_level) == (policy, event_type, level):
            catches.append(sum(c for p, _, c, _, _, _ in rec.periods if p >= from_period))
            awake.append(sum(a for p, _, _, _, a, _ in rec.periods if p >= from_period))
            events.append(sum(e for p, _, _, _, _, e in rec.periods if p >= from_period))
    mean_catches = float(np.mean(catches))
    mean_awake = float(np.mean(awake))
    return (
        mean_catches,
        mean_catches / mean_awake if mean_awake else 0.0,
        float(np.mean(events)),
    )


def test_criterion_1_q_update_matches_brute_force():
    """Eq.-1 equivalence on 1,000 random tuples at 1e-12 relative, < 1 s."""
    t0 = time.time()
    rng = Stream(12345, "explore")
    for _ in range(1000):
        alpha = 0.01 + 0.99 * rng.next_double()
        gamma = 0.99 * rng.next_double()
        q = (rng.next_double() - 0.5) * 600
        reward = (rng.next_double() - 0.5) * 600
        nxt = [(rng.next_double() - 0.5) * 600 for _ in range(4)]
        cfg = LearnerConfig(alpha=alpha, gamma=gamma)
        table = QTable("X", 2, 2, 4)
        table.values[0][0] = q
        table.values[1] = nxt
        q_update(table, 0, 0, reward, 1, cfg)
        reference = q + alpha * (reward + gamma * max(nxt) - q)
        assert table.values[0][0] == pytest.approx(reference, rel=1e-12)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - 1000 tuples at 1e-12 rel in {elapsed:.2f}s")


def test_criterion_2_gt_catches_every_event():
    """GT total catches equal the trace's event count on 50 scenarios, < 5 s."""
    t0 = time.time()
    shapes = ("type1", "type2", "type3", "type4")
    for seed in range(50):
        rng = Stream(seed, "shuffle")
        pattern = build_pattern(
            [(shapes[rng.next_below(4)], 2 + rng.next_below(30))],
            p_high=0.4 + 0.5 * rng.next_double(),
            p_low=0.05 + 0.2 * rng.next_double(),
        )
        n_periods = 1 + rng.next_below(5)
        config = SimConfig(
            pattern=pattern, policy="gt", n_periods=n_periods, seed=seed,
            repeat_first_period=rng.next_double() < 0.5,
        )
        result = run_experiment(config)
        metrics = compute_metrics(result.periods)
        assert metrics.total_catches == metrics.event_ticks
        assert metrics.awake_ticks == n_periods * 1200
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2: PASS - GT == event count on 50 scenarios in {elapsed:.2f}s")


def test_criterion_3_dominance_over_ctid(fig_perf):
    """Strict per-cell dominance, ratio brackets for at least half the cells,
    and sub-10% baseline efficiency at sub-10% event density; sweep < 2 min."""
    records, elapsed = fig_perf
    assert elapsed < 120.0, f"fig-perf sweep took {elapsed:.0f}s"

    strict = in_catch = in_eff = 0
    cells = []
    for etype in TYPES:
        for level in LEVELS:
            sm_c, sm_e, _ = cell_stats(records, "smarton", etype, level)
            ct_c, ct_e, ct_events = cell_stats(records, "ctid", etype, level)
            gt_c, gt_e, _ = cell_stats(records, "gt", etype, level)
            assert sm_c > ct_c and sm_e > ct_e, (
                f"smarton does not strictly dominate ctid at {etype} E{level}: "
                f"catches {sm_c:.0f} vs {ct_c:.0f}, eff {sm_e:.3f} vs {ct_e:.3f}"
            )
            strict += 1
            rc, re = sm_c / ct_c, sm_e / ct_e
            in_catch += 1.0 <= rc <= 7.0
            in_eff += 8.0 <= re <= 17.0
            cells.append((etype, level, rc, re))
            # event density < 10% in every preset cell: baselines stay < 10%
            density = ct_events / (150 * 1200)
            assert density < 0.10
            assert ct_e < 0.10, f"ctid efficiency {ct_e:.3f} at {etype} E{level}"
            assert gt_e < 0.10, f"gt efficiency {gt_e:.3f} at {etype} E{level}"

    assert strict == 16
    assert in_catch >= 8, f"catch ratios in [1,7] for only {in_catch}/16 cells"
    assert in_eff >= 8, f"efficiency ratios in [8,17] for only {in_eff}/16 cells"
    print(
        f"\nACCEPTANCE 3: PASS - strict dominance 16/16, catch ratio in [1,7] "
        f"{in_catch}/16, efficiency ratio in [8,17] {in_eff}/16, sweep {elapsed:.0f}s"
    )


def test_criterion_4_ctidpro_gap(fig_perf):
    """CTIDpro within 10% of the learner for type2/type3 (catches aggregated
    across the four entry levels); learner at least 25% ahead for type1/type4
    at the lowest level.  Steady-state window, 10 seeds."""
    records, _ = fig_perf
    from_period = 110
    for etype in ("type2", "type3"):
        sm = np.mean([cell_stats(records, "smarton", etype, l, from_period)[0] for l in LEVELS])
        cp = np.mean([cell_stats(records, "ctidpro", etype, l, from_period)[0] for l in LEVELS])
        gap = abs(cp - sm) / sm
        per_level = [
            (l,
             cell_stats(records, "smarton", etype, l, from_period)[0],
             cell_stats(records, "ctidpro", etype, l, from_period)[0])
            for l in LEVELS
        ]
        detail = ", ".join(f"E{l}: {s:.0f}/{c:.0f}" for l, s, c in per_level)
        assert gap <= 0.10, f"{etype} aggregate gap {gap:.1%} (per level sm/cp: {detail})"
    gaps = []
    for etype in ("type1", "type4"):
        sm, _, _ = cell_stats(records, "smarton", etype, 1, from_period)
        cp, _, _ = cell_stats(records, "ctidpro", etype, 1, from_period)
        assert sm >= 1.25 * cp, f"{etype} E1: smarton {sm:.0f} vs ctidpro {cp:.0f}"
        gaps.append(sm / cp)
    print(
        f"\nACCEPTANCE 4: PASS - type2/type3 parity within 10% across levels; "
        f"low-entry advantage {gaps[0]:.2f}x (type1), {gaps[1]:.2f}x (type4)"
    )


def test_criterion_5_phase1_pass_linearity():
    """Phase-1 passes to converge fit linearly in the charging ratio with
    R^2 >= 0.9 over ratios {3, 6, 9, 12} x 10 seeds, < 1 min."""
    t0 = time.time()
    pattern = build_pattern([("type1", 10)])
    ratios = (3.0, 6.0, 9.0, 12.0)
    means = []
    for ratio in ratios:
        passes = []
        for seed in range(10):
            config = SimConfig(
                pattern=pattern, policy="smarton", charging_ratio=ratio,
                repeat_first_period=True, n_periods=250, seed=seed,
                stop_rule="phase_ge:2",
            )
            result = run_experiment(config)
            passes.append(result.phase1_stays[0]["passes"])
        means.append(float(np.mean(passes)))
    x = np.array(ratios)
    y = np.array(means)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    r2 = 1 - ((y - fitted) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    elapsed = time.time() - t0
    assert elapsed < 60.0
    assert r2 >= 0.9, f"R^2 = {r2:.4f} for means {means}"
    print(
        f"\nACCEPTANCE 5: PASS - passes {[round(m,1) for m in means]} vs ratios "
        f"{list(ratios)}, R^2 = {r2:.4f}, {elapsed:.1f}s"
    )


def test_criterion_6_partitioned_vs_monolithic_gate():
    """First entry level exploitable at least 5x earlier than full-table
    convergence at K=10, averaged over 10 seeds."""
    pattern = build_pattern([("type1", 10)])
    firsts, alls = [], []
    for seed in range(10):
        config = SimConfig(
            pattern=pattern, learner=LearnerConfig(k_levels=10),
            policy="smarton", repeat_first_period=True, seed=seed,
        )
        order = Stream(seed, "shuffle").shuffled(range(1, 11))
        study = run_partition_study(config, order)
        firsts.append(study.first_converged_at)
        alls.append(study.all_converged_at)
    mean_first, mean_all = np.mean(firsts), np.mean(alls)
    ratio = mean_all / mean_first
    assert ratio >= 5.0, f"separation {ratio:.2f}x (first {mean_first}, all {mean_all})"
    print(
        f"\nACCEPTANCE 6: PASS - first exploitable at {mean_first:.0f} episodes vs "
        f"full table at {mean_all:.0f} ({ratio:.1f}x separation)"
    )


def test_criterion_7_learning_order_effect():
    """Across 20 shuffled learning orders at K=10, entry levels learned in
    positions 1-3 need strictly more episodes than positions 8-10."""
    pattern = build_pattern([("type1", 10)])
    by_position = {p: [] for p in range(1, 11)}
    for seed in range(20):
        config = SimConfig(
            pattern=pattern, learner=LearnerConfig(k_levels=10),
            policy="smarton", repeat_first_period=True, seed=seed,
        )
        order = Stream(seed, "shuffle").shuffled(range(1, 11))
        study = run_partition_study(config, order)
        for position, level in enumerate(study.order, start=1):
            by_position[position].append(study.episodes_per_level[level])
    early = np.mean([np.mean(by_position[p]) for p in (1, 2, 3)])
    late = np.mean([np.mean(by_position[p]) for p in (8, 9, 10)])
    assert early > late, f"positions 1-3 mean {early:.1f} vs 8-10 mean {late:.1f}"
    print(
        f"\nACCEPTANCE 7: PASS - episodes to converge: positions 1-3 mean "
        f"{early:.1f} > positions 8-10 mean {late:.1f} over 20 shuffled orders"
    )


def test_criterion_8_state_duration_study():
    """Among state durations {20, 30, 60} s on type1, 30 s yields the highest
    mean total catches over 20 seeds.  A failed ordering must be reported
    with the full parameter set rather than tuned away."""
    pattern = build_pattern([("type1", 10)])
    durations = (20, 30, 60)
    means = {}
    for duration in durations:
        totals = []
        for seed in range(20):
            for level in LEVELS:
                config = SimConfig(
                    pattern=pattern, policy="smarton", entry_level=level,
                    learner=LearnerConfig(state_duration=duration),
                    repeat_first_period=True, n_periods=110, seed=seed,
                )
                result = run_experiment(config)
                totals.append(compute_metrics(result.periods).total_catches)
        means[duration] = float(np.mean(totals))
    parameters = (
        "pattern=type1@10 world-slot=30s, p=0.8/0.2, repeated realization, "
        "capacity=120, r=9, K=4, entry levels 1-4 forced, n_periods=110, "
        "catches counted from period 0, 20 seeds"
    )
    assert means[30] > means[20] and means[30] > means[60], (
        f"30 s is not the best duration: {means}; parameters: {parameters}"
    )
    print(
        f"\nACCEPTANCE 8: PASS - mean total catches "
        f"20s={means[20]:.0f}, 30s={means[30]:.0f}, 60s={means[60]:.0f}"
    )


def test_criterion_9_adaptation_schedule():
    """type1@E4 -> type3@E3 -> type1@E4: the returning pattern re-enters
    exploitation with zero relearning episodes, strictly faster than the
    first encounter, and misses drop by half within 3 periods of each
    exploitation entry."""
    seg = 70
    type1 = build_pattern([("type1", 10)])
    type3 = build_pattern([("type3", 25)])
    config = SimConfig(
        pattern=type1, policy="smarton", entry_level=4, repeat_first_period=True,
        n_periods=3 * seg, seed=0,
        schedule=(
            PatternChange(seg, "replace", type3, entry_level=3),
            PatternChange(2 * seg, "replace", type1, entry_level=4),
        ),
    )
    result = run_experiment(config)
    timeline = result.phase_timeline
    misses = [p.misses for p in result.periods]

    third = timeline[2 * seg :]
    assert 2 not in third, "third segment ran relearning episodes"

    def informed_entry(lo, hi):
        seen_profiling = False
        for i in range(lo, hi):
            if timeline[i] == 1:
                seen_profiling = True
            if timeline[i] == 3 and seen_profiling:
                return i - lo
        return None

    entries = []
    for lo, hi in ((0, seg), (seg, 2 * seg), (2 * seg, 3 * seg)):
        entry = informed_entry(lo, hi)
        assert entry is not None, f"segment at {lo} never reached exploitation"
        entries.append(entry)
        at = lo + entry
        before = np.mean(misses[at - 3 : at])
        after = np.mean(misses[at : at + 3])
        assert after <= 0.5 * before, (
            f"misses only dropped {before:.1f} -> {after:.1f} at period {at}"
        )
    assert entries[2] < entries[0], (
        f"returning pattern not faster: {entries[2]} vs {entries[0]} periods"
    )
    print(
        f"\nACCEPTANCE 9: PASS - exploitation entries per segment {entries}, "
        f"zero relearning episodes on the pattern's return"
    )


def test_criterion_10_property_suites():
    """Counted property checks, >= 10^4 cases total, < 1 min."""
    t0 = time.time()
    cases = 0

    # charge conservation across activation, 1e-12 relative
    rng = Stream(7, "shuffle")
    for _ in range(6000):
        caps = sorted(0.001 + 0.2 * rng.next_double() for _ in range(4))
        array = CapacitorArray(caps, v_max=3.3, v_activate=2.8)
        array.n_active = 1 + rng.next_below(3)
        array.voltage = 3.3 * rng.next_double()
        q_before = array.active_capacitance * array.voltage
        array.activate_next_capacitor()
        q_after = array.active_capacitance * array.voltage
        assert q_after == pytest.approx(q_before, rel=1e-12, abs=1e-15)
        cases += 1

    # Q bound under admissible rewards
    cfg = LearnerConfig()
    bound = 300 * 10 / (1 - 0.618)
    table = QTable("LHL", 4, 3, 4)
    for i in range(4500):
        state = rng.next_below(12)
        action = rng.next_below(4)
        reward = (2 * rng.next_double() - 1) * cfg.max_step_reward
        nxt = rng.next_below(12) if rng.next_double() < 0.8 else None
        q_update(table, state, action, reward, nxt, cfg)
        assert abs(table.values[state][action]) <= bound
        cases += 1

    # per-period energy ledger, 1e-9 relative
    pattern = build_pattern([("type1", 10)])
    for seed in range(8):
        config = SimConfig(
            pattern=pattern, policy=("smarton", "ctid", "ctidpro", "gt")[seed % 4],
            entry_level=4 if seed % 4 == 0 else None,
            repeat_first_period=True, n_periods=25, seed=seed,
            ctid_phase_jitter=True,
        )
        result = run_experiment(config)
        for log in result.periods:
            balance = (
                log.stored_start + log.harvested + log.forced_delta
                - log.drawn - log.wasted_saturation
            )
            assert log.stored_end == pytest.approx(balance, rel=1e-9, abs=1e-9)
            cases += 1

    # metrics bounds on the same runs plus replay determinism
    for seed in range(4):
        config = SimConfig(
            pattern=pattern, policy="smarton", entry_level=3,
            repeat_first_period=True, n_periods=20, seed=seed,
        )
        a = run_experiment(config)
        b = run_experiment(config)
        for pa, pb in zip(a.periods, b.periods):
            assert (pa.awake_ticks, pa.catches, pa.drawn, pa.stored_end) == (
                pb.awake_ticks, pb.catches, pb.drawn, pb.stored_end,
            )
            cases += 1
        metrics = compute_metrics(a.periods)
        assert metrics.total_catches <= min(metrics.awake_ticks, metrics.event_ticks)
        assert 0.0 <= metrics.energy_efficiency <= 1.0

    # byte-identical replay of a full sweep
    from smarton_sim.scenario import default_scenario

    scenario = default_scenario()
    scenario = scenario.with_value("run", "n_periods", 15)
    scenario = scenario.with_value("run", "repeat_events", True)
    scenario = scenario.with_value("run", "entry_level", 4)
    scenario = scenario.with_value("sweep", "seeds", "0:2")
    import os, tempfile

    with tempfile.TemporaryDirectory() as tmp:
        dir_a, dir_b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        emit_csv(run_sweep(scenario), dir_a, measure_from=0)
        emit_csv(run_sweep(scenario), dir_b, measure_from=0)
        for name in ("metrics.csv", "convergence.csv", "timeline.csv"):
            with open(os.path.join(dir_a, name), "rb") as fa, open(
                os.path.join(dir_b, name), "rb"
            ) as fb:
                assert fa.read() == fb.read()
            cases += 1

    # profiling visits each slot exactly once per run
    for seed in range(3):
        config = SimConfig(
            pattern=pattern, policy="smarton", charging_ratio=6.0,
            repeat_first_period=True, n_periods=60, seed=seed,
            record_level="per-tick", stop_rule="phase_ge:2",
        )
        result = run_experiment(config)
        visits = {}
        for log in result.periods:
            for slot in range(40):
                sl = slice(slot * 30, (slot + 1) * 30)
                if log.ticks["phase"][sl][0] == 1 and log.ticks["awake"][sl].all():
                    visits[slot] = visits.get(slot, 0) + 1
                    cases += 1
        runs = result.policy.ctx.profiles_completed
        assert set(visits) == set(range(40))
        assert all(count == runs for count in visits.values())

    elapsed = time.time() - t0
    assert cases >= 10_000, f"only {cases} property cases"
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 10: PASS - {cases} property cases in {elapsed:.1f}s")
