"""Learner primitives: indexing, rewards, updates, convergence, phases."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smarton_sim.events import build_pattern
from smarton_sim.learner import (
    EmptyPeak,
    LearnedPeak,
    LearnerConfig,
    PhaseContext,
    QTable,
    SlotProfile,
    affordable_actions,
    choose_action,
    classify_shape,
    find_peaks,
    get_state,
    partition_converged,
    phase_transition,
    probe_plan,
    profile_converged,
    q_update,
    reward_from_counts,
    schedule_cost,
    wake_offsets,
)
from smarton_sim.rng import Stream


class TestGetState:
    def test_origin(self):
        assert get_state(1, 1, 5, 3) == 0

    def test_last_row_of_15(self):
        # K=5, T=3 gives a 15-row table; (level 5, step 3) is the last row
        assert get_state(5, 3, 5, 3) == 14

    def test_row_major_by_level(self):
        assert get_state(3, 1, 5, 3) == 6

    def test_bounds(self):
        with pytest.raises(ValueError):
            get_state(0, 1, 5, 3)
        with pytest.raises(ValueError):
            get_state(1, 4, 5, 3)


class TestWakeOffsets:
    def test_paper_frequencies_at_30s(self):
        assert wake_offsets(0.0, 30) == ()
        assert wake_offsets(0.2, 30) == (0, 5, 10, 15, 20, 25)
        assert wake_offsets(0.5, 30) == tuple(range(0, 30, 2))
        assert wake_offsets(1.0, 30) == tuple(range(30))

    def test_frequencies_above_one_hz_rejected(self):
        with pytest.raises(ValueError, match="1 Hz"):
            LearnerConfig(frequencies=(0.0, 0.5, 1.5))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequencies_rejected(self, value):
        with pytest.raises(ValueError, match="frequencies must be finite"):
            LearnerConfig(frequencies=(0.0, value))

    def test_other_durations(self):
        assert len(wake_offsets(0.2, 20)) == 4
        assert len(wake_offsets(0.5, 60)) == 30


class TestRewardFromCounts:
    def test_never_awake_is_zero(self):
        assert reward_from_counts(0, 0, LearnerConfig()) == 0.0

    def test_fifteen_awake_three_events(self):
        # 3*10 + 12*(-1) = 18
        assert reward_from_counts(3, 15, LearnerConfig()) == 18.0

    def test_all_thirty_catch(self):
        assert reward_from_counts(30, 30, LearnerConfig()) == 300.0


class TestQUpdate:
    def test_from_zero(self):
        cfg = LearnerConfig(alpha=0.7)
        table = QTable("LHL", 4, 3, 4)
        q_update(table, 0, 1, 18.0, None, cfg)
        assert table.values[0][1] == pytest.approx(12.6)

    def test_alpha_zero_rejected_by_config(self):
        with pytest.raises(ValueError):
            LearnerConfig(alpha=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "reward_catch", "reward_miss", "convergence_epsilon", "profile_tol_abs",
        "profile_tol_rel", "shape_theta",
    ])
    def test_non_finite_numbers_rejected_by_config(self, name, value):
        # these fields have no range check for nan to fail
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LearnerConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, 4.0])
    @pytest.mark.parametrize("name", [
        "k_levels", "state_duration", "convergence_window", "profile_window",
        "probe_budget", "probe_trigger", "peak_max_duration",
    ])
    def test_integer_fields_refuse_other_numbers(self, name, value):
        # nan passed every range check and an infinite slot overflowed
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            LearnerConfig(**{name: value})

    def test_alpha_identity_limit(self):
        # the update with alpha -> 0 leaves the table unchanged; alpha is
        # constrained positive, so exercise the formula directly at 1e-12
        cfg = LearnerConfig(alpha=1e-12)
        table = QTable("LHL", 4, 3, 4)
        table.values[0][1] = 5.0
        q_update(table, 0, 1, 100.0, None, cfg)
        assert table.values[0][1] == pytest.approx(5.0, abs=1e-9)

    def test_hand_value_with_bootstrap(self):
        # 0.3*5 + 0.7*(10 + 0.618*5) = 10.663
        cfg = LearnerConfig(alpha=0.7, gamma=0.618)
        table = QTable("LHL", 4, 3, 4)
        table.values[0][0] = 5.0
        table.values[1] = [5.0] * 4
        q_update(table, 0, 0, 10.0, 1, cfg)
        assert table.values[0][0] == pytest.approx(10.663)

    def test_terminal_step_has_zero_bootstrap(self):
        cfg = LearnerConfig(alpha=1.0)
        table = QTable("LHL", 4, 3, 4)
        table.values[1] = [999.0] * 4
        q_update(table, 0, 0, 7.0, None, cfg)
        assert table.values[0][0] == 7.0

    def test_brute_force_reference_on_random_tuples(self):
        # reference: Q + alpha * (R + gamma * max(next) - Q)
        rng = Stream(77, "explore")
        for _ in range(1000):
            alpha = 0.01 + 0.99 * rng.next_double()
            gamma = 0.99 * rng.next_double()
            q = (rng.next_double() - 0.5) * 600
            r = (rng.next_double() - 0.5) * 600
            nxt = [(rng.next_double() - 0.5) * 600 for _ in range(4)]
            cfg = LearnerConfig(alpha=alpha, gamma=gamma)
            table = QTable("LHL", 2, 2, 4)
            table.values[0][0] = q
            table.values[1] = nxt
            q_update(table, 0, 0, r, 1, cfg)
            reference = q + alpha * (r + gamma * max(nxt) - q)
            assert table.values[0][0] == pytest.approx(reference, rel=1e-12)

    def test_fixed_point_contraction(self):
        # constant reward, frozen policy: per-update change shrinks by (1-alpha)
        cfg = LearnerConfig(alpha=0.7, gamma=0.618)
        table = QTable("H", 1, 1, 1)
        changes = []
        for _ in range(40):
            changes.append(q_update(table, 0, 0, 50.0, None, cfg))
        for previous, current in zip(changes, changes[1:]):
            if previous > 1e-12:
                assert current <= previous * (1 - cfg.alpha) + 1e-12
        assert table.values[0][0] == pytest.approx(50.0)

    def test_q_bound_asserted(self):
        cfg = LearnerConfig()
        table = QTable("LHL", 4, 3, 4)
        bound = cfg.q_bound
        assert bound == pytest.approx(30 * 10 / (1 - 0.618))
        # rewards inside the admissible range can never escape the bound
        rng = Stream(5, "explore")
        for _ in range(2000):
            state = rng.next_below(12)
            action = rng.next_below(4)
            reward = (rng.next_double() * 2 - 1) * cfg.max_step_reward
            nxt = rng.next_below(12)
            q_update(table, state, action, reward, nxt, cfg)
        assert np.abs(table.values).max() <= bound + 1e-9


    def test_escaping_the_bound_raises(self):
        cfg = LearnerConfig()
        table = QTable("LHL", 4, 3, 4)
        with pytest.raises(RuntimeError, match="escaped bound"):
            q_update(table, 0, 0, 10 * cfg.q_bound, None, cfg)

    @pytest.mark.parametrize("gamma", [0.0, 0.618, 0.9])
    def test_the_checked_bound_is_q_bound(self, gamma):
        # with alpha 1 and no bootstrap the new value is the reward itself
        cfg = LearnerConfig(alpha=1.0, gamma=gamma, state_duration=20, reward_catch=7.0)
        table = QTable("LHL", 4, 3, 4)
        q_update(table, 0, 0, -cfg.q_bound, None, cfg)
        with pytest.raises(RuntimeError, match="escaped bound"):
            q_update(table, 0, 0, cfg.q_bound + 1e-6, None, cfg)


class TestChooseAction:
    def test_phase3_argmax_breaks_ties_toward_lower_frequency(self):
        table = QTable("LHL", 4, 3, 4)
        table.values[0] = [0.0, 3.0, 7.0, 7.0]
        action = choose_action(table, 0, 3, [0, 1, 2, 3], Stream(0, "explore"))
        assert action == 2

    def test_phase3_affordability_guard(self):
        table = QTable("LHL", 4, 3, 4)
        table.values[0] = [0.0, 3.0, 7.0, 9.0]
        action = choose_action(table, 0, 3, [0], Stream(0, "explore"))
        assert action == 0

    def test_phase2_uniform_and_reproducible(self):
        table = QTable("LHL", 4, 3, 4)
        a = [choose_action(table, 0, 2, [0, 1, 2, 3], Stream(9, "explore")) for _ in range(1)]
        b = [choose_action(table, 0, 2, [0, 1, 2, 3], Stream(9, "explore")) for _ in range(1)]
        assert a == b
        s = Stream(4, "explore")
        picks = {choose_action(table, 0, 2, [0, 1, 2, 3], s) for _ in range(200)}
        assert picks == {0, 1, 2, 3}

    def test_affordable_actions_filter(self):
        cfg = LearnerConfig()
        assert affordable_actions(cfg, 0) == (0,)
        assert affordable_actions(cfg, 5) == (0,)
        assert affordable_actions(cfg, 6) == (0, 1)
        assert affordable_actions(cfg, 15) == (0, 1, 2)
        assert affordable_actions(cfg, 29) == (0, 1, 2)
        assert affordable_actions(cfg, 30) == (0, 1, 2, 3)


def affordable_reference(cfg, wakeups):
    """Every action whose schedule cost is within `wakeups`, one by one."""
    return [
        i for i, f in enumerate(cfg.frequencies)
        if schedule_cost(f, cfg.state_duration) <= wakeups
    ]


def q_update_reference(values, state, action, reward, next_state, cfg, next_affordable=None):
    """The Bellman update on a NumPy array of the values, cell by cell."""
    if next_state is None:
        bootstrap = 0.0
    elif next_affordable is None:
        bootstrap = float(values[next_state].max())
    else:
        bootstrap = max(float(values[next_state, a]) for a in next_affordable)
    old = values[state, action]
    new = (1.0 - cfg.alpha) * old + cfg.alpha * (reward + cfg.gamma * bootstrap)
    values[state, action] = new
    if not abs(new) <= cfg.q_bound + 1e-9:
        raise RuntimeError(f"Q value {new} escaped bound {cfg.q_bound}")
    return abs(new - old)


def choose_action_reference(table, state, phase, affordable, stream):
    """Phase-2 draw by scaling the next double; phase-3 argmax by a loop
    over cells."""
    if phase == 2:
        return affordable[int(stream.next_double() * len(affordable))]
    best = affordable[0]
    for a in affordable[1:]:
        if table.values[state][a] > table.values[state][best]:
            best = a
    return best


frequency_sets = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=6, unique=True,
).map(lambda fs: [0.0, *sorted(fs)])


def random_table(seed, k, t, n, bound, grid):
    """A table of values within +-bound; on a coarse grid, ties are common."""
    rng = np.random.default_rng(seed)
    table = QTable("H" * t, k, t, n)
    values = rng.uniform(-bound, bound, size=(k * t, n))
    table.values = (np.round(values / grid) * grid if grid else values).tolist()
    return table


@st.composite
def frequencies_and_slot(draw):
    """A frequency set and a slot length in 1..600 ticks in which its lowest
    nonzero frequency, and so every other, wakes at least once; longer when
    that frequency needs it."""
    freqs = draw(frequency_sets)
    shortest = max(1, math.ceil(0.5 / freqs[1]))
    while round(freqs[1] * shortest) == 0:
        shortest += 1
    return freqs, draw(st.integers(min_value=shortest, max_value=max(shortest, 600)))


class TestReferenceEquivalence:
    """The prefix lookup and the scalar Q reads against the plain versions."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        freqs_and_slot=frequencies_and_slot(),
        as_tuple=st.booleans(),
        pick=st.integers(min_value=0, max_value=6),
        delta=st.sampled_from((0, -1, 1, -2, 2)),
    )
    def test_affordable_actions_is_the_filtered_list(self, freqs_and_slot, as_tuple,
                                                     pick, delta):
        freqs, duration = freqs_and_slot
        costs = [schedule_cost(f, duration) for f in freqs]
        cfg = LearnerConfig(frequencies=tuple(freqs) if as_tuple else freqs,
                            state_duration=duration)
        for wakeups in (max(0, costs[pick % len(costs)] + delta), max(costs) + 1, 0):
            got = affordable_actions(cfg, wakeups)
            assert got == tuple(affordable_reference(cfg, wakeups))
            assert got is affordable_actions(cfg, wakeups)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(freqs_and_slot=frequencies_and_slot(), wake=st.integers(min_value=1, max_value=20))
    def test_the_learning_policy_affords_the_filtered_list(self, freqs_and_slot, wake):
        # a store of `stored` quanta funds `stored // wake` wake-ups; the
        # policy bisects the floors of its schedules instead
        from smarton_sim.policies import SmartOnPolicy

        freqs, duration = freqs_and_slot
        cfg = LearnerConfig(frequencies=tuple(freqs), state_duration=duration)
        policy = SmartOnPolicy(cfg, n_slots=1, seed=0, capacity=10**6, wake=wake)
        costs = [schedule_cost(f, duration) for f in freqs]
        for stored in {c * wake + d for c in costs + [costs[-1] + 1] for d in (-1, 0, 1, wake)}:
            if stored >= 0:
                assert policy._affordable(stored) == \
                    tuple(affordable_reference(cfg, stored // wake))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        k=st.integers(min_value=2, max_value=5),
        t=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=5),
        alpha=st.floats(min_value=0.01, max_value=1.0),
        gamma=st.floats(min_value=0.0, max_value=0.99),
        grid=st.sampled_from((0.0, 1.0, 25.0)),
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0), st.integers(min_value=0),
                st.floats(min_value=-1.0, max_value=1.0),
                st.one_of(st.none(), st.integers(min_value=0)),
                st.one_of(st.none(), st.integers(min_value=1)),
            ),
            min_size=1, max_size=8,
        ),
    )
    def test_q_update_matches_the_cellwise_update(self, seed, k, t, n, alpha, gamma, grid,
                                                   updates):
        cfg = LearnerConfig(alpha=alpha, gamma=gamma, k_levels=k)
        got = random_table(seed, k, t, n, cfg.q_bound, grid)
        want = np.array(got.values)
        rows = k * t
        for state, action, reward, next_state, prefix in updates:
            state, action = state % rows, action % n
            if next_state is not None:
                next_state %= rows
            mask = None if prefix is None else tuple(range(1 + prefix % n))
            reward *= cfg.max_step_reward
            dq = q_update(got, state, action, reward, next_state, cfg, next_affordable=mask)
            ref = q_update_reference(want, state, action, reward, next_state, cfg,
                                     next_affordable=mask)
            assert float(dq).hex() == float(ref).hex()
            assert np.array(got.values).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=6),
        state=st.integers(min_value=0, max_value=7),
        prefix=st.integers(min_value=1),
        phase=st.sampled_from((2, 3)),
        grid=st.sampled_from((0.0, 1.0, 50.0)),
    )
    def test_choose_action_matches_the_loop(self, seed, n, state, prefix, phase, grid):
        table = random_table(seed, 2, 4, n, 100.0, grid)
        affordable = tuple(range(1 + prefix % n))
        stream, ref_stream = Stream(seed, "explore"), Stream(seed, "explore")
        for _ in range(3):
            assert choose_action(table, state, phase, affordable, stream) == \
                choose_action_reference(table, state, phase, affordable, ref_stream)
        assert stream.cursor == ref_stream.cursor


class TestClassifyShape:
    def test_bell_counts(self):
        cfg = LearnerConfig()
        assert classify_shape([10, 55, 12], cfg) == "LHL"

    def test_uniform_counts(self):
        cfg = LearnerConfig()
        assert classify_shape([40, 42, 41], cfg) == "HHH"

    def test_empty_peak(self):
        cfg = LearnerConfig()
        with pytest.raises(EmptyPeak):
            classify_shape([0, 0, 0], cfg)

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=4),
        scale=st.integers(min_value=2, max_value=50),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, counts, scale):
        cfg = LearnerConfig()
        if max(counts) == 0:
            return
        scaled = [c * scale for c in counts]
        assert classify_shape(counts, cfg) == classify_shape(scaled, cfg)

    def test_find_peaks_splits_on_gaps(self):
        cfg = LearnerConfig()
        counts = [0] * 40
        counts[10:13] = [6, 24, 7]
        counts[20:22] = [25, 26]
        peaks = find_peaks(counts, cfg)
        assert peaks == [(10, "LHL"), (20, "HH")]


class TestProfile:
    def test_unvisited_slot_means_not_converged(self):
        cfg = LearnerConfig()
        profile = SlotProfile(4)
        profile.record_slot(0, 5)
        assert not profile_converged(profile, cfg)

    def test_two_identical_profiles_converge(self):
        cfg = LearnerConfig()
        profile = SlotProfile(3)
        for slot, c in enumerate((10, 55, 12)):
            profile.record_slot(slot, c)
        profile.finish_run()
        for slot, c in enumerate((10, 55, 12)):
            profile.record_slot(slot, c)
        assert profile_converged(profile, cfg)

    def test_tolerance_rule(self):
        # (10,55,12) then (12,51,13): abs<=2 or rel<=25% holds slot-wise
        cfg = LearnerConfig()
        profile = SlotProfile(3)
        for slot, c in enumerate((10, 55, 12)):
            profile.record_slot(slot, c)
        profile.finish_run()
        for slot, c in enumerate((12, 51, 13)):
            profile.record_slot(slot, c)
        assert profile_converged(profile, cfg)

    def test_big_shift_does_not_converge(self):
        cfg = LearnerConfig()
        profile = SlotProfile(3)
        for slot, c in enumerate((10, 55, 12)):
            profile.record_slot(slot, c)
        profile.finish_run()
        for slot, c in enumerate((30, 10, 12)):
            profile.record_slot(slot, c)
        assert not profile_converged(profile, cfg)

    def test_double_visit_rejected(self):
        profile = SlotProfile(3)
        profile.record_slot(1, 4)
        with pytest.raises(ValueError, match="already visited"):
            profile.record_slot(1, 9)

    def test_a_finished_run_keeps_its_snapshot(self):
        # the next run's slots are recorded into fresh lists, never into the
        # snapshot that history holds
        profile = SlotProfile(3)
        for slot, c in enumerate((10, 55, 12)):
            profile.record_slot(slot, c)
        profile.finish_run()
        snapshot = list(profile.history[-1])
        for slot, c in enumerate((1, 2, 3)):
            profile.record_slot(slot, c)
        assert profile.history[-1] == snapshot == [10, 55, 12]
        assert profile.counts == [1, 2, 3]
        profile.finish_run()
        assert profile.history == [[10, 55, 12], [1, 2, 3]]
        assert profile.counts == [0, 0, 0] and not any(profile.visited)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(order=st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))),
           cut=st.integers(0, 12), data=st.data())
    def test_run_complete_and_next_unvisited_match_a_brute_force_reference(
            self, order, cut, data):
        n = len(order)
        profile = SlotProfile(n)
        seen = set()
        for run in range(2):
            for slot in order[:cut] if run == 0 else order:
                profile.record_slot(slot, slot + 1)
                seen.add(slot)
                assert profile.run_complete() == (len(seen) == n)
                start = data.draw(st.integers(min_value=0, max_value=n))
                expected = next((s for s in range(start, n) if s not in seen), n)
                assert profile.next_unvisited(start) == expected
            if not profile.run_complete():
                break
            profile.finish_run()
            seen = set()
            assert not profile.run_complete() and profile.next_unvisited(0) == 0


class TestPartitionConverged:
    def test_no_episodes_is_false(self):
        cfg = LearnerConfig()
        table = QTable("LHL", 4, 3, 4)
        assert not partition_converged(table, 2, cfg)

    def test_frozen_table_converges_after_window(self):
        cfg = LearnerConfig(convergence_window=5)
        table = QTable("LHL", 4, 3, 4)
        for _ in range(5):
            table.record_episode(2, 0.0)
        assert partition_converged(table, 2, cfg)

    def test_one_big_change_resets_the_window(self):
        cfg = LearnerConfig(convergence_window=5, convergence_epsilon=3.0)
        table = QTable("LHL", 4, 3, 4)
        for _ in range(4):
            table.record_episode(2, 0.1)
        table.record_episode(2, 50.0)
        assert not partition_converged(table, 2, cfg)
        for _ in range(5):
            table.record_episode(2, 0.1)
        assert partition_converged(table, 2, cfg)


class TestProbePlan:
    def test_zero_budget(self):
        stream = Stream(0, "probe")
        assert probe_plan(tuple(range(10)), 0, stream) == ()
        assert stream.cursor == 0

    def test_everything_in_peaks(self):
        assert probe_plan((), 2, Stream(0, "probe")) == ()

    def test_reproducible_choice_outside_peaks(self):
        candidates = tuple(s for s in range(40) if s not in range(10, 13))
        a = probe_plan(candidates, 2, Stream(21, "probe"))
        b = probe_plan(candidates, 2, Stream(21, "probe"))
        assert a == b
        assert len(a) == 2
        assert a == tuple(sorted(a)) and set(a) <= set(candidates)

    def test_block_draws_equal_the_fisher_yates_draws(self):
        # 10,000 consecutive periods on one stream, each with its own
        # candidates (1-40 of 60 slots, ascending) and budget (0-5, at times
        # above the candidate count): the block-drawn probes are the sorted
        # picks of `sample_without_replacement`, and the cursor is where its
        # draws leave it after every period
        rng = np.random.default_rng(31)
        stream, reference = Stream(17, "probe"), Stream(17, "probe")
        over = 0
        for period in range(10_000):
            n = int(rng.integers(1, 41))
            budget = int(rng.integers(0, 6))
            over += budget > n
            candidates = tuple(sorted(rng.choice(60, n, replace=False).tolist()))
            want = tuple(sorted(reference.sample_without_replacement(candidates, budget)))
            assert probe_plan(candidates, budget, stream) == want, period
            assert stream.cursor == reference.cursor, period
        assert over > 100


class TestPhaseTransitions:
    """Phase 1's exits.  The latch from phase 2 to 3 and the return to phase
    1 are the policies' own (tests/test_policies.py, `TestPhaseEdges`)."""

    def _ctx(self):
        return PhaseContext(LearnerConfig())

    def test_profile_converged_to_phase2_when_shape_unknown(self):
        ctx = self._ctx()
        assert phase_transition(ctx, (LearnedPeak(10, "LHL"),), 4) == 2
        assert ctx.known_peaks == (LearnedPeak(10, "LHL"),)

    def test_profile_converged_to_phase3_when_table_converged(self):
        ctx = self._ctx()
        ctx.table_for("LHL").episodes_to_converge[4] = 12
        assert phase_transition(ctx, (LearnedPeak(15, "LHL"),), 4) == 3
        assert ctx.known_peaks == (LearnedPeak(15, "LHL"),)
        # converged at another entry level only: learn this one
        assert phase_transition(ctx, (LearnedPeak(15, "LHL"),), 3) == 2

    def test_profile_converged_without_peaks_to_phase3(self):
        # nothing to learn: exploit nothing and keep probing for events
        ctx = self._ctx()
        assert phase_transition(ctx, (), 4) == 3
        assert ctx.known_peaks == ()


class TestPartitionIsolation:
    """Episodes entered at one level touch only rows a brute-force
    reachability oracle marks reachable from that level."""

    def _reachable(self, cfg, pattern, entry_value, capacity, inflow_per_tick):
        # enumerate every action sequence over the peak, tracking the exact
        # energy evolution of the episode loop
        t_steps = len(pattern)
        duration = cfg.state_duration
        reachable = set()

        def walk(step, stored):
            level = math.ceil(cfg.k_levels * stored / capacity)
            level = min(max(level, 1), cfg.k_levels)
            reachable.add((level, step))
            if step > t_steps:
                return
            for action, freq in enumerate(cfg.frequencies):
                cost = len(wake_offsets(freq, duration))
                if cost > stored:
                    continue
                nxt = stored - cost + duration * inflow_per_tick
                nxt = min(nxt, capacity)
                if step < t_steps:
                    walk(step + 1, nxt)

        walk(1, entry_value)
        return {(lvl, stp) for lvl, stp in reachable if stp <= t_steps}

    def test_touched_rows_subset_of_reachable(self, monkeypatch):
        from smarton_sim import policies
        from smarton_sim.engine import SimConfig, run_experiment

        updated = set()  # every (table, row) an update touched

        def recording_q_update(table, state, *args, **kwargs):
            updated.add((table, state))
            return q_update(table, state, *args, **kwargs)

        monkeypatch.setattr(policies, "q_update", recording_q_update)

        cfg = LearnerConfig(k_levels=3, convergence_epsilon=1e9)
        pattern = build_pattern([("type1", 10)])
        sim = SimConfig(
            pattern=pattern,
            learner=cfg,
            policy="smarton",
            entry_level=3,
            repeat_first_period=True,
            n_periods=80,
            seed=5,
            capacity=120.0,
            charging_ratio=9.0,
        )
        result = run_experiment(sim)
        table = result.tables.get("LHL") or next(iter(result.tables.values()))
        oracle = self._reachable(
            cfg, table.shape, entry_value=100, capacity=120, inflow_per_tick=Fraction(1, 9),
        )
        touched_rows = {
            (row // table.t + 1, row % table.t + 1) for touched, row in updated if touched is table
        }
        assert touched_rows and touched_rows <= oracle
