"""Event patterns and traces: shapes, sampling, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smarton_sim.events import (
    CANONICAL_SHAPES,
    EventTrace,
    InvalidSpec,
    PeakSpec,
    build_pattern,
    morph_pattern,
    sample_trace,
    shift_pattern,
)
from smarton_sim.learner import LearnerConfig, classify_shape


class TestBuildPattern:
    def test_canonical_shapes(self):
        assert CANONICAL_SHAPES["type1"] == ("L", "H", "L")
        assert CANONICAL_SHAPES["type2"] == ("H", "H", "H")
        assert CANONICAL_SHAPES["type3"] == ("H", "L", "L")
        assert CANONICAL_SHAPES["type4"] == ("L", "L", "H")

    def test_type1_by_name(self):
        pattern = build_pattern([("type1", 10)])
        assert pattern.peaks[0].steps == ("L", "H", "L")
        assert pattern.n_slots == 40
        assert pattern.peaks[0].start_slot == 10

    def test_overlapping_peaks_rejected(self):
        with pytest.raises(InvalidSpec, match="overlap"):
            build_pattern([("type1", 10), ("type2", 11)])

    def test_peak_exceeding_cap_rejected(self):
        # 5 steps of 30 s beats the 120 s ceiling
        peak = PeakSpec(0, ("L", "L", "H", "L", "L"))
        with pytest.raises(InvalidSpec, match="exceeds max"):
            build_pattern([peak])

    def test_peak_must_contain_an_h_step(self):
        with pytest.raises(InvalidSpec, match="at least one H"):
            PeakSpec(0, ("L", "L"))

    def test_probability_bounds(self):
        with pytest.raises(InvalidSpec):
            build_pattern([("type1", 0)], p_high=0.2, p_low=0.8)

    def test_duration_must_divide_period(self):
        with pytest.raises(InvalidSpec, match="divide"):
            build_pattern([("type1", 0)], period_ticks=1200, state_duration=33)

    def test_probability_schedule(self):
        pattern = build_pattern([("type1", 10)], p_high=0.8, p_low=0.2)
        probs = pattern.slot_probabilities()
        for tick, p in [(10 * 30, 0.2), (11 * 30, 0.8), (12 * 30 + 29, 0.2), (0, 0.0)]:
            assert probs[tick // pattern.state_duration] == p


class TestSampleTrace:
    def test_degenerate_probabilities_give_exact_counts(self):
        pattern = build_pattern([("type2", 5)], p_high=1.0, p_low=0.0)
        trace = sample_trace(pattern, seed=0, n_periods=3)
        per_period = trace.occurrences.reshape(3, 1200)
        for period in per_period:
            assert period.sum() == 90
            assert period[5 * 30 : 8 * 30].sum() == 90

    def test_zero_probability_trace_is_empty(self):
        pattern = build_pattern([("type1", 10)], p_high=0.01, p_low=0.0)
        trace = sample_trace(pattern, seed=0, n_periods=1)
        outside = np.concatenate(
            [trace.occurrences[: 10 * 30], trace.occurrences[13 * 30 :]]
        )
        assert outside.sum() == 0

    def test_determinism(self):
        pattern = build_pattern([("type1", 10)])
        a = sample_trace(pattern, seed=5, n_periods=4)
        b = sample_trace(pattern, seed=5, n_periods=4)
        assert np.array_equal(a.occurrences, b.occurrences)
        c = sample_trace(pattern, seed=6, n_periods=4)
        assert not np.array_equal(a.occurrences, c.occurrences)

    def test_empirical_step_frequencies(self):
        # law of large numbers: 200 periods put each step within 0.02
        pattern = build_pattern([("type1", 10)], p_high=0.8, p_low=0.2)
        trace = sample_trace(pattern, seed=11, n_periods=200)
        bits = trace.occurrences.reshape(200, 1200)
        for slot, expected in ((10, 0.2), (11, 0.8), (12, 0.2)):
            freq = bits[:, slot * 30 : (slot + 1) * 30].mean()
            assert abs(freq - expected) < 0.02

    def test_repeat_first_period_tiles(self):
        pattern = build_pattern([("type1", 10)])
        trace = sample_trace(pattern, seed=3, n_periods=5, repeat_first_period=True)
        bits = trace.occurrences.reshape(5, 1200)
        for k in range(1, 5):
            assert np.array_equal(bits[0], bits[k])

    def test_stationary_schedule_across_periods(self):
        # every period uses the same p(t): per-period event counts in the H
        # step concentrate around 24 with binomial spread
        pattern = build_pattern([("type1", 10)])
        trace = sample_trace(pattern, seed=1, n_periods=100)
        bits = trace.occurrences.reshape(100, 1200)
        h_counts = bits[:, 11 * 30 : 12 * 30].sum(axis=1)
        assert 20 < h_counts.mean() < 28


def _profile_counts(trace, n_slots=40, slot_len=30):
    """Perfect profiling: per-slot event counts of the first period."""
    return trace.occurrences[: n_slots * slot_len].reshape(n_slots, slot_len).sum(axis=1)


class TestShiftMorph:
    def test_shift_zero_is_identity(self):
        pattern = build_pattern([("type1", 10)])
        assert shift_pattern(pattern, 0) == pattern

    def test_shift_preserves_shape_key(self):
        cfg = LearnerConfig()
        pattern = build_pattern([("type1", 10)])
        trace = sample_trace(pattern, seed=7, n_periods=1)
        counts = _profile_counts(trace)
        shifted = shift_pattern(pattern, 5)
        assert shifted.peaks[0].start_slot == 15
        # the same realization, shifted in time, classifies identically
        rolled = EventTrace(
            occurrences=np.roll(trace.occurrences, 5 * 30),
            seed=trace.seed,
            pattern_id="rolled",
            period_ticks=1200,
        )
        counts_shifted = _profile_counts(rolled)
        key_orig = classify_shape(counts[10:13], cfg)
        key_shifted = classify_shape(counts_shifted[15:18], cfg)
        assert key_orig == key_shifted

    def test_shift_out_of_period_rejected(self):
        pattern = build_pattern([("type1", 37)])
        with pytest.raises(InvalidSpec):
            shift_pattern(pattern, 1)

    def test_morph_changes_shape_key(self):
        cfg = LearnerConfig()
        pattern = build_pattern([("type1", 10)], p_high=1.0, p_low=0.2)
        morphed = morph_pattern(pattern, 0, "type2")
        assert morphed.peaks[0].steps == ("H", "H", "H")
        t1 = sample_trace(pattern, seed=9, n_periods=1)
        t2 = sample_trace(morphed, seed=9, n_periods=1)
        k1 = classify_shape(_profile_counts(t1)[10:13], cfg)
        k2 = classify_shape(_profile_counts(t2)[10:13], cfg)
        assert k1 == "LHL"
        assert k2 == "HHH"

    def test_morph_bad_index(self):
        pattern = build_pattern([("type1", 10)])
        with pytest.raises(InvalidSpec):
            morph_pattern(pattern, 3, "type2")


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_periods=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_trace_purity_property(seed, n_periods):
    pattern = build_pattern([("type3", 20)])
    a = sample_trace(pattern, seed, n_periods)
    b = sample_trace(pattern, seed, n_periods)
    assert np.array_equal(a.occurrences, b.occurrences)
    assert len(a.occurrences) == 1200 * n_periods
