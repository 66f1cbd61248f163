"""Counter-based RNG: purity, substream independence, uniformity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from smarton_sim.rng import GOLDEN_GAMMA, Stream, fnv1a64, mix64


def test_golden_values_pin_the_generator():
    # frozen reference outputs; any change to the generator breaks replay
    s = Stream(42, "trace")
    assert s.at(0) == pytest.approx(0.50961828284465382, abs=0)
    assert s.at(1) == pytest.approx(0.49568701590107833, abs=0)
    assert s.at(2) == pytest.approx(0.43262310592459507, abs=0)
    assert fnv1a64("trace") == 0xDEC59EA6C4EB9AEE
    assert mix64(12345) == 0xF36CF1164265DD51


def test_counter_purity():
    s = Stream(7, "explore")
    first = [s.at(i) for i in range(100)]
    # interleaved access does not disturb pure lookups
    s.next_double()
    s.next_double()
    assert [s.at(i) for i in range(100)] == first


def test_sequential_matches_counter():
    s = Stream(3, "probe")
    seq = [s.next_double() for _ in range(50)]
    assert seq == [s.at(i) for i in range(50)]


def test_block_doubles_equal_the_cursor_draws():
    # `next_doubles` reads blocks drawn ahead; the values and the cursor are
    # those of one `next_double` call per value, across block refills and
    # interleaved cursor draws
    s, ref = Stream(3, "probe"), Stream(3, "probe")
    for count in [1, 2, 5, 0, Stream.BLOCK - 3, 7, 2 * Stream.BLOCK, 3] * 3:
        assert s.next_doubles(count) == [ref.next_double() for _ in range(count)]
        assert s.cursor == ref.cursor
        assert s.next_below(40) == ref.next_below(40)
    s.cursor = 5  # a cursor moved back reads outside the block
    assert s.next_doubles(3) == [s.at(i) for i in range(5, 8)]


@settings(max_examples=300, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    name=st.text(max_size=8),
    start=st.integers(min_value=0, max_value=2**62),
    n=st.integers(min_value=1, max_value=2**53),
    kinds=st.lists(st.booleans(), min_size=1, max_size=12),
)
def test_cursor_draws_equal_counter_lookups(seed, name, start, n, kinds):
    # each cursor draw is the counter lookup at the cursor, and moves it by one
    s = Stream(seed, name)
    s.cursor = start
    for i, below in enumerate(kinds, start):
        if below:
            assert s.next_below(n) == int(s.at(i) * n)
        else:
            assert s.next_double() == s.at(i)
        assert s.cursor == i + 1


def test_batch_matches_scalar():
    s = Stream(11, "trace")
    batch = s.doubles(5, 200)
    assert batch.shape == (200,)
    assert all(batch[i] == s.at(5 + i) for i in range(200))


def test_substreams_independent_of_each_other():
    trace = Stream(123, "trace")
    explore = Stream(123, "explore")
    trace_before = [trace.at(i) for i in range(20)]
    # drain the explore stream heavily
    for _ in range(1000):
        explore.next_double()
    assert [trace.at(i) for i in range(20)] == trace_before


def test_different_names_give_different_streams():
    a = Stream(5, "trace")
    b = Stream(5, "explore")
    assert [a.at(i) for i in range(10)] != [b.at(i) for i in range(10)]


def test_adjacent_seeds_differ():
    a = Stream(100, "trace")
    b = Stream(101, "trace")
    assert [a.at(i) for i in range(10)] != [b.at(i) for i in range(10)]


def test_uniformity_chi_squared():
    # 1e6 draws, 100 equal bins, one-sided chi^2 at p > 0.01
    s = Stream(2024, "trace")
    u = s.doubles(0, 1_000_000)
    counts, _ = np.histogram(u, bins=100, range=(0.0, 1.0))
    expected = len(u) / 100
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < stats.chi2.ppf(0.99, 99)
    assert 0.0 <= u.min() and u.max() < 1.0


def test_shuffle_and_sampling_are_stream_driven():
    s1 = Stream(9, "shuffle")
    s2 = Stream(9, "shuffle")
    items = list(range(30))
    assert s1.shuffled(items) == s2.shuffled(items)
    assert sorted(s1.shuffled(items)) == items
    picks = Stream(4, "probe").sample_without_replacement(items, 5)
    assert len(picks) == 5 and len(set(picks)) == 5


def test_mix64_is_a_bijection_on_samples():
    outs = {mix64(i * GOLDEN_GAMMA) for i in range(10_000)}
    assert len(outs) == 10_000
