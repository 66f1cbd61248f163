"""Energy stores: harvesting semantics, draws, activation, quantization."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smarton_sim.energy import (
    CapacitorArray,
    HarvestSource,
    InsufficientEnergy,
    NoInactiveCapacitor,
    capacitor_preset,
    exact,
    quanta,
    quantize,
    quantum,
)

from per_tick_oracle import can_draw, draw, harvest_tick, store_for


def constant(level=1.0):
    return HarvestSource.constant(level)


def decimals(low, high, places):
    return st.decimals(min_value=Decimal(str(low)), max_value=Decimal(str(high)),
                       places=places, allow_nan=False, allow_infinity=False)


class TestExactNumbers:
    def test_a_float_is_the_decimal_that_prints_it(self):
        assert exact(0.1) == Fraction(1, 10)
        assert exact(0.1 + 0.2) == Fraction("0.30000000000000004")
        assert exact(8.5) == Fraction(17, 2) and exact(3) == 3
        assert exact(Fraction(1, 3)) == Fraction(1, 3)

    def test_the_quantum_makes_every_value_whole(self):
        assert quantum(1, 120.0, exact(1.0) / exact(8.5)) == 17
        assert quantum(1, 30.05, 0.25) == 20
        assert quanta(0.25, 20) == 5
        with pytest.raises(ValueError, match="not a whole number of quanta"):
            quanta(0.25, 2)

    def test_diurnal_values_lie_on_a_grid_of_a_millionth_of_the_peak(self):
        for peak, step in ((1.0, Fraction(1, 10**6)), (2.5, Fraction(1, 10**6)),
                           (0.03, Fraction(1, 10**8)), (400.0, Fraction(1, 10**4))):
            source = HarvestSource.diurnal(peak, day_ticks=997)
            assert source.step == step
            values = [source(t) for t in range(997)]
            assert max(values) > 0.99 * peak
            assert all(exact(v) == source.count(t) * step for t, v in enumerate(values))

    def test_a_trace_steps_by_the_largest_common_step(self):
        source = HarvestSource.trace((0.25, 1.5, 0.0, 2.25))
        assert source.step == Fraction(1, 4)
        assert [source.count(t) for t in range(5)] == [1, 6, 0, 9, 1]
        assert [source(t) for t in range(4)] == [0.25, 1.5, 0.0, 2.25]
        assert HarvestSource.trace((0.0,)).count(0) == 0


class TestAbstractStore:
    def test_charging_ratio_funds_one_wake_after_r_ticks(self):
        # r ticks of harvesting fund exactly one wake-up
        store = store_for(120, 9)
        src = constant(1.0)
        for t in range(9):
            assert not can_draw(store)
            harvest_tick(store, src, t)
        assert store.stored == store.wake
        assert can_draw(store)

    def test_zero_source_is_identity(self):
        store = store_for(120, 9, stored=5.0)
        src = constant(0.0)
        for t in range(100):
            harvest_tick(store, src, t)
        assert store.stored == 5 * store.wake
        assert store.wasted_saturation == 0

    def test_saturation_is_logged_not_lost_silently(self):
        store = store_for(2.0, 1)
        src = constant(1.0)
        for t in range(5):
            harvest_tick(store, src, t)
        assert store.stored == store.capacity == 2 * store.wake
        assert store.wasted_saturation == 3 * store.wake

    def test_draw_arithmetic(self):
        store = store_for(120, 9, stored=10.0)
        draw(store, 3)
        assert store.stored == 7 * store.wake

    def test_an_inflow_off_the_quantum_is_refused(self):
        store = store_for(120, 9)
        assert store.inflow(Fraction(1)) == 1
        with pytest.raises(ValueError, match="not a whole number of quanta"):
            store.inflow(Fraction(1, 2))

    @given(r=decimals(1.1, 40, 2))
    @settings(max_examples=200)
    def test_funding_identity_ceil_r_ticks(self, r):
        # starting empty, exactly ceil(r) harvest ticks fund one wake cost
        store = store_for(1e9, float(r))
        src = constant(1.0)
        need = math.ceil(r)
        for t in range(need - 1):
            harvest_tick(store, src, t)
        assert not can_draw(store)
        harvest_tick(store, src, need - 1)
        assert can_draw(store)


class TestQuantize:
    def test_empty_store_is_level_one(self):
        assert quantize(0, 120, 4) == 1

    def test_full_store_is_level_k(self):
        assert quantize(120, 120, 4) == 4

    def test_mid_bin_example(self):
        # K=4, capacity 120, stored 50 sits in bin (30, 60]
        assert quantize(50, 120, 4) == 2

    @pytest.mark.parametrize("stored, level", [(-200, 1), (-1, 1), (121, 4), (10**9, 4)])
    def test_stores_outside_the_capacity_clip_to_the_end_levels(self, stored, level):
        assert quantize(stored, 120, 4) == level

    @given(capacity=st.integers(min_value=1, max_value=10**6), k=st.integers(2, 12),
           level=st.integers(1, 12), scale=st.sampled_from([1, 17, 2**70]))
    def test_a_level_holds_its_top_and_not_the_quantum_above(self, capacity, k, level, scale):
        level = min(level, k)
        capacity *= k * scale
        top = level * capacity // k
        assert quantize(top, capacity, k) == level
        if level < k:
            assert quantize(top + 1, capacity, k) == level + 1

    @given(
        stored=st.integers(min_value=0, max_value=1200),
        k=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=300)
    def test_levels_in_range(self, stored, k):
        level = quantize(stored, 1200, k)
        assert 1 <= level <= k

    @given(k=st.integers(min_value=2, max_value=12))
    def test_monotone_and_surjective(self, k):
        levels = [quantize(x, 2400, k) for x in range(0, 2401)]
        assert levels == sorted(levels)
        assert set(levels) == set(range(1, k + 1))


class TestCapacitorArray:
    def test_image_preset_activation_order(self):
        array = capacitor_preset("image")
        assert array.capacitances == [0.012, 0.012, 0.047, 0.047, 0.110]
        order = []
        array.voltage = 1.0
        for _ in range(4):
            array.activate_next_capacitor()
            order.append(array.capacitances[array.n_active - 1])
        assert order == [0.012, 0.047, 0.047, 0.110]
        with pytest.raises(NoInactiveCapacitor):
            array.activate_next_capacitor()

    def test_audio_preset(self):
        array = capacitor_preset("audio")
        assert array.capacitances == [0.0047, 0.012, 0.012, 0.047]

    def test_activation_conserves_charge(self):
        # 12 mF at 3.0 V joined by 47 mF: V' = 3.0 * 12 / 59
        array = CapacitorArray([0.012, 0.047], v_max=3.3, v_activate=2.8)
        array.voltage = 3.0
        q_before = array.active_capacitance * array.voltage
        array.activate_next_capacitor()
        assert array.voltage == pytest.approx(3.0 * 12 / 59, rel=1e-12)
        q_after = array.active_capacitance * array.voltage
        assert q_after == pytest.approx(q_before, rel=1e-12)

    def test_activation_of_zero_farad_capacitor_keeps_voltage(self):
        array = CapacitorArray([0.0, 0.0])
        array.voltage = 3.0
        array.activate_next_capacitor()
        assert array.voltage == 3.0

    def test_draw_recomputes_voltage(self):
        # 24 mF at 2.0 V stores 48 mJ; drawing 24 mJ leaves sqrt(2) volts
        array = CapacitorArray([0.012, 0.012])
        array.n_active = 2
        array.voltage = 2.0
        assert array.stored == pytest.approx(0.048)
        array.draw(0.024)
        assert array.voltage == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_draw_insufficient(self):
        array = CapacitorArray([0.012])
        array.voltage = 1.0
        with pytest.raises(InsufficientEnergy):
            array.draw(1.0)

    def test_harvest_activates_past_threshold(self):
        array = capacitor_preset("image")
        src = constant(0.002)
        for t in range(200):
            array.harvest_tick(src, t)
        # long charging walks through activations and keeps V at or below
        # the activation threshold while capacitors remain
        assert array.n_active >= 2
        assert array.voltage <= array.v_activate + 1e-12

    def test_single_capacitor_inflow_matches_closed_form(self):
        # independent cross-check: dI = C V dV / (1 - V/(2 v_max)) integrates to
        # I(V) = 2 v_max C (2 v_max ln(2 v_max / (2 v_max - V)) - V)
        c, v_max = 0.110, 3.3
        array = CapacitorArray([c], v_max=v_max, v_activate=v_max)
        src = constant(0.0005)
        target_v = 2.0
        inflow = 0.0
        t = 0
        while array.voltage < target_v:
            inflow += 0.0005
            array.harvest_tick(src, t)
            t += 1
        closed = 2 * v_max * c * (
            2 * v_max * math.log(2 * v_max / (2 * v_max - target_v)) - target_v
        )
        assert inflow == pytest.approx(closed, rel=0.01)

    def test_array_beats_single_largest_past_saturation(self):
        # frozen from the pre-build integration oracle: 3200 ticks at 1 mJ
        # leave the expanding array at its 1241.46 mJ cap while the single
        # 110 mF capacitor saturates at 598.95 mJ
        array = capacitor_preset("image")
        single = CapacitorArray([0.110], v_max=3.3, v_activate=3.3)
        src = constant(0.001)
        for t in range(3200):
            array.harvest_tick(src, t)
            single.harvest_tick(src, t)
        assert array.stored == pytest.approx(1.24146, rel=1e-3)
        assert single.stored == pytest.approx(0.59895, rel=1e-3)
        assert array.stored >= single.stored

    @given(
        trace=st.lists(
            st.floats(min_value=0.0, max_value=0.005), min_size=50, max_size=400
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_array_vs_single_property_in_saturation_regime(self, trace):
        # the appendix claim is about saturation avoidance: repeat the trace
        # until cumulative inflow passes 2.5x the single capacitor's
        # saturation inflow.  At that point the bound is unconditional:
        # eta >= 1/2 and ladder redistribution losses <= ~0.45 J give the
        # array at least 0.70 J against the single's 0.599 J ceiling.
        total = sum(trace)
        if total < 1e-4:
            return
        reps = math.ceil(2.5 * 0.9255 / total)
        values = trace * reps
        array = capacitor_preset("image")
        single = CapacitorArray([0.110], v_max=3.3, v_activate=3.3)
        src_arr = HarvestSource.trace(tuple(values))
        for t in range(len(values)):
            array.harvest_tick(src_arr, t)
            single.harvest_tick(src_arr, t)
        assert array.stored >= single.stored - 1e-12


class TestEnergyMonotonicity:
    @given(
        caps=st.lists(st.floats(min_value=1e-3, max_value=0.2), min_size=2, max_size=6),
        voltage=st.floats(min_value=0.0, max_value=3.3),
        n_active=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=300)
    def test_activation_never_increases_stored_energy(self, caps, voltage, n_active):
        caps = sorted(caps)
        array = CapacitorArray(caps, v_max=3.3, v_activate=2.8)
        array.n_active = min(n_active, len(caps) - 1)
        array.voltage = voltage
        before = array.stored
        array.activate_next_capacitor()
        assert array.stored <= before + 1e-15
        if voltage > 1e-6 and caps[array.n_active - 1] > 0:
            assert array.stored < before

    @given(
        stored=decimals(0, 100, 3),
        inflow=decimals(0, 10, 3),
    )
    @settings(max_examples=200)
    def test_harvest_never_decreases_draw_never_increases(self, stored, inflow):
        store = store_for(120.0, 1.0, float(stored), levels=(float(inflow),))
        before = store.stored
        harvest_tick(store, constant(float(inflow)), 0)
        assert store.stored >= before
        if can_draw(store):
            s = store.stored
            draw(store)
            assert store.stored <= s


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown capacitor preset"):
        capacitor_preset("nope")


def test_source_kinds():
    diurnal = HarvestSource.diurnal(peak=2.0, day_ticks=100)
    assert diurnal(0) == pytest.approx(0.0)
    assert diurnal(25) == pytest.approx(2.0)
    assert diurnal(75) == 0.0
    assert all(diurnal(t) >= 0 for t in range(100))
    with pytest.raises(ValueError):
        HarvestSource.constant(-1.0)
    with pytest.raises(ValueError):
        HarvestSource.diurnal(-1.0)
