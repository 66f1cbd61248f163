"""Per-tick reference interpreter for the engine's period kernel.

It steps every tick through the per-tick store operations defined here
(`harvest_tick`, `can_draw`, `draw` on an `AbstractStore`, in integer
quanta) and the policy hooks in the documented order -- slot bookkeeping,
wake decision, draw (an unfundable wake-up is skipped), then harvest --
with CTID's charge/discharge rule written out per tick and GT awake at
every tick.  Tests run whole experiments through it by patching it over the
kernel and the CTID warm-up, then compare every log field and per-tick array
with the kernel's.
"""

from unittest import mock

import numpy as np

from smarton_sim import engine
from smarton_sim.energy import AbstractStore, exact, quanta, quantum
from smarton_sim.policies import BURST, CtidPolicy, GtPolicy


def store_for(capacity, ratio, stored=0.0, levels=(1.0,)):
    """An `AbstractStore` whose quantum makes the capacity, the stored
    energy and an inflow at each source value of `levels` whole."""
    wake = quantum(capacity, stored, *(exact(v) / exact(ratio) for v in levels))
    return AbstractStore(quanta(capacity, wake), ratio, wake, quanta(stored, wake))


def harvest_tick(store, source, tick):
    """Add source(tick) * wake / charging_ratio quanta, clamped at capacity.

    Returns the gross inflow (clamped surplus is counted in
    ``wasted_saturation``, not silently dropped)."""
    inflow = source.count(tick) * store.inflow(source.step)
    room = store.capacity - store.stored
    if inflow > room:
        store.wasted_saturation += inflow - room
        store.stored = store.capacity
    else:
        store.stored += inflow
    return inflow


def can_draw(store, wakeups=1):
    return store.stored >= wakeups * store.wake


def draw(store, wakeups=1):
    """Draw `wakeups` wake costs, which `can_draw` has allowed."""
    store.stored -= wakeups * store.wake


def ctid_tick(policy, t, stored, wake):
    """CTID's (awake, harvest allowed) at tick t, given the stored quanta."""
    if policy.discharging and (stored <= policy.e_off or stored < wake):
        policy.discharging = False
    if not policy.discharging and stored >= policy.e_on:
        policy.discharging = True
        policy.discharge_start = t
    if policy.discharging:
        return (t - policy.discharge_start) % policy.cfg.wake_interval == 0, False
    return False, True


def ctid_warm_up(policy, store, source, ticks):
    for t in range(-ticks, 0):
        awake, harvest_ok = ctid_tick(policy, t, store.stored, store.wake)
        if awake and can_draw(store):
            draw(store)
        if harvest_ok:
            harvest_tick(store, source, 0)
    policy.discharge_start %= policy.cfg.wake_interval  # the cadence, as the kernel keeps it


def run_period(policy, store, segment, events, period_index):
    """`engine.run_period`, one tick at a time: each tick harvests
    `source.count(tick)` steps of the segment's source, priced by the store."""
    source, period_ticks, slot_len = segment.source, segment.period_ticks, segment.slot_len
    entry_slots, entry_value = segment.entry_slots, segment.entry_value
    phase_start = policy.current_phase
    stored_start = store.stored
    waste_before = store.wasted_saturation
    policy.on_period_start(period_index)
    awake_total = catches_total = skipped = 0
    drawn_total = harvested_total = forced_delta = 0
    wake = store.wake
    rows = []
    ctid = isinstance(policy, CtidPolicy)
    gt = isinstance(policy, GtPolicy)

    for slot in range(period_ticks // slot_len):
        base = slot * slot_len
        if entry_value is not None and slot in entry_slots and policy.current_phase >= 2:
            before = store.stored
            store.stored = entry_value
            forced_delta += store.stored - before
        plan = () if ctid or gt else policy.plan_slot(slot, store.stored)
        step = policy.current_step
        slot_awake = slot_catches = 0
        for i in range(slot_len):
            t = base + i
            harvest_ok = True
            if ctid:
                awake, harvest_ok = ctid_tick(policy, t, store.stored, wake)
            elif gt:
                awake = True
            elif plan == BURST:
                awake = can_draw(store)
                harvest_ok = False
            else:
                awake = i in plan
            drawn = 0
            if awake and policy.draws_energy:
                if can_draw(store):
                    draw(store)
                    drawn = wake
                else:
                    skipped += 1
                    awake = False
            if awake:
                slot_awake += 1
                slot_catches += events[t]
            harvested = harvest_tick(store, source, period_index * period_ticks + t) \
                if harvest_ok else 0
            harvested_total += harvested
            drawn_total += drawn
            rows.append((awake, drawn / wake, harvested / wake, store.stored / wake,
                         policy.current_phase, slot, step))
        awake_total += slot_awake
        catches_total += slot_catches
        policy.on_slot_end(slot, slot_awake, slot_catches, store.stored)
    if ctid:  # the cadence goes on in the next period's frame
        policy.discharge_start = (policy.discharge_start - period_ticks) % policy.cfg.wake_interval
    policy.on_period_end(period_index)

    ticks = None
    if segment.record:
        columns = zip(*rows)
        dtypes = (bool, np.float64, np.float64, np.float64, np.int8, np.int32, np.int32)
        names = ("awake", "drawn", "harvested", "stored", "phase", "slot", "step")
        ticks = {name: np.array(col, dtype=dt)
                 for name, col, dt in zip(names, columns, dtypes)}
        ticks["event"] = np.fromiter(events, bool, len(events))
    return engine.PeriodLog(
        period=period_index, phase_start=phase_start, awake_ticks=awake_total,
        event_ticks=int(sum(events)), catches=catches_total, drawn=drawn_total / wake,
        harvested=harvested_total / wake,
        wasted_saturation=(store.wasted_saturation - waste_before) / wake,
        skipped_wakeups=skipped, stored_start=stored_start / wake,
        stored_end=store.stored / wake, forced_delta=forced_delta / wake, ticks=ticks,
    )


def run_experiment(config):
    """`engine.run_experiment` with every period and the CTID warm-up stepped
    tick by tick."""
    with mock.patch.object(engine, "run_period", run_period), \
            mock.patch.object(engine, "_ctid_warm_up", ctid_warm_up):
        return engine.run_experiment(config)


def run_partition_study(config, order):
    with mock.patch.object(engine, "run_period", run_period):
        return engine.run_partition_study(config, order)
