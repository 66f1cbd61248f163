"""Host speed probe.

The 2-vCPU host this benchmark was written on changes speed by up to
2x within seconds, with regimes that last from milliseconds to about a
minute (other tenants share the physical cores; process CPU time slows with
wall time, so nothing is descheduled).  A fixed pure-Python loop timed for
10 minutes had an interquartile spread of 10% between 20-second windows, and
the raw wall time of one benchmark workload spread 28% over ten runs.

So while a sweep runs, :func:`probe` -- a fixed loop shaped like the period
kernel (float adds, a clamp, list indexing) -- is timed between two periods
whenever INTERVAL_S has passed since the last probe, in every process that
simulates.  ``NOMINAL_S / probe seconds`` is the host's relative speed at
that moment; probes are evenly spaced in time, so their mean speed over an
interval turns its host seconds into seconds at nominal speed
(:func:`relative_speed`).  Reported times are scaled that way; the raw times
and the speeds are kept in the detail file.  The probe does not touch the
simulator, so a change to the program cannot change the scaling.
"""

from __future__ import annotations

from time import perf_counter

# Median probe time on the reference host (Intel Xeon, 2 vCPUs, Python 3.11.7)
NOMINAL_S = 0.0005
# One probe per 10 ms of simulation: about 5% of the time, taken out again
INTERVAL_S = 0.01

_EVENTS = [(t * 7919) % 13 == 0 for t in range(1200)]


def probe() -> float:
    """Seconds one fixed kernel-shaped loop takes right now."""
    events = _EVENTS
    t0 = perf_counter()
    stored, waste, caught = 0.0, 0.0, 0
    for _ in range(4):
        for t in range(1200):
            stored += 0.1176
            if stored > 120.0:
                waste += stored - 120.0
                stored = 120.0
            if events[t] and stored >= 1.0:
                stored -= 1.0
                caught += 1
    return perf_counter() - t0


def relative_speed(probes) -> float:
    """Mean host speed over the probes, 1.0 being nominal."""
    return sum(NOMINAL_S / p for p in probes) / len(probes)
