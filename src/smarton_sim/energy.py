"""Energy storage and harvesting models.

* :class:`AbstractStore` -- stored energy in wake-up units; one wake-up costs
  ``WAKE_COST`` and a charging ratio ``r`` means r ticks of harvesting fund
  one wake-up.  Every simulation runs on this store; the engine's kernel
  steps its energy, and the store carries it between periods.
* :class:`CapacitorArray` -- a physical array with shared voltage, on-the-fly
  activation in ascending capacitance order, a charging-efficiency curve
  eta(V) = 1 - V / (2 * v_max), and its own per-tick harvest and draw.  A
  standalone model, not a scenario store: its presets top out at 1.24 units
  while one wake-up costs 1.0 and a profiling slot needs 30, so no policy
  ever woke on it in a simulation.

Saturated inflow is never an error: it is discarded and counted in
``wasted_saturation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

WAKE_COST = 1.0

# Slack for float comparisons when repeated per-tick additions must fund an
# exact integer number of wake-ups.
DRAW_SLACK = 1e-9


class InsufficientEnergy(Exception):
    """A draw was requested that the store cannot fund; the store is unchanged."""


class NoInactiveCapacitor(Exception):
    """All capacitors are already active."""


class HarvestSource:
    """Nonnegative power profile over ticks.

    ``kind`` is one of ``constant``, ``constant-gated``, ``diurnal-ramp`` or
    ``trace-file``.
    """

    def __init__(self, profile, kind: str):
        self._profile = profile
        self.kind = kind

    def __call__(self, tick: int) -> float:
        value = self._profile(tick)
        return value if value > 0.0 else 0.0

    @classmethod
    def constant(cls, level: float = 1.0) -> "HarvestSource":
        if level < 0:
            raise ValueError(f"source level must be nonnegative, got {level}")
        return cls(lambda t: level, "constant")

    @classmethod
    def diurnal(cls, peak: float = 1.0, day_ticks: int = 86400) -> "HarvestSource":
        """Half-sine ramp over the first half of each day, dark otherwise."""

        def profile(t: int) -> float:
            phase = (t % day_ticks) / day_ticks
            return peak * math.sin(2.0 * math.pi * phase) if phase < 0.5 else 0.0

        return cls(profile, "diurnal-ramp")

    @classmethod
    def constant_gated(cls, level: float, gaps, period_ticks: int) -> "HarvestSource":
        """Constant source that cuts to zero inside the given tick ranges of
        each period (a controlled-rig protocol: the peak's energy budget is
        then exactly the stored energy at peak entry)."""
        if level < 0:
            raise ValueError(f"source level must be nonnegative, got {level}")
        spans = tuple((int(a), int(b)) for a, b in gaps)

        def profile(t: int) -> float:
            local = t % period_ticks
            for a, b in spans:
                if a <= local < b:
                    return 0.0
            return level

        return cls(profile, "constant-gated")

    @classmethod
    def trace(cls, values: tuple[float, ...]) -> "HarvestSource":
        """The `read_trace_file` values, repeated cyclically."""
        return cls(lambda t: values[t % len(values)], "trace-file")


def read_trace_file(path) -> tuple[float, ...]:
    """One finite, nonnegative number per line, blank lines skipped.  Raises
    ValueError on anything else."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read source trace {path}: {exc.strerror or exc}") from None
    values = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                values.append(float(line))
            except ValueError:
                values.append(math.nan)
            if not 0.0 <= values[-1] < math.inf:
                raise ValueError(f"source trace {path} line {number}: need a finite "
                                 f"nonnegative number, got {line.strip()!r}")
    if not values:
        raise ValueError(f"empty source trace: {path}")
    return tuple(values)


def require_finite(config, *names: str) -> None:
    """Refuse a nan or infinite field of `config` by its name: nan would pass
    every range check by failing its comparison."""
    for name in names:
        if not math.isfinite(getattr(config, name)):
            raise ValueError(f"{name} must be finite, got {getattr(config, name)}")


@dataclass
class AbstractStore:
    """Stored energy in wake-up units on [0, capacity]."""

    capacity: float
    charging_ratio: float
    stored: float = 0.0
    wasted_saturation: float = field(default=0.0, repr=False)

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.charging_ratio <= 0:
            raise ValueError(f"charging ratio must be positive, got {self.charging_ratio}")
        if not 0 <= self.stored <= self.capacity:
            raise ValueError(f"stored {self.stored} outside [0, {self.capacity}]")


class CapacitorArray:
    """Capacitors sharing one voltage; the active set is a prefix of the
    ascending-capacitance order and the first capacitor is always active."""

    def __init__(self, capacitances, v_max: float = 3.3, v_activate: float = 2.8):
        caps = list(capacitances)
        if not caps:
            raise ValueError("capacitor array needs at least one capacitor")
        if any(c < 0 for c in caps):
            raise ValueError("capacitances must be nonnegative")
        if sorted(caps) != caps:
            raise ValueError("capacitances must be in ascending order")
        if not 0 < v_activate <= v_max:
            raise ValueError(f"need 0 < v_activate <= v_max, got {v_activate}, {v_max}")
        self.capacitances = caps
        self.n_active = 1
        self.voltage = 0.0
        self.v_max = v_max
        self.v_activate = v_activate
        self.wasted_saturation = 0.0
        self.redistribution_loss = 0.0

    @property
    def active_capacitance(self) -> float:
        return sum(self.capacitances[: self.n_active])

    @property
    def capacity(self) -> float:
        """Energy at v_max with every capacitor active."""
        return 0.5 * sum(self.capacitances) * self.v_max**2

    @property
    def stored(self) -> float:
        return 0.5 * self.active_capacitance * self.voltage**2

    def eta(self, voltage: float) -> float:
        """Charging efficiency at the given voltage; linear decline in V."""
        return 1.0 - voltage / (2.0 * self.v_max)

    def harvest_tick(self, source: HarvestSource, tick: int) -> float:
        """Credit eta(V) * e_in, activating capacitors past the threshold.

        Returns the credited inflow (post-efficiency); conversion loss is
        upstream of the store and never appears in the ledger."""
        e_in = source(tick)
        if e_in <= 0.0:
            return 0.0
        credited = self.eta(self.voltage) * e_in
        energy = self.stored + credited
        c = self.active_capacitance
        self.voltage = math.sqrt(2.0 * energy / c) if c > 0 else 0.0
        while self.voltage > self.v_activate and self.n_active < len(self.capacitances):
            self.activate_next_capacitor()
        if self.voltage > self.v_max:
            c = self.active_capacitance
            at_cap = 0.5 * c * self.v_max**2
            self.wasted_saturation += 0.5 * c * self.voltage**2 - at_cap
            self.voltage = self.v_max
        return credited

    def activate_next_capacitor(self) -> None:
        """Activate the smallest inactive capacitor, conserving charge.

        Redistribution strictly loses stored energy whenever V > 0; the loss
        is tracked so period ledgers still balance on array runs."""
        if self.n_active >= len(self.capacitances):
            raise NoInactiveCapacitor("all capacitors are active")
        before = self.stored
        c_old = self.active_capacitance
        c_new = self.capacitances[self.n_active]
        self.n_active += 1
        if c_old + c_new > 0:
            self.voltage = self.voltage * c_old / (c_old + c_new)
        self.redistribution_loss += before - self.stored

    def can_draw(self, amount: float) -> bool:
        return self.stored >= amount - DRAW_SLACK

    def draw(self, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"draw amount must be nonnegative, got {amount}")
        if not self.can_draw(amount):
            raise InsufficientEnergy(f"stored {self.stored} < requested {amount}")
        energy = max(0.0, self.stored - amount)
        c = self.active_capacitance
        self.voltage = math.sqrt(2.0 * energy / c) if c > 0 else 0.0


def quantize(stored: float, capacity: float, k: int) -> int:
    """Equal-width energy level in 1..k; an empty store is level 1."""
    if k < 2:
        raise ValueError(f"need at least 2 levels, got {k}")
    level = math.ceil(k * stored / capacity)
    return min(max(level, 1), k)


# Capacitor presets by name.  v_max/v_activate defaults (3.3 V / 2.8 V) are
# project conventions, not measured values.
CAPACITOR_PRESETS = {
    "image": (0.012, 0.012, 0.047, 0.047, 0.110),
    "audio": (0.0047, 0.012, 0.012, 0.047),
}


def capacitor_preset(name: str, v_max: float = 3.3, v_activate: float = 2.8) -> CapacitorArray:
    if name not in CAPACITOR_PRESETS:
        raise ValueError(
            f"unknown capacitor preset {name!r}; valid: {sorted(CAPACITOR_PRESETS)}"
        )
    return CapacitorArray(CAPACITOR_PRESETS[name], v_max=v_max, v_activate=v_activate)
