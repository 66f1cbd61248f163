"""Energy storage and harvesting models.

* :class:`AbstractStore` -- stored energy as an integer count of quanta: one
  wake-up costs ``wake`` quanta and a charging ratio ``r`` means r ticks of
  harvesting fund one wake-up.  Every simulation runs on this store; the
  engine's kernel steps its energy, and the store carries it between
  periods.  The quantum is derived per run (``SimConfig.quantum``) so that
  every energy of the run is a whole number of quanta: the ledger balances
  with ``==`` and no decision depends on a rounding.
* :class:`CapacitorArray` -- a physical array with shared voltage, on-the-fly
  activation in ascending capacitance order, a charging-efficiency curve
  eta(V) = 1 - V / (2 * v_max), and its own per-tick harvest and draw.  A
  standalone model, not a scenario store: its presets top out at 1.24 units
  while one wake-up costs 1.0 and a profiling slot needs 30, so no policy
  ever woke on it in a simulation.

A real number enters a run as the shortest decimal that prints it
(`exact`), so INI text, library floats and trace lines agree.  Saturated
inflow is never an error: it is discarded and counted in
``wasted_saturation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from numbers import Integral

WAKE_COST = 1.0

# Slack for the capacitor array's float comparisons: its voltages round.
DRAW_SLACK = 1e-9

# The diurnal source rounds each value to this many decimal digits below the
# leading digit of its peak, so its values lie on a grid of one millionth of
# the peak, or finer, whatever libm's sin rounds.
DIURNAL_DIGITS = 6


class InsufficientEnergy(Exception):
    """A draw was requested that the store cannot fund; the store is unchanged."""


class NoInactiveCapacitor(Exception):
    """All capacitors are already active."""


class HarvestSource:
    """Nonnegative power profile over ticks, held exactly: the value at a
    tick is `count(tick)` whole steps of the Fraction `step`, so one tick's
    inflow is that count times the quanta of one step (`AbstractStore.inflow`).
    `count` repeats every `cycle` ticks; ``kind`` is one of ``constant``,
    ``constant-gated``, ``diurnal-ramp`` or ``trace-file``.
    """

    def __init__(self, count, step: Fraction, kind: str, cycle: int):
        self.count = count
        self.step = step
        self.kind = kind
        self.cycle = cycle

    def __call__(self, tick: int) -> float:
        """The value at `tick`, as the nearest float."""
        return float(self.count(tick) * self.step)

    @classmethod
    def constant(cls, level: float = 1.0) -> "HarvestSource":
        if level < 0:
            raise ValueError(f"source level must be nonnegative, got {level}")
        return cls(lambda t: 1, exact(level), "constant", 1)

    @classmethod
    def diurnal(cls, peak: float = 1.0, day_ticks: int = 86400) -> "HarvestSource":
        """Half-sine ramp over the first half of each day, dark otherwise,
        in steps of 10**-`diurnal_digits(peak)`."""
        if peak < 0:
            raise ValueError(f"source level must be nonnegative, got {peak}")
        digits = diurnal_digits(peak)
        scale = 10.0**digits

        def count(t: int) -> int:
            phase = (t % day_ticks) / day_ticks
            return round(peak * math.sin(2.0 * math.pi * phase) * scale) if phase < 0.5 else 0

        return cls(count, Fraction(10) ** -digits, "diurnal-ramp", day_ticks)

    @classmethod
    def constant_gated(cls, level: float, gaps, period_ticks: int) -> "HarvestSource":
        """Constant source that cuts to zero inside the given tick ranges of
        each period (a controlled-rig protocol: the peak's energy budget is
        then exactly the stored energy at peak entry)."""
        if level < 0:
            raise ValueError(f"source level must be nonnegative, got {level}")
        spans = tuple((int(a), int(b)) for a, b in gaps)

        def count(t: int) -> int:
            local = t % period_ticks
            for a, b in spans:
                if a <= local < b:
                    return 0
            return 1

        return cls(count, exact(level), "constant-gated", period_ticks)

    @classmethod
    def trace(cls, values: tuple[float, ...]) -> "HarvestSource":
        """The `read_trace_file` values, repeated cyclically, in steps of the
        largest value of which each is a whole multiple."""
        exacts = {v: exact(v) for v in set(values)}
        den = math.lcm(*(x.denominator for x in exacts.values()))
        step = Fraction(math.gcd(*(x.numerator * (den // x.denominator)
                                   for x in exacts.values())), den) or Fraction(1)
        counts = tuple(int(exacts[v] / step) for v in values)
        return cls(lambda t: counts[t % len(counts)], step, "trace-file", len(counts))


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


def diurnal_digits(peak: float) -> int:
    """Decimal places of the diurnal source's values: `DIURNAL_DIGITS` below
    the leading digit of `peak`.  A value then has at most seven significant
    digits, so its nearest float prints as that decimal exactly."""
    return DIURNAL_DIGITS - Decimal(repr(float(peak))).adjusted()


def exact(x) -> Fraction:
    """The real a number stands for: an int or Fraction as it is, a float as
    the shortest decimal that prints it, so that 0.1 is 1/10 whether it was
    read from INI text or a trace line or computed in Python."""
    return Fraction(x) if isinstance(x, (int, Fraction)) else Fraction(repr(float(x)))


def quantum(*values) -> int:
    """The least positive integer D with every `exact(value) * D` integral."""
    return math.lcm(*(exact(v).denominator for v in values))


def quanta(x, scale) -> int:
    """`exact(x) * scale` as an int; a value that is not a whole number of
    quanta is refused, as the run's quantum was derived to make it one."""
    q = exact(x) * scale
    if q.denominator != 1:
        raise ValueError(f"{x} is not a whole number of quanta at scale {scale}")
    return q.numerator


@lru_cache(maxsize=256)
def _inflow(numerator: int, denominator: int, wake: int, ratio: float) -> int:
    return quanta(Fraction(numerator, denominator), Fraction(wake) / exact(ratio))


def require_finite(config, *names: str) -> None:
    """Refuse a nan or infinite field of `config` by its name: nan would pass
    every range check by failing its comparison."""
    for name in names:
        if not math.isfinite(getattr(config, name)):
            raise ValueError(f"{name} must be finite, got {getattr(config, name)}")


def require_integer(config, *names: str) -> None:
    """Refuse a field of `config` that is not an integer, by its name: a
    count of 2.5 periods, a nan window or an infinite slot length."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class AbstractStore:
    """Stored energy on [0, capacity], both in quanta; one wake-up costs
    `wake` quanta, and a source value x adds x * wake / charging_ratio
    quanta in one tick (`inflow`, per step of the source)."""

    capacity: int
    charging_ratio: float
    wake: int = 1
    stored: int = 0
    wasted_saturation: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.charging_ratio <= 0:
            raise ValueError(f"charging ratio must be positive, got {self.charging_ratio}")
        if not 0 <= self.stored <= self.capacity:
            raise ValueError(f"stored {self.stored} outside [0, {self.capacity}]")

    def inflow(self, step: Fraction) -> int:
        """The quanta one tick harvests per `step` of source value."""
        return _inflow(step.numerator, step.denominator, self.wake, self.charging_ratio)


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


def quantize(stored: int, capacity: int, k: int) -> int:
    """Equal-width energy level in 1..k of `stored` quanta, the ceiling of
    k * stored / capacity; an empty store is level 1."""
    if k < 2:
        raise ValueError(f"need at least 2 levels, got {k}")
    level = -(-k * stored // capacity)  # clipped without builtin calls: asked at every step
    return 1 if level < 1 else k if level > k else level


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
