"""Periodic event-arrival patterns and sampled per-second event traces.

A pattern is a period of fixed length carrying non-overlapping probability
peaks.  Each peak is a run of slots labelled H or L; seconds inside an H
slot see events with probability ``p_high``, L slots ``p_low``, and seconds
outside every peak fire at ``background_rate`` (0 by default).

Traces are Bernoulli realizations drawn from the ``trace`` substream, with
the draw for second t taken at counter position t -- so a trace is a pure
function of (pattern, seed, n_periods) no matter what else consumed
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rng import Stream

CANONICAL_SHAPES = {
    "type1": ("L", "H", "L"),
    "type2": ("H", "H", "H"),
    "type3": ("H", "L", "L"),
    "type4": ("L", "L", "H"),
}


class InvalidSpec(ValueError):
    """Pattern construction violated a structural constraint."""


@dataclass(frozen=True)
class PeakSpec:
    start_slot: int
    steps: tuple[str, ...]
    shape_name: str = "custom"

    def __post_init__(self):
        if len(self.steps) < 1:
            raise InvalidSpec("peak must span at least one slot")
        if any(s not in ("H", "L") for s in self.steps):
            raise InvalidSpec(f"steps must be H or L, got {self.steps}")
        if "H" not in self.steps:
            raise InvalidSpec("a peak needs at least one H step")
        if self.start_slot < 0:
            raise InvalidSpec(f"start_slot must be nonnegative, got {self.start_slot}")

    @property
    def end_slot(self) -> int:
        """One past the last slot."""
        return self.start_slot + len(self.steps)


@dataclass(frozen=True)
class EventPattern:
    period_ticks: int
    state_duration: int
    peaks: tuple[PeakSpec, ...]
    p_high: float
    p_low: float
    background_rate: float = 0.0
    peak_max_duration: int = 120

    @property
    def n_slots(self) -> int:
        return self.period_ticks // self.state_duration

    def probability_at(self, tick_in_period: int) -> float:
        slot = tick_in_period // self.state_duration
        for peak in self.peaks:
            if peak.start_slot <= slot < peak.end_slot:
                cls = peak.steps[slot - peak.start_slot]
                return self.p_high if cls == "H" else self.p_low
        return self.background_rate

    def slot_probabilities(self) -> np.ndarray:
        """Per-slot event probability, one entry per slot."""
        probs = np.full(self.n_slots, self.background_rate)
        for peak in self.peaks:
            for i, cls in enumerate(peak.steps):
                probs[peak.start_slot + i] = self.p_high if cls == "H" else self.p_low
        return probs


def build_pattern(
    peaks,
    period_ticks: int = 1200,
    state_duration: int = 30,
    p_high: float = 0.8,
    p_low: float = 0.2,
    background_rate: float = 0.0,
    peak_max_duration: int = 120,
) -> EventPattern:
    """Validate and assemble an event pattern.

    ``peaks`` entries are PeakSpec instances or (shape_name, start_slot)
    pairs naming one of the canonical shapes.
    """
    if period_ticks <= 0 or state_duration <= 0:
        raise InvalidSpec("period_ticks and state_duration must be positive")
    if period_ticks % state_duration != 0:
        raise InvalidSpec(
            f"state_duration {state_duration} must divide period {period_ticks}"
        )
    if not (0 <= p_low < p_high <= 1):
        raise InvalidSpec(f"need 0 <= p_low < p_high <= 1, got {p_low}, {p_high}")
    if not 0 <= background_rate <= 1:
        raise InvalidSpec(f"background_rate outside [0, 1]: {background_rate}")

    max_steps = peak_max_duration // state_duration
    n_slots = period_ticks // state_duration

    specs: list[PeakSpec] = []
    for item in peaks:
        if isinstance(item, PeakSpec):
            specs.append(item)
        else:
            name, start = item
            if name not in CANONICAL_SHAPES:
                raise InvalidSpec(
                    f"unknown peak shape {name!r}; valid: {sorted(CANONICAL_SHAPES)}"
                )
            specs.append(PeakSpec(start, CANONICAL_SHAPES[name], shape_name=name))

    occupied: set[int] = set()
    for spec in specs:
        if len(spec.steps) > max_steps:
            raise InvalidSpec(
                f"peak of {len(spec.steps)} steps exceeds max {max_steps} "
                f"({peak_max_duration}s at {state_duration}s slots)"
            )
        if spec.end_slot > n_slots:
            raise InvalidSpec(
                f"peak {spec.shape_name}@{spec.start_slot} exits the period ({n_slots} slots)"
            )
        span = set(range(spec.start_slot, spec.end_slot))
        if span & occupied:
            raise InvalidSpec(f"peak {spec} overlaps another peak")
        occupied |= span

    return EventPattern(
        period_ticks=period_ticks,
        state_duration=state_duration,
        peaks=tuple(sorted(specs, key=lambda p: p.start_slot)),
        p_high=p_high,
        p_low=p_low,
        background_rate=background_rate,
        peak_max_duration=peak_max_duration,
    )


@dataclass(frozen=True)
class EventTrace:
    occurrences: np.ndarray  # uint8, length period_ticks * n_periods
    seed: int
    pattern_id: str
    period_ticks: int

    def __len__(self) -> int:
        return len(self.occurrences)

    @property
    def n_periods(self) -> int:
        return len(self.occurrences) // self.period_ticks

    @property
    def event_ticks(self) -> int:
        return int(self.occurrences.sum())


def pattern_id(pattern: EventPattern) -> str:
    bits = [
        f"{p.shape_name}:{''.join(p.steps)}@{p.start_slot}" for p in pattern.peaks
    ]
    return (
        f"T{pattern.period_ticks}/d{pattern.state_duration}"
        f"/H{pattern.p_high}/L{pattern.p_low}/b{pattern.background_rate}"
        f"/[{','.join(bits)}]"
    )


def sample_trace(
    pattern: EventPattern,
    seed: int,
    n_periods: int,
    repeat_first_period: bool = False,
    stream_name: str = "trace",
) -> EventTrace:
    """Draw a Bernoulli realization of the pattern.

    With ``repeat_first_period`` the first period's realization is tiled over
    all periods, which models a replayed emitter schedule (identical events
    every period) instead of fresh arrivals.  ``stream_name`` lets multi-
    segment experiments draw later segments from distinct substreams.
    """
    if n_periods < 1:
        raise InvalidSpec(f"n_periods must be >= 1, got {n_periods}")
    stream = Stream(seed, stream_name)
    probs_per_slot = pattern.slot_probabilities()
    per_tick = np.repeat(probs_per_slot, pattern.state_duration)

    if repeat_first_period:
        u = stream.doubles(0, pattern.period_ticks)
        period_bits = (u < per_tick).astype(np.uint8)
        bits = np.tile(period_bits, n_periods)
    else:
        u = stream.doubles(0, pattern.period_ticks * n_periods)
        bits = (u < np.tile(per_tick, n_periods)).astype(np.uint8)

    return EventTrace(
        occurrences=bits,
        seed=seed,
        pattern_id=pattern_id(pattern),
        period_ticks=pattern.period_ticks,
    )


def event_at(trace: EventTrace, t: int) -> bool:
    if not 0 <= t < len(trace.occurrences):
        raise IndexError(f"tick {t} outside trace of length {len(trace.occurrences)}")
    return bool(trace.occurrences[t])


def shift_pattern(pattern: EventPattern, delta_slots: int) -> EventPattern:
    """Move every peak by delta_slots; positional drift, same shapes."""
    moved = [replace(p, start_slot=p.start_slot + delta_slots) for p in pattern.peaks]
    return build_pattern(
        moved,
        period_ticks=pattern.period_ticks,
        state_duration=pattern.state_duration,
        p_high=pattern.p_high,
        p_low=pattern.p_low,
        background_rate=pattern.background_rate,
        peak_max_duration=pattern.peak_max_duration,
    )


def morph_pattern(pattern: EventPattern, peak_index: int, new_shape) -> EventPattern:
    """Replace one peak's step sequence (a shape change in place)."""
    if not 0 <= peak_index < len(pattern.peaks):
        raise InvalidSpec(f"no peak at index {peak_index}")
    old = pattern.peaks[peak_index]
    if isinstance(new_shape, str):
        if new_shape not in CANONICAL_SHAPES:
            raise InvalidSpec(f"unknown shape {new_shape!r}")
        steps = CANONICAL_SHAPES[new_shape]
        name = new_shape
    else:
        steps = tuple(new_shape)
        name = "custom"
    peaks = list(pattern.peaks)
    peaks[peak_index] = PeakSpec(old.start_slot, steps, shape_name=name)
    return build_pattern(
        peaks,
        period_ticks=pattern.period_ticks,
        state_duration=pattern.state_duration,
        p_high=pattern.p_high,
        p_low=pattern.p_low,
        background_rate=pattern.background_rate,
        peak_max_duration=pattern.peak_max_duration,
    )


def export_rle(trace: EventTrace, path) -> None:
    """Write the trace as `<tick>:<0|1>` change points (run-length encoding)."""
    bits = trace.occurrences
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# length={len(bits)} period={trace.period_ticks} seed={trace.seed}\n")
        fh.write(f"# pattern={trace.pattern_id}\n")
        prev = None
        for t, bit in enumerate(bits):
            if bit != prev:
                fh.write(f"{t}:{int(bit)}\n")
                prev = bit


def import_rle(path) -> EventTrace:
    length = period = seed = None
    pid = ""
    changes: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    key, _, value = token.partition("=")
                    if key == "length":
                        length = int(value)
                    elif key == "period":
                        period = int(value)
                    elif key == "seed":
                        seed = int(value)
                    elif key == "pattern":
                        pid = value
                continue
            tick_s, _, val_s = line.partition(":")
            changes.append((int(tick_s), int(val_s)))
    if length is None or period is None:
        raise ValueError(f"missing length/period header in {path}")
    bits = np.zeros(length, dtype=np.uint8)
    for (t, v), nxt in zip(changes, changes[1:] + [(length, 0)]):
        bits[t : nxt[0]] = v
    return EventTrace(
        occurrences=bits, seed=seed or 0, pattern_id=pid, period_ticks=period
    )
