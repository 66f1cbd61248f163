"""Scenario configs: INI parsing, presets and sweep expansion.

A scenario is a flat parameter set over six sections ([run], [pattern],
[energy], [learner], [policy], [sweep]) with every default pre-filled, so an
empty file is a valid scenario.  Unknown sections or keys are hard errors.
Sweep axes expand into a cross product of runs keyed by
(policy, event_type, entry_level, state_duration, charging_ratio, seed).

This layer only parses (syntax, finite numbers).  Each range rule lives in
the type that owns the field (`build_pattern`, `LearnerConfig`, `CtidConfig`,
`SimConfig`); `build_sim_config` turns their errors into ScenarioError, for
base values at parse time and for every sweep run before any run starts.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace as dc_replace

from .engine import PatternChange, SimConfig
from .events import build_pattern
from .learner import LearnerConfig
from .policies import CtidConfig


class ScenarioError(Exception):
    """Config parsing or validation failed; message names the field."""


# section -> key -> (default string, parser)
def _bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _opt_int(s: str):
    return int(s) if s.strip() else None


def _opt_str(s: str):
    return s.strip() or None


def _finite(s: str) -> float:
    # float() accepts nan, which fails every comparison and so slips past
    # range checks, and inf
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {s.strip()!r}")
    return x


def _floats(s: str) -> tuple[float, ...]:
    return tuple(_finite(x) for x in s.split(","))


SCHEMA = {
    "run": {
        "name": ("scenario", str),
        "n_periods": ("60", int),
        "seed": ("0", int),
        "record_level": ("summary", str),
        "measure_from": ("0", int),
        "entry_level": ("", _opt_int),
        "repeat_events": ("false", _bool),
        "stop_rule": ("", _opt_str),
        "ctid_phase_jitter": ("false", _bool),
    },
    "pattern": {
        "period_ticks": ("1200", int),
        "state_duration": ("30", int),
        "peaks": ("type1@10", str),
        "p_high": ("0.8", _finite),
        "p_low": ("0.2", _finite),
        "background_rate": ("0.0", _finite),
        "peak_max_duration": ("120", int),
    },
    "energy": {
        "capacity": ("120", _finite),
        "charging_ratio": ("9", _finite),
        "source": ("constant", str),
        "source_level": ("1.0", _finite),
        "gate_in_peaks": ("false", _bool),
    },
    "learner": {
        "alpha": ("0.7", _finite),
        "gamma": ("0.618", _finite),
        "reward_catch": ("10", _finite),
        "reward_miss": ("-1", _finite),
        "energy_levels": ("4", int),
        "state_duration": ("", _opt_int),
        "frequencies": ("0,0.2,0.5,1", _floats),
        "convergence_epsilon": ("3.0", _finite),
        "convergence_window": ("5", int),
        "convergence_scope": ("entry_row", str),
        "profile_window": ("2", int),
        "profile_tol_abs": ("2", _finite),
        "profile_tol_rel": ("0.25", _finite),
        "shape_theta": ("0.5", _finite),
        "probe_budget": ("2", int),
        "probe_trigger": ("1", int),
    },
    "policy": {
        "policy": ("smarton", str),
        "e_on": ("30", _finite),
        "e_off": ("0", _finite),
        "discharge_frequency": ("1.0", _finite),
    },
    "sweep": {
        "charging_ratio": ("", str),
        "entry_level": ("", str),
        "event_type": ("", str),
        "state_duration": ("", str),
        "policy": ("", str),
        "seeds": ("", str),
    },
}


@dataclass
class Scenario:
    values: dict  # {(section, key): parsed value}
    study: str | None = None  # None | partition | learning-order
    schedule: tuple[PatternChange, ...] = ()

    def __getitem__(self, section_key):
        return self.values[section_key]

    @property
    def name(self) -> str:
        return self.values[("run", "name")]

    def with_value(self, section: str, key: str, value) -> "Scenario":
        values = dict(self.values)
        values[(section, key)] = value
        return dc_replace(self, values=values)


def default_scenario() -> Scenario:
    values = {}
    for section, keys in SCHEMA.items():
        for key, (default, parse) in keys.items():
            values[(section, key)] = parse(default)
    return Scenario(values=values)


def parse_config(path) -> Scenario:
    """Parse an INI scenario file; unknown sections/keys are hard errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ScenarioError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ScenarioError(f"parse error in {path}: {exc}")

    scenario = default_scenario()
    values = dict(scenario.values)
    for section in parser.sections():
        if section not in SCHEMA:
            raise ScenarioError(
                f"unknown section [{section}]; valid: {sorted(SCHEMA)}"
            )
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ScenarioError(
                    f"unknown key {key!r} in [{section}]; "
                    f"valid: {sorted(SCHEMA[section])}"
                )
            _, parse = SCHEMA[section][key]
            try:
                values[(section, key)] = parse(raw)
            except ValueError as exc:
                raise ScenarioError(f"[{section}] {key}: {exc}")
    scenario = Scenario(values=values)
    validate(scenario)
    return scenario


def write_config(scenario: Scenario) -> str:
    """Serialize a scenario to INI text; parse_config inverts this."""
    out = io.StringIO()
    for section, keys in SCHEMA.items():
        out.write(f"[{section}]\n")
        for key in keys:
            value = scenario.values[(section, key)]
            if value is None:
                text = ""
            elif isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, tuple):
                text = ",".join(repr(v) if isinstance(v, str) else _num(v) for v in value)
            else:
                text = _num(value) if isinstance(value, float) else str(value)
            out.write(f"{key} = {text}\n")
        out.write("\n")
    return out.getvalue()


def _num(x: float) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def validate(scenario: Scenario) -> None:
    """Raise ScenarioError unless the base values build a SimConfig."""
    # the name is written raw into CSV rows, which readers split on commas
    if any(c in scenario.name for c in ',"\r\n'):
        raise ScenarioError("[run] name must not contain commas, quotes or line breaks")
    build_sim_config(scenario)


def _parse_peaks(text: str) -> list[tuple[str, int]]:
    peaks = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, slot = item.partition("@")
        try:
            peaks.append((name, int(slot)))
        except ValueError:
            raise ScenarioError(f"[pattern] peaks: {item!r} needs name@<integer slot>") from None
    if not peaks:
        raise ScenarioError("[pattern] at least one peak is required")
    return peaks


def _parse_axis(values: dict, key: str, parse=int) -> list:
    """The [sweep] axis `key`: a comma list, or an `a:b` half-open integer
    range."""
    text = values[("sweep", key)].strip()
    if not text:
        return []
    try:
        if ":" in text and parse is int:
            a, _, b = text.partition(":")
            return list(range(int(a), int(b)))
        return [parse(x.strip()) for x in text.split(",")]
    except ValueError as exc:
        raise ScenarioError(f"[sweep] bad axis {key} = {text!r}: {exc}") from None


def _learner_duration(v: dict) -> int:
    """The learner's slot length: its own key when set, else the pattern's."""
    d = v[("learner", "state_duration")]
    return v[("pattern", "state_duration")] if d is None else d


def build_sim_config(scenario: Scenario) -> SimConfig:
    """SimConfig for the scenario's base values (no sweep expansion)."""
    v = scenario.values
    try:
        pattern = build_pattern(
            _parse_peaks(v[("pattern", "peaks")]),
            period_ticks=v[("pattern", "period_ticks")],
            state_duration=v[("pattern", "state_duration")],
            p_high=v[("pattern", "p_high")],
            p_low=v[("pattern", "p_low")],
            background_rate=v[("pattern", "background_rate")],
            peak_max_duration=v[("pattern", "peak_max_duration")],
        )
        learner = LearnerConfig(
            alpha=v[("learner", "alpha")],
            gamma=v[("learner", "gamma")],
            reward_catch=v[("learner", "reward_catch")],
            reward_miss=v[("learner", "reward_miss")],
            k_levels=v[("learner", "energy_levels")],
            state_duration=_learner_duration(v),
            frequencies=v[("learner", "frequencies")],
            convergence_epsilon=v[("learner", "convergence_epsilon")],
            convergence_window=v[("learner", "convergence_window")],
            convergence_scope=v[("learner", "convergence_scope")],
            profile_window=v[("learner", "profile_window")],
            profile_tol_abs=v[("learner", "profile_tol_abs")],
            profile_tol_rel=v[("learner", "profile_tol_rel")],
            shape_theta=v[("learner", "shape_theta")],
            probe_budget=v[("learner", "probe_budget")],
            probe_trigger=v[("learner", "probe_trigger")],
            peak_max_duration=v[("pattern", "peak_max_duration")],
        )
        source = v[("energy", "source")]
        source_kind, _, source_path = source.partition(":")
        ctid = CtidConfig(
            e_on=v[("policy", "e_on")],
            e_off=v[("policy", "e_off")],
            discharge_frequency=v[("policy", "discharge_frequency")],
        )
        return SimConfig(
            pattern=pattern,
            learner=learner,
            policy=v[("policy", "policy")],
            ctid=ctid,
            capacity=v[("energy", "capacity")],
            charging_ratio=v[("energy", "charging_ratio")],
            source_kind=source_kind,
            source_level=v[("energy", "source_level")],
            source_path=source_path or None,
            gate_source_in_peaks=v[("energy", "gate_in_peaks")],
            n_periods=v[("run", "n_periods")],
            seed=v[("run", "seed")],
            record_level=v[("run", "record_level")],
            entry_level=v[("run", "entry_level")],
            measure_from=v[("run", "measure_from")],
            repeat_first_period=v[("run", "repeat_events")],
            schedule=scenario.schedule,
            stop_rule=v[("run", "stop_rule")],
            ctid_phase_jitter=v[("run", "ctid_phase_jitter")],
        )
    except ValueError as exc:
        # each config type checks its own fields; InvalidSpec is a ValueError
        raise ScenarioError(str(exc))


@dataclass(frozen=True)
class RunKey:
    policy: str
    event_type: str
    entry_level: int | None
    state_duration: int
    charging_ratio: float
    seed: int


def expand_sweep(scenario: Scenario) -> list[tuple[RunKey, SimConfig]]:
    """Cross product of the sweep axes; empty axes pin the base value."""
    v = scenario.values
    ratios = _parse_axis(v, "charging_ratio", _finite) or [v[("energy", "charging_ratio")]]
    levels = _parse_axis(v, "entry_level") or [v[("run", "entry_level")]]
    base_peaks = _parse_peaks(v[("pattern", "peaks")])
    types = _parse_axis(v, "event_type", str) or [base_peaks[0][0]]
    durations = _parse_axis(v, "state_duration") or [_learner_duration(v)]
    policies = _parse_axis(v, "policy", str) or [v[("policy", "policy")]]
    seeds = _parse_axis(v, "seeds") or [v[("run", "seed")]]

    runs = []
    for policy in policies:
        for event_type in types:
            for level in levels:
                for duration in durations:
                    for ratio in ratios:
                        for seed in seeds:
                            sc = scenario
                            sc = sc.with_value("policy", "policy", policy)
                            peaks = ",".join(
                                f"{event_type}@{slot}" for _, slot in base_peaks
                            )
                            sc = sc.with_value("pattern", "peaks", peaks)
                            sc = sc.with_value("run", "entry_level", level)
                            sc = sc.with_value("learner", "state_duration", duration)
                            sc = sc.with_value("energy", "charging_ratio", ratio)
                            sc = sc.with_value("run", "seed", seed)
                            key = RunKey(
                                policy=policy,
                                event_type=event_type,
                                entry_level=level,
                                state_duration=duration,
                                charging_ratio=ratio,
                                seed=seed,
                            )
                            runs.append((key, build_sim_config(sc)))
    return runs


# ---------------------------------------------------------------------------
# Presets reproducing the headline experiments
# ---------------------------------------------------------------------------

def _preset_fig_perf() -> Scenario:
    # charging ratio 8.5 keeps the source at its nominal intensity ("around
    # 9") while making the CTID cycle (8.5*30+30 = 285 ticks) drift across
    # the 1200-tick period instead of resonating with it, so the oblivious
    # baseline samples every alignment like real hardware does
    s = default_scenario()
    s = s.with_value("run", "name", "fig-perf")
    s = s.with_value("run", "n_periods", 150)
    s = s.with_value("run", "measure_from", 110)
    s = s.with_value("energy", "charging_ratio", 8.5)
    s = s.with_value("run", "repeat_events", True)
    s = s.with_value("run", "ctid_phase_jitter", True)
    s = s.with_value("sweep", "event_type", "type1,type2,type3,type4")
    s = s.with_value("sweep", "entry_level", "1,2,3,4")
    s = s.with_value("sweep", "policy", "smarton,ctid,ctidpro,gt")
    s = s.with_value("sweep", "seeds", "0:10")
    return s


def _preset_conv_vs_ratio() -> Scenario:
    s = default_scenario()
    s = s.with_value("run", "name", "conv-vs-ratio")
    s = s.with_value("run", "n_periods", 200)
    s = s.with_value("run", "repeat_events", True)
    s = s.with_value("run", "stop_rule", "phase_ge:2")
    s = s.with_value("sweep", "charging_ratio", "3,6,9,12")
    s = s.with_value("sweep", "seeds", "0:10")
    return s


def _preset_conv_per_entry() -> Scenario:
    s = default_scenario()
    s = s.with_value("run", "name", "conv-per-entry")
    s = s.with_value("run", "repeat_events", True)
    s = s.with_value("learner", "energy_levels", 10)
    s = s.with_value("sweep", "seeds", "0:10")
    return dc_replace(s, study="partition")


def _preset_learning_order() -> Scenario:
    s = default_scenario()
    s = s.with_value("run", "name", "learning-order")
    s = s.with_value("run", "repeat_events", True)
    s = s.with_value("learner", "energy_levels", 10)
    s = s.with_value("sweep", "seeds", "0:20")
    return dc_replace(s, study="learning-order")


def _preset_state_duration() -> Scenario:
    s = default_scenario()
    s = s.with_value("run", "name", "state-duration")
    s = s.with_value("run", "n_periods", 110)
    s = s.with_value("run", "repeat_events", True)
    s = s.with_value("sweep", "state_duration", "20,30,60")
    s = s.with_value("sweep", "entry_level", "1,2,3,4")
    s = s.with_value("sweep", "seeds", "0:20")
    return s


def _preset_adaptation() -> Scenario:
    s = default_scenario()
    s = s.with_value("run", "name", "adaptation")
    s = s.with_value("run", "n_periods", 210)
    s = s.with_value("run", "repeat_events", True)
    s = s.with_value("run", "entry_level", 4)
    seg = 70
    type3 = build_pattern([("type3", 25)])
    type1 = build_pattern([("type1", 10)])
    schedule = (
        PatternChange(seg, "replace", type3, entry_level=3),
        PatternChange(2 * seg, "replace", type1, entry_level=4),
    )
    return dc_replace(s, schedule=schedule)


PRESETS = {
    "fig-perf": _preset_fig_perf,
    "conv-vs-ratio": _preset_conv_vs_ratio,
    "conv-per-entry": _preset_conv_per_entry,
    "learning-order": _preset_learning_order,
    "state-duration": _preset_state_duration,
    "adaptation": _preset_adaptation,
}


def load_scenario(name_or_path) -> Scenario:
    """A preset by name, or an INI file by path."""
    name = str(name_or_path)
    if name in PRESETS:
        return PRESETS[name]()
    return parse_config(name_or_path)
