"""Scenario configs: INI parsing, presets and sweep expansion.

A scenario is a flat parameter set over six sections ([run], [pattern],
[energy], [learner], [policy], [sweep]) with every default pre-filled, so an
empty file is a valid scenario.  Unknown sections or keys are hard errors.
Sweep axes expand into a cross product of runs; `expand_sweep` is the only
expansion, for plain sweeps and the partition-study presets alike.  Each
run's key (policy, event_type, entry_level, state_duration, charging_ratio,
seed) is read off its built config by `RunKey.of`.

`SCHEMA` lists each key once, with its default, its parser and its target:
the config field that takes the parsed value as is, such as
"learner.k_levels" for [learner] energy_levels ("sim" is `SimConfig` itself,
"pattern" the `build_pattern` arguments, "ctid" `CtidConfig`).  A key with
no target is read by `build_sim_config` itself (the peaks, the source, the
learner's slot, which falls back to the pattern's) or is a sweep axis or the
run's name.

This layer only parses (syntax, finite numbers).  Each range rule lives in
the type that owns the field (`build_pattern`, `LearnerConfig`, `CtidConfig`,
`SimConfig`); `build_sim_config` turns their errors into ScenarioError, for
base values at parse time and for every sweep run before any run starts.
"""

from __future__ import annotations

import configparser
import io
import itertools
import math
from dataclasses import dataclass, replace as dc_replace

from .engine import PatternChange, SimConfig
from .events import build_pattern
from .learner import LearnerConfig
from .policies import CtidConfig


class ScenarioError(Exception):
    """Config parsing or validation failed; message gives the field."""


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


# section -> key -> (default string, parser, target field or None)
SCHEMA = {
    "run": {
        "name": ("scenario", str, None),
        "n_periods": ("60", int, "sim.n_periods"),
        "seed": ("0", int, "sim.seed"),
        "record_level": ("summary", str, "sim.record_level"),
        "measure_from": ("0", int, "sim.measure_from"),
        "entry_level": ("", _opt_int, "sim.entry_level"),
        "repeat_events": ("false", _bool, "sim.repeat_first_period"),
        "stop_rule": ("", _opt_str, "sim.stop_rule"),
        "ctid_phase_jitter": ("false", _bool, "sim.ctid_phase_jitter"),
    },
    "pattern": {
        "period_ticks": ("1200", int, "pattern.period_ticks"),
        "state_duration": ("30", int, "pattern.state_duration"),
        "peaks": ("type1@10", str, None),
        "p_high": ("0.8", _finite, "pattern.p_high"),
        "p_low": ("0.2", _finite, "pattern.p_low"),
        "background_rate": ("0.0", _finite, "pattern.background_rate"),
        "peak_max_duration": ("120", int, "pattern.peak_max_duration"),
    },
    "energy": {
        "capacity": ("120", _finite, "sim.capacity"),
        "charging_ratio": ("9", _finite, "sim.charging_ratio"),
        "source": ("constant", str, None),
        "source_level": ("1.0", _finite, "sim.source_level"),
        "gate_in_peaks": ("false", _bool, "sim.gate_source_in_peaks"),
    },
    "learner": {
        "alpha": ("0.7", _finite, "learner.alpha"),
        "gamma": ("0.618", _finite, "learner.gamma"),
        "reward_catch": ("10", _finite, "learner.reward_catch"),
        "reward_miss": ("-1", _finite, "learner.reward_miss"),
        "energy_levels": ("4", int, "learner.k_levels"),
        "state_duration": ("", _opt_int, None),
        "frequencies": ("0,0.2,0.5,1", _floats, "learner.frequencies"),
        "convergence_epsilon": ("3.0", _finite, "learner.convergence_epsilon"),
        "convergence_window": ("5", int, "learner.convergence_window"),
        "convergence_scope": ("entry_row", str, "learner.convergence_scope"),
        "profile_window": ("2", int, "learner.profile_window"),
        "profile_tol_abs": ("2", _finite, "learner.profile_tol_abs"),
        "profile_tol_rel": ("0.25", _finite, "learner.profile_tol_rel"),
        "shape_theta": ("0.5", _finite, "learner.shape_theta"),
        "probe_budget": ("2", int, "learner.probe_budget"),
        "probe_trigger": ("1", int, "learner.probe_trigger"),
    },
    "policy": {
        "policy": ("smarton", str, "sim.policy"),
        "e_on": ("30", _finite, "ctid.e_on"),
        "e_off": ("0", _finite, "ctid.e_off"),
        "discharge_frequency": ("1.0", _finite, "ctid.discharge_frequency"),
    },
    "sweep": {
        "charging_ratio": ("", str, None),
        "entry_level": ("", str, None),
        "event_type": ("", str, None),
        "state_duration": ("", str, None),
        "policy": ("", str, None),
        "seeds": ("", str, None),
    },
}


# [sweep] axis -> (parser, the scenario value it sets), in expansion order
_AXES = {
    "policy": (str, ("policy", "policy")),
    "event_type": (str, ("pattern", "peaks")),
    "entry_level": (int, ("run", "entry_level")),
    "state_duration": (int, ("learner", "state_duration")),
    "charging_ratio": (_finite, ("energy", "charging_ratio")),
    "seeds": (int, ("run", "seed")),
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

    def axis(self, name: str) -> list:
        """The [sweep] axis `name`: a comma list, or an `a:b` half-open
        integer range holding at least one value; empty when the axis is
        not set."""
        text = self.values[("sweep", name)].strip()
        if not text:
            return []
        parse = _AXES[name][0]
        try:
            if ":" in text and parse is int:
                a, _, b = text.partition(":")
                values = list(range(int(a), int(b)))
                if not values:
                    raise ValueError("the range holds no value")
                return values
            return [parse(x.strip()) for x in text.split(",")]
        except ValueError as exc:
            raise ScenarioError(f"[sweep] bad axis {name} = {text!r}: {exc}") from None


def default_scenario() -> Scenario:
    values = {}
    for section, keys in SCHEMA.items():
        for key, (default, parse, _) in keys.items():
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
            parse = SCHEMA[section][key][1]
            try:
                values[(section, key)] = parse(raw)
            except ValueError as exc:
                raise ScenarioError(f"[{section}] {key}: {exc}")
    scenario = Scenario(values=values)
    validate(scenario)
    return scenario


def write_config(scenario: Scenario) -> str:
    """Serialize a scenario to INI text; parse_config inverts this.  A study
    or a pattern schedule has no INI key, so such a scenario is refused."""
    for what, value in (("study", scenario.study), ("schedule", scenario.schedule)):
        if value:
            raise ScenarioError(
                f"scenario {scenario.name!r} has a {what}, which an INI file cannot hold"
            )
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


# ((section, key), config type, field) for each key with a target
_TARGETS = [
    ((section, key), *target.split("."))
    for section, keys in SCHEMA.items()
    for key, (_, _, target) in keys.items()
    if target is not None
]


def build_sim_config(scenario: Scenario) -> SimConfig:
    """SimConfig for the scenario's base values (no sweep expansion)."""
    v = scenario.values
    kwargs = {"pattern": {}, "learner": {}, "ctid": {}, "sim": {}}
    for key, kind, field in _TARGETS:
        kwargs[kind][field] = v[key]
    slot = v[("learner", "state_duration")]  # the pattern's slot when unset
    try:
        pattern = build_pattern(_parse_peaks(v[("pattern", "peaks")]), **kwargs["pattern"])
        learner = LearnerConfig(
            state_duration=pattern.state_duration if slot is None else slot,
            peak_max_duration=pattern.peak_max_duration,
            **kwargs["learner"],
        )
        ctid = CtidConfig(**kwargs["ctid"])
        source_kind, _, source_path = v[("energy", "source")].partition(":")
        return SimConfig(
            pattern=pattern, learner=learner, ctid=ctid, source_kind=source_kind,
            source_path=source_path or None, schedule=scenario.schedule, **kwargs["sim"],
        )
    except ValueError as exc:
        # each config type checks its own fields; InvalidSpec is a ValueError
        raise ScenarioError(str(exc))


@dataclass(frozen=True)
class RunKey:
    """The sweep cell a run belongs to; it labels the run's CSV rows."""

    policy: str
    event_type: str
    entry_level: int | None
    state_duration: int
    charging_ratio: float
    seed: int

    @classmethod
    def of(cls, config: SimConfig) -> "RunKey":
        """The key of a run of `config`; event_type is the shape of the
        pattern's first peak."""
        return cls(
            policy=config.policy,
            event_type=config.pattern.peaks[0].shape_name,
            entry_level=config.entry_level,
            state_duration=config.learner.state_duration,
            charging_ratio=config.charging_ratio,
            seed=config.seed,
        )


def expand_sweep(scenario: Scenario) -> list[tuple[RunKey, SimConfig]]:
    """Cross product of the sweep axes; an axis left unset pins the base value.

    The scenario's peaks are kept unless the event_type axis is set, which
    gives every peak the axis's shape at its own slot.  Every config is built,
    and so checked, before any run starts."""
    choices = []
    for name, (_, target) in _AXES.items():
        values = scenario.axis(name)
        if name == "event_type" and values:
            slots = [slot for _, slot in _parse_peaks(scenario[target])]
            values = [",".join(f"{shape}@{slot}" for slot in slots) for shape in values]
        choices.append([(target, v) for v in values] or [(target, scenario[target])])
    runs = []
    for cell in itertools.product(*choices):
        config = build_sim_config(dc_replace(scenario, values={**scenario.values, **dict(cell)}))
        runs.append((RunKey.of(config), config))
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
