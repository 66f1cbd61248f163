"""Scenario parsing, validation, presets and sweep expansion."""

import pytest

from smarton_sim.scenario import (
    PRESETS,
    SCHEMA,
    RunKey,
    Scenario,
    ScenarioError,
    build_sim_config,
    default_scenario,
    expand_sweep,
    load_scenario,
    parse_config,
    write_config,
)


def write(tmp_path, text: str):
    path = tmp_path / "scenario.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestParse:
    def test_empty_file_is_pure_defaults(self, tmp_path):
        scenario = parse_config(write(tmp_path, ""))
        assert scenario.values == default_scenario().values
        assert scenario[("learner", "alpha")] == 0.7
        assert scenario[("learner", "gamma")] == 0.618
        assert scenario[("learner", "frequencies")] == (0.0, 0.2, 0.5, 1.0)
        assert scenario[("learner", "reward_catch")] == 10.0
        assert scenario[("learner", "reward_miss")] == -1.0
        assert scenario[("pattern", "state_duration")] == 30
        assert scenario[("pattern", "period_ticks")] == 1200
        assert scenario[("learner", "energy_levels")] == 4

    def test_alpha_out_of_range_is_validation_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="alpha"):
            parse_config(write(tmp_path, "[learner]\nalpha = 1.5\n"))

    def test_unknown_key_is_hard_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_config(write(tmp_path, "[learner]\nalpa = 0.7\n"))

    def test_unknown_section_is_hard_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_config(write(tmp_path, "[wat]\nx = 1\n"))

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            parse_config("/nonexistent/path.ini")

    def test_malformed_ini_reports_parse_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="parse error"):
            parse_config(write(tmp_path, "alpha = 0.7\n"))  # key before section

    def test_bad_probabilities(self, tmp_path):
        with pytest.raises(ScenarioError, match="p_low"):
            parse_config(write(tmp_path, "[pattern]\np_high = 0.1\np_low = 0.5\n"))

    def test_bad_policy_name(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown policy"):
            parse_config(write(tmp_path, "[policy]\npolicy = nope\n"))

    def test_entry_level_bounds(self, tmp_path):
        with pytest.raises(ScenarioError, match="entry_level"):
            parse_config(write(tmp_path, "[run]\nentry_level = 9\n"))

    def test_peak_syntax(self, tmp_path):
        scenario = parse_config(write(tmp_path, "[pattern]\npeaks = type2@5, type4@20\n"))
        config = build_sim_config(scenario)
        assert [p.shape_name for p in config.pattern.peaks] == ["type2", "type4"]

    @pytest.mark.parametrize("name", ["a,b", 'say "hi"', "two\n lines"])
    def test_name_that_would_break_csv_rows(self, tmp_path, name):
        with pytest.raises(ScenarioError, match="name"):
            parse_config(write(tmp_path, f"[run]\nname = {name}\n"))

    def test_bad_peak_shape(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown peak shape"):
            parse_config(write(tmp_path, "[pattern]\npeaks = type9@5\n"))


class TestRoundTrip:
    def test_default_round_trip(self, tmp_path):
        scenario = default_scenario()
        path = write(tmp_path, write_config(scenario))
        assert parse_config(path).values == scenario.values

    def test_modified_round_trip(self, tmp_path):
        scenario = default_scenario()
        scenario = scenario.with_value("learner", "alpha", 0.5)
        scenario = scenario.with_value("run", "entry_level", 3)
        scenario = scenario.with_value("run", "repeat_events", True)
        scenario = scenario.with_value("sweep", "seeds", "0:5")
        path = write(tmp_path, write_config(scenario))
        assert parse_config(path).values == scenario.values

    @pytest.mark.parametrize("name", ["conv-per-entry", "learning-order", "adaptation"])
    def test_study_and_schedule_presets_are_refused(self, name):
        # a study or schedule has no INI key; writing the rest would run as
        # a plain experiment
        what = "schedule" if name == "adaptation" else "study"
        with pytest.raises(ScenarioError, match=what):
            write_config(PRESETS[name]())

    @pytest.mark.parametrize("name", ["fig-perf", "conv-vs-ratio", "state-duration"])
    def test_preset_round_trip(self, tmp_path, name):
        scenario = PRESETS[name]()
        assert parse_config(write(tmp_path, write_config(scenario))) == scenario


class TestSweep:
    def test_fig_perf_cardinality(self):
        scenario = PRESETS["fig-perf"]()
        runs = expand_sweep(scenario)
        # 4 types x 4 levels x 4 policies x 10 seeds
        assert len(runs) == 4 * 4 * 4 * 10
        policies = {key.policy for key, _ in runs}
        assert policies == {"smarton", "ctid", "ctidpro", "gt"}

    def test_empty_axes_pin_base_values(self):
        scenario = default_scenario()
        runs = expand_sweep(scenario)
        assert len(runs) == 1
        key, config = runs[0]
        assert key.policy == "smarton"
        assert config.seed == 0

    def test_seed_range_syntax(self):
        scenario = default_scenario().with_value("sweep", "seeds", "3:6")
        runs = expand_sweep(scenario)
        assert [key.seed for key, _ in runs] == [3, 4, 5]

    def test_state_duration_axis_changes_learner_only(self):
        scenario = default_scenario().with_value("sweep", "state_duration", "20,30")
        runs = expand_sweep(scenario)
        assert len(runs) == 2
        for key, config in runs:
            assert config.learner.state_duration == key.state_duration
            assert config.pattern.state_duration == 30  # the world is fixed

    def test_peaks_kept_without_event_type_axis(self):
        scenario = default_scenario().with_value("pattern", "peaks", "type1@10,type3@25")
        [(key, config)] = expand_sweep(scenario)
        assert [p.shape_name for p in config.pattern.peaks] == ["type1", "type3"]
        assert key.event_type == "type1"

    def test_event_type_axis_gives_every_peak_its_shape(self):
        scenario = default_scenario().with_value("pattern", "peaks", "type1@10,type3@25")
        scenario = scenario.with_value("sweep", "event_type", "type2")
        [(key, config)] = expand_sweep(scenario)
        assert [(p.shape_name, p.start_slot) for p in config.pattern.peaks] == [
            ("type2", 10), ("type2", 25)
        ]
        assert key.event_type == "type2"

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_keys_are_read_off_their_configs(self, name):
        scenario = PRESETS[name]()
        runs = expand_sweep(scenario)
        for key, config in runs:
            assert key == RunKey.of(config)
        if scenario.study is not None:
            seeds = range(20 if name == "learning-order" else 10)
            assert [key for key, _ in runs] == [
                RunKey("smarton", "type1", None, 30, 9.0, seed) for seed in seeds
            ]


# a valid value other than the default for every key with a target
NON_DEFAULT = {
    ("run", "n_periods"): "7",
    ("run", "seed"): "3",
    ("run", "record_level"): "per-tick",
    ("run", "measure_from"): "2",
    ("run", "entry_level"): "2",
    ("run", "repeat_events"): "true",
    ("run", "stop_rule"): "phase_ge:3",
    ("run", "ctid_phase_jitter"): "true",
    ("pattern", "period_ticks"): "2400",
    ("pattern", "state_duration"): "20",
    ("pattern", "p_high"): "0.9",
    ("pattern", "p_low"): "0.1",
    ("pattern", "background_rate"): "0.05",
    ("pattern", "peak_max_duration"): "150",
    ("energy", "capacity"): "100",
    ("energy", "charging_ratio"): "6",
    ("energy", "source_level"): "2",
    ("energy", "gate_in_peaks"): "true",
    ("learner", "alpha"): "0.5",
    ("learner", "gamma"): "0.5",
    ("learner", "reward_catch"): "5",
    ("learner", "reward_miss"): "-2",
    ("learner", "energy_levels"): "6",
    ("learner", "frequencies"): "0,0.25,1",
    ("learner", "convergence_epsilon"): "1.5",
    ("learner", "convergence_window"): "4",
    ("learner", "convergence_scope"): "touched",
    ("learner", "profile_window"): "3",
    ("learner", "profile_tol_abs"): "1",
    ("learner", "profile_tol_rel"): "0.5",
    ("learner", "shape_theta"): "0.4",
    ("learner", "probe_budget"): "3",
    ("learner", "probe_trigger"): "2",
    ("policy", "policy"): "ctid",
    ("policy", "e_on"): "40",
    ("policy", "e_off"): "5",
    ("policy", "discharge_frequency"): "0.5",
}

TARGETED = {(s, k) for s, keys in SCHEMA.items() for k, entry in keys.items() if entry[2]}


class TestTargets:
    def test_keys_without_a_target_are_the_special_ones(self):
        # a new key without a target would be parsed and then dropped
        untargeted = {(s, k) for s in SCHEMA for k in SCHEMA[s]} - TARGETED
        assert untargeted == {
            ("run", "name"), ("pattern", "peaks"), ("energy", "source"),
            ("learner", "state_duration"), *(("sweep", k) for k in SCHEMA["sweep"]),
        }

    def test_every_target_has_a_test_value(self):
        assert set(NON_DEFAULT) == TARGETED

    @pytest.mark.parametrize("section, key", sorted(NON_DEFAULT))
    def test_value_reaches_its_target_field(self, section, key):
        default, parse, target = SCHEMA[section][key]
        value = parse(NON_DEFAULT[(section, key)])
        assert value != parse(default)
        config = build_sim_config(default_scenario().with_value(section, key, value))
        kind, field = target.split(".")
        owner = {"sim": config, "pattern": config.pattern, "learner": config.learner,
                 "ctid": config.ctid}[kind]
        assert getattr(owner, field) == value
        if (section, key) == ("pattern", "peak_max_duration"):
            assert config.learner.peak_max_duration == value

    def test_special_keys(self, tmp_path):
        trace = write(tmp_path, "1.0\n")
        scenario = default_scenario().with_value("pattern", "peaks", "type3@4,type2@20")
        scenario = scenario.with_value("pattern", "state_duration", 20)
        scenario = scenario.with_value("energy", "source", f"trace:{trace}")
        config = build_sim_config(scenario)
        assert [(p.shape_name, p.start_slot) for p in config.pattern.peaks] == [
            ("type3", 4), ("type2", 20)
        ]
        assert (config.source_kind, config.source_path) == ("trace", str(trace))
        assert config.learner.state_duration == 20  # the pattern's slot
        config = build_sim_config(scenario.with_value("learner", "state_duration", 60))
        assert (config.pattern.state_duration, config.learner.state_duration) == (20, 60)


class TestPresets:
    def test_all_presets_build(self):
        for name, build in PRESETS.items():
            scenario = build()
            assert scenario.name == name
            assert expand_sweep(scenario)

    def test_load_scenario_by_name_and_path(self, tmp_path):
        assert load_scenario("fig-perf").name == "fig-perf"
        path = write(tmp_path, "[run]\nname = custom\n")
        assert load_scenario(path).name == "custom"

    def test_adaptation_schedule(self):
        scenario = PRESETS["adaptation"]()
        config = build_sim_config(scenario)
        assert len(config.schedule) == 2
        assert config.schedule[0].period == 70
        assert config.schedule[1].period == 140
