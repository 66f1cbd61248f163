"""Scenario parsing, validation, presets and sweep expansion."""

import pytest

from smarton_sim.scenario import (
    PRESETS,
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
