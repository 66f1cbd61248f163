"""CLI subcommands, exit codes, and the seed environment override."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import smarton_sim
from smarton_sim import reports
from smarton_sim.cli import main
from smarton_sim.scenario import SCHEMA

from test_engine import time_limit


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("SMARTON_SIM_SEED", raising=False)


def write_config(tmp_path, text=""):
    path = tmp_path / "scenario.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_basic_run(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "[run]\nname = demo\nn_periods = 5\nrepeat_events = true\n"
        )
        assert main(["simulate", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "total_catches=" in out

    def test_policy_and_seed_flags(self, tmp_path, capsys):
        config = write_config(tmp_path, "[run]\nn_periods = 3\n")
        assert main(["simulate", "--config", config, "--policy", "gt", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "policy=gt" in out and "seed=7" in out

    def test_out_dir_writes_csvs(self, tmp_path, capsys):
        config = write_config(tmp_path, "[run]\nn_periods = 3\n")
        out_dir = tmp_path / "results"
        assert main(["simulate", "--config", config, "--out", str(out_dir)]) == 0
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "timeline.csv").exists()

    def test_out_dir_writes_what_a_one_run_sweep_writes(self, tmp_path, capsys):
        # long enough for the entry level's partition to converge, which
        # adds a row to convergence.csv
        config = write_config(
            tmp_path, "[run]\nn_periods = 200\nentry_level = 4\nrepeat_events = true\n"
        )
        simulated, swept = tmp_path / "simulate", tmp_path / "sweep"
        assert main(["simulate", "--config", config, "--out", str(simulated)]) == 0
        assert main(["sweep", "--scenario", config, "--out", str(swept)]) == 0
        assert "4,1,43,," in (swept / "convergence.csv").read_text(encoding="utf-8")
        for name in ("metrics.csv", "convergence.csv", "timeline.csv", "manifest.json"):
            assert (simulated / name).read_bytes() == (swept / name).read_bytes(), name

    def test_validation_error_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "[learner]\nalpha = 1.5\n")
        assert main(["simulate", "--config", config]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[learner]\nenergy_levels = 1\n", "energy levels"),
            ("[learner]\nfrequencies = 0,0.5,1.5\n", "1 Hz"),
            ("[run]\nstop_rule = bogus:3\n", "stop rule"),
            ("[run]\nstop_rule = phase_ge:x\n", "stop rule"),
            ("[energy]\nsource = solar\n", "unknown source"),
            ("[energy]\nsource = trace\n", "needs a path"),
            ("[run]\nn_periods = -3\n", "n_periods"),
            ("[energy]\nstore = array\n", "unknown key"),
            ("[policy]\npolicy = ctid\ne_on = 0.5\n", "wake cost"),
            ("[run]\nn_periods = 3\nctid_phase_jitter = true\n[policy]\npolicy = ctid\n"
             "[energy]\nsource_level = 1e-8\n", "CTID cycle"),
            # cycles that overflow a float
            ("[run]\nn_periods = 3\nctid_phase_jitter = true\n[policy]\npolicy = ctid\n"
             "e_on = 1e300\n[energy]\ncharging_ratio = 1e300\ncapacity = 1e300\n",
             "CTID cycle"),
            ("[run]\nn_periods = 3\nctid_phase_jitter = true\n[policy]\npolicy = ctid\n"
             "e_on = 1e300\n[energy]\nsource_level = 1e-300\n", "CTID cycle"),
            ("[learner]\nfrequencies = 0\n", "frequencies"),
            ("[pattern]\nbackground_rate = 2\n", "background_rate"),
            ("[pattern]\npeaks = type1@999\n", "peak type1@999"),
            ("[pattern]\nperiod_ticks = 0\n", "period_ticks"),
            ("[energy]\ncapacity = nan\n", "capacity"),
            ("[energy]\ncapacity = inf\n", "capacity"),
            ("[energy]\ncharging_ratio = nan\n", "charging_ratio"),
            ("[energy]\nsource_level = -1\n", "source_level"),
            ("[policy]\npolicy = ctid\ndischarge_frequency = nan\n", "discharge_frequency"),
            ("[learner]\nfrequencies = 0,nan,1\n", "frequencies"),
            ("[run]\nn_periods = 3\nentry_level = 1\n[pattern]\npeaks = type1@1\n"
             "[learner]\nstate_duration = 60\n", "entry_level"),
            ("[pattern]\npeaks = type1@x\n", "peaks"),
            ("[learner]\nprobe_budget = -1\n", "probe_budget"),
            ("[learner]\nconvergence_window = 0\n", "convergence_window"),
            ("[learner]\nprofile_window = 0\n", "profile_window"),
            ("[run]\nn_periods = 3\nmeasure_from = -5\n", "measure_from"),
            ("[policy]\npolicy = ctid\ndischarge_frequency = 2\n", "discharge_frequency"),
            ("[policy]\npolicy = ctid\ne_off = -1\n", "e_off"),
        ],
    )
    def test_learner_config_errors_exit_2(self, tmp_path, capsys, text, field):
        # a case that sets [run] keys brings its own [run] section
        prefix = "" if text.startswith("[run]") else "[run]\nn_periods = 3\n"
        config = write_config(tmp_path, prefix + text)
        assert main(["simulate", "--config", config]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["smarton", "ctid", "gt"])
    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read source trace"),
            ("1.0\nabc\n", "line 2"),
            ("1.0\n-2\n", "line 2"),
            ("0.5\nnan\n", "line 2"),
            ("inf\n", "line 1"),
            ("1.0\n\n1e309\n", "line 3"),
        ],
        ids=["missing", "not-a-number", "negative", "nan", "inf", "overflow"],
    )
    def test_bad_trace_source_exits_2_before_any_output(
        self, tmp_path, capsys, text, message, policy
    ):
        trace = tmp_path / "source.txt"
        if text is not None:
            trace.write_text(text, encoding="utf-8")
        config = write_config(
            tmp_path, f"[run]\nn_periods = 3\n[energy]\nsource = trace:{trace}\n"
                      f"[policy]\npolicy = {policy}\n"
        )
        out_dir = tmp_path / "results"
        assert main(["simulate", "--config", config, "--out", str(out_dir)]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_config_exits_2(self, capsys):
        assert main(["simulate", "--config", "/does/not/exist.ini"]) == 2

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, "[run]\nn_periods = 3\nseed = 1\n")
        monkeypatch.setenv("SMARTON_SIM_SEED", "42")
        assert main(["simulate", "--config", config]) == 0
        assert "seed=42" in capsys.readouterr().out

    def test_explicit_seed_beats_env(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, "[run]\nn_periods = 3\n")
        monkeypatch.setenv("SMARTON_SIM_SEED", "42")
        assert main(["simulate", "--config", config, "--seed", "5"]) == 0
        assert "seed=5" in capsys.readouterr().out

    def test_bad_env_seed_exits_2(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path)
        monkeypatch.setenv("SMARTON_SIM_SEED", "not-a-number")
        assert main(["simulate", "--config", config]) == 2


class TestSweepAndReport:
    def test_sweep_preset_then_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(
            tmp_path,
            "[run]\nname = mini\nn_periods = 30\nrepeat_events = true\n"
            "entry_level = 4\n"
            "[sweep]\nseeds = 0:2\n",
        )
        assert main(["sweep", "--scenario", config, "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert main(["report", "--in", str(out), "--plot", "perf-by-type"]) == 0
        assert (out / "perf-by-type.dat").exists()
        assert (out / "perf-by-type.svg").exists()

    def test_manifest_names_the_scenario_when_state_duration_is_swept(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(
            tmp_path, "[run]\nname = sd\nn_periods = 3\n[sweep]\nstate_duration = 20,30\n"
        )
        assert main(["sweep", "--scenario", config, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["scenario"] == "sd"
        # the metrics rows keep their per-duration labels
        rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"sd/d20", "sd/d30"}

    def test_unknown_plot_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, "[run]\nn_periods = 3\n")
        main(["sweep", "--scenario", config, "--out", str(out)])
        assert main(["report", "--in", str(out), "--plot", "bogus"]) == 2
        assert "valid ids" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--scenario", "no-such-preset", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "axis",
        ["seeds = 0:x", "seeds = 1,two", "charging_ratio = 8.5,abc", "entry_level = 1:",
         "charging_ratio = 8.5,nan"],
    )
    def test_unparsable_sweep_axis_exits_2(self, tmp_path, capsys, axis):
        config = write_config(tmp_path, f"[run]\nn_periods = 3\n[sweep]\n{axis}\n")
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[sweep] bad axis" in err and axis.split(" =")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis",
        ["charging_ratio = -1", "charging_ratio = 0", "state_duration = 0",
         "state_duration = -30"],
    )
    def test_out_of_range_sweep_axis_exits_2(self, tmp_path, capsys, axis):
        # sweep values are checked like base values, before any run starts
        config = write_config(tmp_path, f"[run]\nn_periods = 3\n[sweep]\n{axis}\n")
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", config, "--out", str(out)]) == 2
        assert axis.split(" =")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_with_jobs(self, tmp_path, capsys):
        out = tmp_path / "jobs"
        config = write_config(
            tmp_path,
            "[run]\nn_periods = 10\nrepeat_events = true\n[sweep]\nseeds = 0:2\n",
        )
        assert main(["sweep", "--scenario", config, "--out", str(out), "--jobs", "2"]) == 0
        assert (out / "metrics.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        config = write_config(tmp_path, "[run]\nn_periods = 3\n")
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", config, "--out", str(out), "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_pool_has_at_most_one_worker_per_run(self, tmp_path, capsys, monkeypatch):
        sizes = []

        class RecordingPool:
            """Records the requested size and maps in this process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return [func(item) for item in items]

        monkeypatch.setattr(reports, "Pool", RecordingPool)
        for seeds, runs in (("0:2", 2), ("0:1", 1)):
            config = write_config(tmp_path, f"[run]\nn_periods = 3\n[sweep]\nseeds = {seeds}\n")
            out = tmp_path / f"out{runs}"
            assert main(["sweep", "--scenario", config, "--out", str(out), "--jobs", "8"]) == 0
            assert f"{runs} runs" in capsys.readouterr().out
        # two runs get two workers; a single run needs no pool at all
        assert sizes == [2]


def test_process_exit_status(tmp_path):
    src = str(Path(smarton_sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for text, status in (("", 0), ("[learner]\nalpha = 1.5\n", 2)):
        config = write_config(tmp_path, text)
        proc = subprocess.run(
            [sys.executable, "-m", "smarton_sim.cli", "simulate", "--config", config],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == status, proc.stderr


# Boundary values for every SCHEMA key: negative, zero, at and past each
# bound, huge, non-finite and malformed.  Sizes stay small: at most 3
# periods, and no value builds a large table, trace or sweep.  The trace
# source names a file that does not exist.
BOUNDARY = {
    ("run", "name"): ["fuzz", "a,b", ""],
    ("run", "n_periods"): ["-1", "0", "1", "3", "3.0", "x"],
    ("run", "seed"): ["-1", "0", str(2**64), "x"],
    # valid levels are set by the test itself
    ("run", "record_level"): ["all", "", "Summary"],
    ("run", "measure_from"): ["-5", "0", "2", "3", "110", "x"],
    ("run", "entry_level"): ["-1", "0", "1", "4", "5", "x"],
    ("run", "repeat_events"): ["true", "false", "maybe"],
    ("run", "stop_rule"): ["phase_ge", "phase_ge:0", "phase3_stable:1", "bogus:3", "phase_ge:x"],
    ("run", "ctid_phase_jitter"): ["true", "false", "2"],
    ("pattern", "period_ticks"): ["-1200", "0", "1", "30", "1199", "1200", "2400", "12000", "x"],
    ("pattern", "state_duration"): ["-30", "0", "1", "7", "30", "60", "1200", "1201", "x"],
    ("pattern", "peaks"): ["type1@0", "type1@37", "type1@38", "type1@39", "type1@-3",
                           "type1@x", "type9@1", "type1", "", "type1@5,type2@5",
                           "type2@5,type4@20"],
    ("pattern", "p_high"): ["-0.1", "0", "0.2", "0.8", "1", "1.1", "nan", "inf", "x"],
    ("pattern", "p_low"): ["-0.1", "0", "0.2", "0.8", "1", "nan", "-inf", "x"],
    ("pattern", "background_rate"): ["-1", "0", "0.5", "1", "2", "nan", "x"],
    ("pattern", "peak_max_duration"): ["-1", "0", "29", "30", "90", "120", "100000", "x"],
    ("energy", "capacity"): ["-1", "0", "1e-300", "0.5", "1", "120", "1e300", "nan", "inf", "x"],
    ("energy", "charging_ratio"): ["-1", "0", "1e-300", "1", "8.5", "1e300", "nan", "-inf", "x"],
    ("energy", "source"): ["constant", "diurnal", "trace", "trace:no-such-source.txt",
                           "solar", ""],
    ("energy", "source_level"): ["-1", "0", "1e-300", "1", "1e300", "nan", "inf", "x"],
    ("energy", "gate_in_peaks"): ["true", "false", "x"],
    ("learner", "alpha"): ["-0.5", "0", "1e-300", "1", "1.5", "nan", "x"],
    ("learner", "gamma"): ["-0.5", "0", "0.999", "1", "nan", "x"],
    ("learner", "reward_catch"): ["-10", "0", "1e300", "nan", "x"],
    ("learner", "reward_miss"): ["-1e300", "0", "1", "inf", "x"],
    ("learner", "energy_levels"): ["-1", "0", "1", "2", "10", "10000", "x"],
    ("learner", "state_duration"): ["-30", "0", "1", "7", "20", "60", "1200", "2400", "x"],
    ("learner", "frequencies"): ["0", "0,1", "0,1e-300,1", "0,0.5,1.5", "0.2,1", "0,1,0.5",
                                 "0,0.5,0.5", "0,nan,1", "0,inf", "x", ""],
    ("learner", "convergence_epsilon"): ["-1", "0", "1e300", "nan", "x"],
    ("learner", "convergence_window"): ["-1", "0", "1", "1000000", "x"],
    ("learner", "convergence_scope"): ["entry_row", "touched", "x"],
    ("learner", "profile_window"): ["-1", "0", "1", "1000000", "x"],
    ("learner", "profile_tol_abs"): ["-1", "0", "1e300", "nan", "x"],
    ("learner", "profile_tol_rel"): ["-1", "0", "1e300", "inf", "x"],
    ("learner", "shape_theta"): ["-1", "0", "1", "2", "nan", "x"],
    ("learner", "probe_budget"): ["-1", "0", "1", "1000000", "x"],
    ("learner", "probe_trigger"): ["-1", "0", "1", "1000000", "x"],
    ("policy", "policy"): ["smarton", "ctid", "ctidpro", "gt", "nope"],
    ("policy", "e_on"): ["-1", "0", "0.5", "1", "120", "1e300", "nan", "inf", "x"],
    ("policy", "e_off"): ["-1", "0", "29", "30", "1e300", "nan", "x"],
    ("policy", "discharge_frequency"): ["-1", "0", "1e-300", "0.5", "1", "2", "nan", "x"],
    ("sweep", "charging_ratio"): ["-1", "0", "3,6", "1e300", "8.5,nan", "x"],
    ("sweep", "entry_level"): ["0", "1,4", "5", "1:3", "1:", "x"],
    ("sweep", "event_type"): ["type1,type4", "type9", "type1,"],
    ("sweep", "state_duration"): ["-30", "0", "20,30,60", "7", "1200", "x"],
    ("sweep", "policy"): ["gt,ctid", "smarton,ctidpro", "nope"],
    ("sweep", "seeds"): ["0:2", "-1", "3:1", str(2**64), "x"],
}

SCHEMA_DRAWS = st.lists(
    st.sampled_from(sorted(BOUNDARY)), min_size=1, max_size=3, unique=True
).flatmap(lambda keys: st.fixed_dictionaries({k: st.sampled_from(BOUNDARY[k]) for k in keys}))


def _ini(values: dict) -> str:
    sections = {}
    for (section, key), raw in values.items():
        sections.setdefault(section, []).append(f"{key} = {raw}\n")
    return "".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items())


def _run_cli(args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


def test_schema_values_cover_every_key():
    assert set(BOUNDARY) == {(s, k) for s, keys in SCHEMA.items() for k in keys}


@given(drawn=SCHEMA_DRAWS)
@settings(
    max_examples=1000, deadline=None, derandomize=True,
    # the module's env fixture only deletes a variable, so it holds across examples
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_every_scenario_exits_0_or_2_and_records_alike(drawn):
    """Any mix of boundary values exits 0 or 2 within a time limit, and an
    accepted scenario writes the same files in summary and per-tick mode."""
    sweep = any(section == "sweep" for section, _ in drawn)
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for level in ("summary", "per-tick"):
            text = _ini({("run", "n_periods"): "3", ("run", "record_level"): level, **drawn})
            config = os.path.join(tmp, f"{level}.ini")
            out = os.path.join(tmp, level)
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(text)
            args = (["sweep", "--scenario", config] if sweep
                    else ["simulate", "--config", config]) + ["--out", out]
            with time_limit(20.0, f"{args[0]} on {text!r}"):
                code, err = _run_cli(args)
            assert code in (0, 2), f"exit {code} on {text!r}: {err}"
            files = {}
            if code == 0:
                for name in sorted(os.listdir(out)):
                    files[name] = Path(out, name).read_bytes()
            outputs[level] = (code, files)
    assert outputs["summary"] == outputs["per-tick"], text
