"""CLI subcommands, exit codes, and the seed environment override."""

import pytest

from smarton_sim import reports
from smarton_sim.cli import main


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
            ("[pattern]\nbackground_rate = 2\n", "background_rate"),
            ("[pattern]\npeaks = type1@999\n", "peak type1@999"),
            ("[pattern]\nperiod_ticks = 0\n", "period_ticks"),
            ("[energy]\ncapacity = nan\n", "capacity"),
            ("[energy]\ncapacity = inf\n", "capacity"),
            ("[energy]\ncharging_ratio = nan\n", "charging_ratio"),
            ("[energy]\nsource_level = -1\n", "source_level"),
            ("[policy]\npolicy = ctid\ndischarge_frequency = nan\n", "discharge_frequency"),
            ("[learner]\nfrequencies = 0,nan,1\n", "frequencies"),
        ],
    )
    def test_learner_config_errors_exit_2(self, tmp_path, capsys, text, field):
        # a case that sets [run] keys brings its own [run] section
        prefix = "" if text.startswith("[run]") else "[run]\nn_periods = 3\n"
        config = write_config(tmp_path, prefix + text)
        assert main(["simulate", "--config", config]) == 2
        assert field in capsys.readouterr().err

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
