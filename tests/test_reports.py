"""CSV schemas, plot data and sweep determinism."""

import os
from pathlib import Path

import pytest

from smarton_sim.reports import (
    CONVERGENCE_HEADER,
    METRICS_HEADER,
    TIMELINE_HEADER,
    PLOT_IDS,
    UnknownPlot,
    emit_csv,
    emit_plot_data,
    run_sweep,
)
from smarton_sim.scenario import default_scenario


def small_sweep():
    s = default_scenario()
    s = s.with_value("run", "n_periods", 40)
    s = s.with_value("run", "repeat_events", True)
    s = s.with_value("run", "entry_level", 4)
    s = s.with_value("sweep", "policy", "smarton,gt")
    s = s.with_value("sweep", "seeds", "0:2")
    return s


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    records = run_sweep(small_sweep())
    emit_csv(records, out, measure_from=0)
    return out


class TestCsvSchemas:
    def test_headers_are_pinned(self, sweep_dir):
        # golden headers: changing them breaks downstream consumers
        assert METRICS_HEADER == (
            "scenario,policy,event_type,entry_level,seed,period,"
            "total_catches,energy_efficiency,awake_ticks,event_ticks"
        )
        assert CONVERGENCE_HEADER == (
            "entry_level,learn_order,episodes_to_converge,charging_ratio,passes"
        )
        assert TIMELINE_HEADER == "period,phase,catches,misses"
        for name, header in (
            ("metrics.csv", METRICS_HEADER),
            ("convergence.csv", CONVERGENCE_HEADER),
            ("timeline.csv", TIMELINE_HEADER),
        ):
            with open(os.path.join(sweep_dir, name), encoding="utf-8") as fh:
                assert fh.readline().strip() == header

    def test_metrics_row_count(self, sweep_dir):
        with open(os.path.join(sweep_dir, "metrics.csv"), encoding="utf-8") as fh:
            rows = fh.readlines()[1:]
        # 2 policies x 2 seeds x 40 periods
        assert len(rows) == 2 * 2 * 40

    def test_six_decimal_reals(self, sweep_dir):
        with open(os.path.join(sweep_dir, "metrics.csv"), encoding="utf-8") as fh:
            fh.readline()
            first = fh.readline().strip().split(",")
        eff = first[7]
        assert "." in eff and len(eff.split(".")[1]) == 6

    def test_timeline_only_smarton(self, sweep_dir):
        with open(os.path.join(sweep_dir, "timeline.csv"), encoding="utf-8") as fh:
            rows = fh.readlines()[1:]
        assert len(rows) == 2 * 40  # two smarton runs

    def test_empty_results_give_header_only_files(self, tmp_path):
        paths = emit_csv([], tmp_path, measure_from=0)
        for path in paths:
            if path.endswith(".csv"):
                with open(path, encoding="utf-8") as fh:
                    lines = fh.readlines()
                assert len(lines) == 1


class TestDeterminism:
    def test_sweep_is_byte_identical_across_runs(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for out in (a_dir, b_dir):
            emit_csv(run_sweep(small_sweep()), out, measure_from=0)
        for name in ("metrics.csv", "convergence.csv", "timeline.csv"):
            a = (a_dir / name).read_bytes()
            b = (b_dir / name).read_bytes()
            assert a == b, f"{name} differs between identical sweeps"


class TestPlotData:
    def test_unknown_plot_lists_valid_ids(self, sweep_dir, tmp_path):
        with pytest.raises(UnknownPlot) as err:
            emit_plot_data(sweep_dir, tmp_path, "nope")
        for plot_id in PLOT_IDS:
            assert plot_id in str(err.value)

    def test_perf_by_type(self, sweep_dir, tmp_path):
        dat, svg = emit_plot_data(sweep_dir, tmp_path, "perf-by-type")
        lines = Path(dat).read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("#")
        assert len(lines) > 1
        assert Path(svg).read_text(encoding="utf-8").startswith("<svg")

    def test_adaptation_timeline(self, sweep_dir, tmp_path):
        dat, svg = emit_plot_data(sweep_dir, tmp_path, "adaptation")
        lines = Path(dat).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2 * 40

    def test_conv_vs_ratio_from_study_sweep(self, tmp_path):
        s = default_scenario()
        s = s.with_value("run", "n_periods", 120)
        s = s.with_value("run", "repeat_events", True)
        s = s.with_value("run", "stop_rule", "phase_ge:2")
        s = s.with_value("sweep", "charging_ratio", "3,6")
        s = s.with_value("sweep", "seeds", "0:2")
        out = tmp_path / "conv"
        emit_csv(run_sweep(s), out, measure_from=0)
        dat, _ = emit_plot_data(out, out, "conv-vs-ratio")
        lines = Path(dat).read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3  # header + two ratios
        ratio3 = lines[1].split()
        assert float(ratio3[0]) == 3.0
        # two full profiles at r passes each, plus the converging period
        assert float(ratio3[1]) == pytest.approx(7.0)
