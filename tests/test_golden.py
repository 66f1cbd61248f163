"""Golden digests: byte-identical preset CSVs.

Every shipped preset runs at a reduced seed count and the SHA-256 digests of
its metrics.csv, convergence.csv and timeline.csv must equal the pinned
values.  A refactor or optimisation that changes any simulated number fails
here even when every run-vs-run replay test stays green.  Two variants pin
the contracts that outputs depend on neither ``record_level`` nor ``--jobs``:
they must reproduce the digests of their summary-mode, serial twins.

The CSVs show the learner only through its convergence latches, so a second
digest per case pins the learner's own state: every learning run's Q-values,
episode log and phase-1 stays, reals by `float.hex`.

A change that is meant to alter simulated numbers re-pins these digests and
explains every changed cell.
"""

import hashlib
from pathlib import Path

import pytest

from smarton_sim import engine
from smarton_sim.cli import main
from smarton_sim.reports import emit_csv, run_sweep
from smarton_sim.scenario import PRESETS, load_scenario, write_config

CSV_FILES = ("metrics.csv", "convergence.csv", "timeline.csv")

# fig-perf restricted to one event type and two entry levels, short enough to
# also run per tick
FIG_PERF_SUBSET = (
    ("sweep", "event_type", "type1"),
    ("sweep", "entry_level", "1,4"),
    ("run", "n_periods", 40),
)

# a source trace of 331 ticks, so no period starts at the same offset for
# many periods: long runs of one inflow, a dark stretch, a stretch that varies
# tick by tick, and a lit first tick, so that CTID's phase-jitter warm-up runs
TRACE_VALUES = (
    [0.8] * 120 + [0.0] * 60 + [2.35] * 41 + [0.15, 0.6, 1.95, 0.0, 3.1] * 14 + [0.45] * 40
)
# stands for `source = trace:<path>` of a file holding TRACE_VALUES, which
# `scenario_for` writes: no digest depends on the file's path
TRACE_SOURCE = object()

# case -> (preset, overrides)
CASES = {
    "fig-perf": ("fig-perf", (("sweep", "seeds", "0"),)),
    "conv-vs-ratio": ("conv-vs-ratio", (("sweep", "seeds", "0:3"),)),
    "conv-per-entry": ("conv-per-entry", (("sweep", "seeds", "0:2"),)),
    "learning-order": ("learning-order", (("sweep", "seeds", "2:4"),)),
    "state-duration": ("state-duration", (("sweep", "seeds", "0"),)),
    "adaptation": ("adaptation", ()),
    # CTIDpro beside the learner: its re-profiling, twice in this preset,
    # shows in no other case's digests
    "adaptation-both": ("adaptation", (("sweep", "policy", "smarton,ctidpro"),)),
    "fig-perf-subset": ("fig-perf", (("sweep", "seeds", "0"),) + FIG_PERF_SUBSET),
    # the varying sources, with CTID's phase jitter on: two diurnal days'
    # periods (the first dusk falls in period 36, the next dawn in period 72),
    # a source cut inside the peaks and a cyclic trace file
    "fig-perf-diurnal": ("fig-perf", (("sweep", "seeds", "0"),) + FIG_PERF_SUBSET
                         + (("energy", "source", "diurnal"), ("run", "n_periods", 80))),
    "fig-perf-gated": ("fig-perf", (("sweep", "seeds", "0"),) + FIG_PERF_SUBSET
                       + (("energy", "gate_in_peaks", True),)),
    "fig-perf-trace": ("fig-perf", (("sweep", "seeds", "0"),) + FIG_PERF_SUBSET
                       + (("energy", "source", TRACE_SOURCE),)),
}

DIGESTS = {
    "adaptation": (
        "532af741aabedd302985202fda5e65c1d7caad117444d3eea166759a6b030819",
        "7e94d2e28ed77b1a941930c78764dd3a350f809dc5568982d7dc7666dfc326d6",
        "51ec9df335811de6dce27f74df265fe172ddaae7ec91df4751f87bd25ee903a1",
    ),
    "adaptation-both": (
        "f389866e893da2b499fbb0b3f188390b103edd77615cfdbb28b689fcda4d4397",
        "7e94d2e28ed77b1a941930c78764dd3a350f809dc5568982d7dc7666dfc326d6",
        "51ec9df335811de6dce27f74df265fe172ddaae7ec91df4751f87bd25ee903a1",
    ),
    "conv-per-entry": (
        "544b9055ba106d7a37ba11ce94740027cee35f2a289e9228c8f08a8e9ca393c3",
        "1e5ff34ea308c3d362ffd7ac3e2be5077a9c5075141f23f7d824b55a962a0c54",
        "e34aabe8663b5af38b7623094ca768cbb2af736636afe0ae49e48e3b050fcc8b",
    ),
    "conv-vs-ratio": (
        "d1dee4ff8602070c143a31fc536a4a36696afa52b6e3bf86a25d5162c0e6f0c0",
        "682f805a23a13ecbf7d4c05c132aa2b5c27629594cefd7836e6ed31fe6b94672",
        "a96243256803eaa50cf73f65ef7a8a93b016f92ffb69a70ff80fce9ad534fa94",
    ),
    "fig-perf": (
        "497b3108acc4a284206bb08295950192fa2e52ec1af1e1a797da2398c2524c15",
        "b763737cc2a2c9621b92d7c22bdf4b94c1cc31a0bc20c0c7c120c1bbafe601fb",
        "fda73f467a02e10fdc6c7dfce21240ef2458d21dbdfc58c65906b5a3a60f108c",
    ),
    "fig-perf-diurnal": (
        "1760e21b066e8116354c57eef9722a0e44e153dd709b04051908a4277628acce",
        "f3deaaeff9813ef55fe53e5c6e84f03b6e8cb6d8302e5c8fb1ea3798ef415a59",
        "b865299aa8c18d944311c4fec010cf7d94798edc5f2e7a8916e16d845d76a882",
    ),
    "fig-perf-gated": (
        "8a20ecd878edc5c0ec595d39da52d6bc7587da24a32b17dfcc17da54086e232c",
        "ad9113c02641db91fc44cf146fedf07b94e660c3ab0bc02a5988cb64ef57d6c2",
        "3129ea220a157b496179d095c5240e5b07909429ce4d0dc633b02c07494efb47",
    ),
    "fig-perf-trace": (
        "892f7c81b906cfcb084454ef3c849bed88eea9254f08a5afc31ed51184d9972d",
        "ad9113c02641db91fc44cf146fedf07b94e660c3ab0bc02a5988cb64ef57d6c2",
        "8a97a3e86dedee33cbe2eb89e4685b67e2554ca1717fdff12a458bab39f55ff8",
    ),
    "fig-perf-subset": (
        "e7bb2dd1c2cbf71eaf7a9870966fe03a38a763a6d8354f4badedc534abd62dad",
        "a3ec42a7a124d2622fd304282061740f597acb921d50b66f169d51660d5e2b84",
        "cd10e3480c542a7a7aa71e29780b0f60c7528eea12aa455b14dd811507272739",
    ),
    "learning-order": (
        "544b9055ba106d7a37ba11ce94740027cee35f2a289e9228c8f08a8e9ca393c3",
        "128724bed17e17296844f4cc2744015becaa4f9d1a4a037af3d35d4a0ce45b1f",
        "e34aabe8663b5af38b7623094ca768cbb2af736636afe0ae49e48e3b050fcc8b",
    ),
    "state-duration": (
        "0c2abaa4f4c25f98877f8c3ee9941224a8d484d5b8efce0e2ef66a739cb0bccc",
        "a3b087ad87ec3b6d96feb815daad18ee9d729d8c6d5c3017ffc7766d319e6745",
        "8598c0e65db7519e2385b3826f23e9f17ca5a9e7365b9903a3fcbf60677558b2",
    ),
}

LEARNER_DIGESTS = {
    "adaptation": "39524b8045ec7b2dcb7eb57781838d5b4a5e7df991b1dba48e01de7d36364a01",
    "adaptation-both": "39524b8045ec7b2dcb7eb57781838d5b4a5e7df991b1dba48e01de7d36364a01",
    "conv-per-entry": "847b854261359e6b1a9614791652dabce0c48660ba55bdac3e962e22cca02fa8",
    "conv-vs-ratio": "bf5312e195ec16cac82d21a9158dcfdade6d86e56ea689b008d6fe325707bc91",
    "fig-perf": "54d8d72bb60a98ed4e69ae38b4e3309109d82407a45656052c19f148e23aede3",
    "fig-perf-diurnal": "f8e985491565e0f8f4e4ae7c9603e92bc9d4286f8cea9fbf80af88c198c2cc0e",
    "fig-perf-gated": "3cea1aea59bf951d0c02b87574e2db833a195e6d505493ec9b3a72608b1af2b1",
    "fig-perf-trace": "c26fc2e4b28587bd6cf7ff487dd3fada7d36788ab112fd35c9d86a8044bc4c5b",
    "fig-perf-subset": "16af942d8a388ee1f88ba14a036be4bade80829e33eddbe08bbb59c93f407ba2",
    "learning-order": "a5720d3ddc5823092fd623950b9fb473676c63d16a23458bd31846b89018f0b1",
    "state-duration": "02cd3b158baa74a7363fe24d0c746def97f2dda94ac3e0382f62905e77c720ab",
}


def scenario_for(case: str, tmp_path):
    """The case's scenario; a trace source's file is written to `tmp_path`."""
    preset, overrides = CASES[case]
    scenario = load_scenario(preset)
    for section, key, value in overrides:
        if value is TRACE_SOURCE:
            path = Path(tmp_path) / "source.txt"
            path.write_text("\n".join(map(str, TRACE_VALUES)) + "\n", encoding="utf-8")
            value = f"trace:{path}"
        scenario = scenario.with_value(section, key, value)
    return scenario


def digests(out_dir) -> tuple[str, ...]:
    return tuple(
        hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
        for name in CSV_FILES
    )


def sweep_digests(scenario, out_dir) -> tuple[str, ...]:
    records = run_sweep(scenario)
    emit_csv(records, out_dir, measure_from=scenario.values[("run", "measure_from")])
    return digests(out_dir)


def learner_state_digest(scenario, monkeypatch) -> str:
    """SHA-256 over the learning runs of a sweep, partition studies
    included, in run order: each Q-table's values, the episode log and the
    phase-1 stays."""
    policies = []
    make_policy = engine.make_policy

    def capturing_make_policy(config):
        policies.append(make_policy(config))
        return policies[-1]

    monkeypatch.setattr(engine, "make_policy", capturing_make_policy)
    run_sweep(scenario)
    learners = [policy for policy in policies if policy.name == "smarton"]
    assert learners
    digest = hashlib.sha256()
    for policy in learners:
        for shape, table in policy.ctx.tables.items():
            cells = [float(v).hex() for row in table.values for v in row]
            digest.update(repr((shape, cells)).encode())
        for ep in policy.episodes:
            digest.update(repr((ep["shape"], ep["entry_level"], ep["actions"],
                                float(ep["reward"]).hex(),
                                float(ep["max_change"]).hex())).encode())
        digest.update(repr(policy.phase1_stays).encode())
    return digest.hexdigest()


def test_every_preset_is_pinned():
    assert {preset for preset, _ in CASES.values()} == set(PRESETS)
    assert set(DIGESTS) == set(CASES) == set(LEARNER_DIGESTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_preset_digests(case, tmp_path):
    assert sweep_digests(scenario_for(case, tmp_path), tmp_path) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_learner_state_digests(case, monkeypatch, tmp_path):
    scenario = scenario_for(case, tmp_path)
    assert learner_state_digest(scenario, monkeypatch) == LEARNER_DIGESTS[case]


@pytest.mark.parametrize("case", ["fig-perf-subset", "fig-perf-diurnal", "fig-perf-gated",
                                  "fig-perf-trace"])
def test_per_tick_recording_reproduces_summary_digests(case, tmp_path):
    scenario = scenario_for(case, tmp_path).with_value("run", "record_level", "per-tick")
    assert sweep_digests(scenario, tmp_path) == DIGESTS[case]


def test_cli_sweep_with_two_jobs_reproduces_serial_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("SMARTON_SIM_SEED", raising=False)
    config = tmp_path / "state-duration.ini"
    config.write_text(write_config(scenario_for("state-duration", tmp_path)), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["sweep", "--scenario", str(config), "--out", str(out), "--jobs", "2"]
    assert main(argv) == 0
    assert digests(out) == DIGESTS["state-duration"]


def quanta_of(x: float, d: int) -> int:
    """The quanta, `d` to a wake cost, of which the log value `x` is the
    correctly rounded quotient."""
    n = round(x * d)
    assert n / d == x, (x, d)
    return n


@pytest.mark.parametrize("record_level", ["summary", "per-tick"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_every_period_of_every_case_balances_exactly(case, record_level, monkeypatch,
                                                     tmp_path):
    # stored_end = stored_start + harvested + forced - drawn - wasted, to
    # the quantum, in every period a sweep runs, partition studies included
    logs = []
    run_period = engine.run_period

    def logging_run_period(policy, store, *args):
        log = run_period(policy, store, *args)
        logs.append((log, store.wake))
        return log

    monkeypatch.setattr(engine, "run_period", logging_run_period)
    run_sweep(scenario_for(case, tmp_path).with_value("run", "record_level", record_level))
    assert logs
    for log, d in logs:
        start, end, harvested, forced, drawn, wasted = (quanta_of(x, d) for x in (
            log.stored_start, log.stored_end, log.harvested, log.forced_delta, log.drawn,
            log.wasted_saturation))
        assert end - (start + harvested + forced - drawn - wasted) == 0, log.period


@pytest.mark.parametrize("record_level", ["summary", "per-tick"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_learning_policies_plan_only_funded_wake_ups(case, record_level, monkeypatch,
                                                         tmp_path):
    # profiling plans from `full_floor`, probes from `probe_floor` and
    # episodes from `affordable_actions`: every slot is funded at its start,
    # which is what lets the kernel take each planned slot in closed form
    logs = []
    run_period = engine.run_period

    def logging_run_period(policy, *args):
        log = run_period(policy, *args)
        if policy.name in ("smarton", "ctidpro"):
            logs.append(log)
        return log

    monkeypatch.setattr(engine, "run_period", logging_run_period)
    run_sweep(scenario_for(case, tmp_path).with_value("run", "record_level", record_level))
    assert logs
    assert [log.period for log in logs if log.skipped_wakeups] == []
