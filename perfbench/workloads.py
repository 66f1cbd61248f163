"""Benchmark workloads: which preset each one runs, at what size, and why.

Every workload is built from a shipped preset.  The benchmark's workload seed
(``--seed``) only chooses the sweep's seed set, through a hash that does not
depend on the simulator's own RNG, so a later change to the program cannot
change the benchmark's inputs.  The program receives only the generated
scenario.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 0
JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    n_seeds: int  # sweep seeds generated from the workload seed
    overrides: tuple  # ((section, key, value), ...) applied to the preset
    jobs: int = 1
    via_cli: bool = False  # drive through `smarton-sim sweep` instead of the library
    reference: tuple = ()  # overrides that give the reference run of the same configs
    # run_s_tail percentile: at 5 sweeps it leaves >= 10 pooled samples beyond
    tail_pct: int = 90
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig-perf",
            preset="fig-perf",
            n_seeds=1,
            overrides=(),
            why="ROADMAP's headline sweep: 4 policies x 4 event types x 4 entry "
            "levels, 150 periods, serial, summary mode; the only workload with "
            "all four policies on the fast kernel.",
        ),
        Workload(
            name="learning-order",
            preset="learning-order",
            n_seeds=20,
            overrides=(),
            tail_pct=75,
            why="partition studies at 10 energy levels, smarton only, one trace "
            "per run, almost no CSV: policy and learner hooks do half the work and "
            "the CTID/GT kernel paths are bypassed.",
        ),
        Workload(
            name="state-duration-jobs2",
            preset="state-duration",
            n_seeds=6,
            overrides=(),
            jobs=JOBS,
            via_cli=True,
            why="the state-duration study (20/30/60 s slots) through `sweep --jobs "
            "2`: the only multiprocessing fan-out and record pickling, and a "
            "threefold spread of plan_slot calls per tick.",
        ),
        Workload(
            name="fig-perf-per-tick",
            preset="fig-perf",
            n_seeds=1,
            overrides=(
                ("run", "record_level", "per-tick"),
                ("sweep", "event_type", "type1"),
                ("sweep", "entry_level", "1,4"),
            ),
            reference=(("run", "record_level", "summary"),),
            tail_pct=75,
            why="a fig-perf subset recorded per tick: the same engine layer through "
            "the general path, the only workload that calls the energy store.",
        ),
    )
}


def sweep_seeds(workload: str, seed: int, count: int) -> list[int]:
    """`count` distinct sweep seeds in [0, 100000), a pure function of
    (workload, seed)."""
    out: list[int] = []
    i = 0
    while len(out) < count:
        digest = hashlib.sha256(f"{workload}:{seed}:{i}".encode()).digest()
        value = int.from_bytes(digest[:8], "big") % 100000
        if value not in out:
            out.append(value)
        i += 1
    return sorted(out)


def build_scenario(load_scenario, workload: Workload, seed: int, reference=False):
    """The workload's scenario: its preset, its overrides, and the sweep seeds
    generated from `seed`.  With `reference`, the overrides that turn it into
    its reference run (summary mode for the per-tick workload)."""
    scenario = load_scenario(workload.preset)
    seeds = ",".join(str(s) for s in sweep_seeds(workload.name, seed, workload.n_seeds))
    scenario = scenario.with_value("sweep", "seeds", seeds)
    overrides = workload.overrides + (workload.reference if reference else ())
    for section, key, value in overrides:
        scenario = scenario.with_value(section, key, value)
    return scenario
