"""Output checks.  The simulator is deterministic, so any difference in its
output is a failed run, never noise.

* At the default workload seed, the SHA-256 digests of the three CSVs must
  equal the ones pinned in ``digests.json``.
* At any seed, every run must satisfy the invariants below, and every timed
  sweep must reproduce the reference sweep run by run and byte for byte.
  The reference is serial and in summary mode, so the per-tick workload is
  checked against summary mode and the ``--jobs 2`` workload against serial.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

CSV_FILES = ("metrics.csv", "convergence.csv", "timeline.csv")
PINNED = Path(__file__).with_name("digests.json")


def digests(out_dir) -> dict:
    return {
        name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
        for name in CSV_FILES
    }


def csv_size(out_dir) -> tuple[int, int]:
    """(data rows, bytes) over the three CSVs."""
    rows = size = 0
    for name in CSV_FILES:
        data = (Path(out_dir) / name).read_bytes()
        rows += data.count(b"\n") - 1
        size += len(data)
    return rows, size


def pinned(workload: str):
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def invariant_failures(record) -> list[str]:
    """Per-period invariants that hold for any seed."""
    out = []
    policy = record.key.policy
    for period, _phase, catches, _misses, awake, events in record.periods:
        if catches > min(awake, events):
            out.append(f"{record.key} period {period}: catches {catches} > "
                       f"min(awake {awake}, events {events})")
        if policy == "gt" and catches != events:
            out.append(f"{record.key} period {period}: gt caught {catches} of {events}")
    return out


def outputs(record) -> tuple:
    """Everything a run contributes to the CSVs."""
    return (record.key, record.scenario, record.periods, record.level_rows,
            record.phase1_passes, record.study)


def mismatched_runs(records, reference) -> int:
    """Runs whose output differs from the reference run at the same position."""
    if len(records) != len(reference):
        return max(len(records), len(reference))
    return sum(outputs(a) != outputs(b) for a, b in zip(records, reference))
