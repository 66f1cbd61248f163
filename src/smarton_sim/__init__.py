"""Deterministic simulator for just-in-time active event detection on
harvested energy: storage models, shaped event worlds, a three-phase
duty-cycle learner, baseline policies, and scenario-driven experiments."""

from .energy import (
    AbstractStore,
    CapacitorArray,
    HarvestSource,
    InsufficientEnergy,
    NoInactiveCapacitor,
    WAKE_COST,
    capacitor_preset,
    quantize,
)
from .events import (
    EventPattern,
    EventTrace,
    InvalidSpec,
    PeakSpec,
    build_pattern,
    morph_pattern,
    sample_trace,
    shift_pattern,
)
from .learner import LearnerConfig, PhaseContext, QTable
from .policies import CtidConfig
from .engine import (
    ExperimentResult,
    Metrics,
    PatternChange,
    SimConfig,
    compute_metrics,
    convergence_stats,
    run_experiment,
    run_partition_study,
)
from .rng import Stream

__version__ = "0.1.0"

__all__ = [
    "AbstractStore",
    "CapacitorArray",
    "CtidConfig",
    "EventPattern",
    "EventTrace",
    "ExperimentResult",
    "HarvestSource",
    "InsufficientEnergy",
    "InvalidSpec",
    "LearnerConfig",
    "Metrics",
    "NoInactiveCapacitor",
    "PatternChange",
    "PeakSpec",
    "PhaseContext",
    "QTable",
    "SimConfig",
    "Stream",
    "WAKE_COST",
    "build_pattern",
    "capacitor_preset",
    "compute_metrics",
    "convergence_stats",
    "morph_pattern",
    "quantize",
    "run_experiment",
    "run_partition_study",
    "sample_trace",
    "shift_pattern",
]
