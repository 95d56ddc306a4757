"""Measurement toolkit: potentials, fits, statistics, sweeps, tables."""

from .bench import BenchCase, bench_suite, run_bench
from .fitting import PowerLawFit, bootstrap_exponent_interval, fit_power_law
from .potentials import (
    LineVectors,
    all_traps_tidy,
    global_deficit,
    global_excess,
    global_surplus,
    indicated_lines,
    line_deficit,
    line_excess_tokens,
    line_surplus,
    line_vectors,
    max_tree_path_potential,
    ring_weight,
    ring_weight_components,
    stabilise_line,
    tree_path_potential,
)
from .recovery import (
    RecoveryRecord,
    phase_table,
    recovery_records,
    recovery_table,
    survival_curve,
    survival_table,
)
from .stats import Summary, geometric_mean, summarise, wilson_interval
from .supervision import (
    JobFailure,
    SupervisionPolicy,
    check_picklable,
    supervised_map,
)
from .sweep import SweepPoint, fan_out, measure_stabilisation, run_sweep
from .tables import Table, format_value
from .trajectories import (
    PhaseCensus,
    ResetCounter,
    SampledMetricRecorder,
    TreePhaseRecorder,
)

__all__ = [
    "BenchCase",
    "JobFailure",
    "LineVectors",
    "PhaseCensus",
    "PowerLawFit",
    "RecoveryRecord",
    "ResetCounter",
    "SampledMetricRecorder",
    "Summary",
    "SupervisionPolicy",
    "SweepPoint",
    "Table",
    "TreePhaseRecorder",
    "all_traps_tidy",
    "bench_suite",
    "bootstrap_exponent_interval",
    "check_picklable",
    "fan_out",
    "fit_power_law",
    "format_value",
    "geometric_mean",
    "phase_table",
    "global_deficit",
    "global_excess",
    "global_surplus",
    "indicated_lines",
    "line_deficit",
    "line_excess_tokens",
    "line_surplus",
    "line_vectors",
    "max_tree_path_potential",
    "measure_stabilisation",
    "recovery_records",
    "recovery_table",
    "ring_weight",
    "ring_weight_components",
    "run_bench",
    "run_sweep",
    "stabilise_line",
    "summarise",
    "supervised_map",
    "survival_curve",
    "survival_table",
    "tree_path_potential",
    "wilson_interval",
]
