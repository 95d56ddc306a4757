"""Measurement toolkit: potentials, fits, statistics, sweeps, tables."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".bench": ("BenchCase", "bench_suite", "run_bench"),
    ".fitting": (
        "PowerLawFit",
        "bootstrap_exponent_interval",
        "fit_power_law",
    ),
    ".potentials": (
        "LineVectors",
        "all_traps_tidy",
        "global_deficit",
        "global_excess",
        "global_surplus",
        "indicated_lines",
        "line_deficit",
        "line_excess_tokens",
        "line_surplus",
        "line_vectors",
        "max_tree_path_potential",
        "ring_weight",
        "ring_weight_components",
        "stabilise_line",
        "tree_path_potential",
    ),
    ".recovery": (
        "RecoveryRecord",
        "phase_table",
        "recovery_records",
        "recovery_table",
        "survival_curve",
        "survival_table",
    ),
    ".stats": ("Summary", "geometric_mean", "summarise", "wilson_interval"),
    ".supervision": (
        "JobFailure",
        "SupervisionPolicy",
        "check_picklable",
        "supervised_map",
    ),
    ".sweep": ("SweepPoint", "measure_stabilisation", "run_sweep"),
    ".tables": ("Table", "format_value"),
    ".trajectories": (
        "PhaseCensus",
        "ResetCounter",
        "SampledMetricRecorder",
        "TreePhaseRecorder",
    ),
})
