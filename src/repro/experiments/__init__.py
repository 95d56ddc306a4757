"""Reproduction experiments, one per paper artefact (see DESIGN.md §5)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".base": ("SCALES", "ExperimentResult", "bench_scale_from_env", "pick"),
    ".registry": (
        "REGISTRY",
        "Experiment",
        "get_experiment",
        "list_experiments",
        "run_experiment",
    ),
})
