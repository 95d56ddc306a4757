"""Initial-configuration generators (k-distant, random, adversarial)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".generators": (
        "all_in_extras_configuration",
        "all_in_state_configuration",
        "distance_from_solved",
        "doubled_prefix_configuration",
        "k_distant_configuration",
        "random_configuration",
        "solved_configuration",
    ),
})
