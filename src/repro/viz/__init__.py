"""Plain-text renderers for traps, rings, lines, trees, and graph G."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".ascii": (
        "render_line",
        "render_ring",
        "render_routing_graph",
        "render_trap",
        "render_tree",
    ),
})
