"""The paper's protocols and their combinatorial substrates.

* :class:`~repro.protocols.ag.AGProtocol` — the ``Θ(n²)`` baseline.
* :class:`~repro.protocols.ring.RingOfTrapsProtocol` — §3, Theorem 1.
* :class:`~repro.protocols.line.LineOfTrapsProtocol` — §4, Theorem 2.
* :class:`~repro.protocols.tree_protocol.TreeRankingProtocol` — §5, Theorem 3.
* Substrates: agent traps, the routing graph ``G`` (Figure 1), and
  perfectly balanced binary trees (Figure 2).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".ag": ("AGProtocol",),
    ".leader": ("LeaderElectionResult", "count_leaders", "elect_leader"),
    ".line": (
        "LineOfTrapsProtocol",
        "line_lattice_size",
        "line_parameter_for",
    ),
    ".modified_tree": ("ModifiedTreeProtocol",),
    ".ring": ("RingOfTrapsProtocol", "ring_parameter_for"),
    ".routing": ("RoutingGraph", "build_routing_graph"),
    ".trap": (
        "SingleTrapProtocol",
        "TrapLayout",
        "trap_gaps",
        "trap_is_flat",
        "trap_is_full",
        "trap_is_saturated",
        "trap_is_tidy",
        "trap_surplus",
    ),
    ".tree": ("NodeKind", "PerfectlyBalancedTree"),
    ".tree_protocol": (
        "TreeDispersalProtocol",
        "TreeRankingProtocol",
        "default_line_half_length",
    ),
})
