"""Experiment ``engine_equivalence`` — methodology validation.

The jump engine skips null interactions with geometric jumps; this is
claimed to be *exact*, not an approximation.  The experiment runs the
same (protocol, configuration) under both engines with many independent
seeds and compares the distributions of total interactions and of final
outcomes.  Medians agreeing within Monte-Carlo noise across engines is
the acceptance criterion used throughout the reproduction.

The numpy batch kernel (``backend="numpy"``) is held to the same bar: a
third leg runs every case through
:func:`~repro.core.engine.run_protocol` with the numpy backend — the
frozen-stratum rejection sampler is claimed step-distribution-identical
to the jump chain, and this experiment is the distributional check the
backend-equivalence CI matrix executes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..analysis.stats import summarise
from ..analysis.tables import Table
from ..configurations.generators import random_configuration
from ..core.engine import run_protocol
from ..protocols.ag import AGProtocol
from ..protocols.line import LineOfTrapsProtocol
from ..protocols.ring import RingOfTrapsProtocol
from ..protocols.tree_protocol import TreeRankingProtocol
from .base import ExperimentResult, pick

EXPERIMENT_ID = "engine_equivalence"
DESCRIPTION = "jump ≡ sequential ≡ numpy batch engines, distributionally"
PAPER_REFERENCE = "methodology (DESIGN.md §4)"


def _distribution(
    protocol_factory, num_seeds: int, engine: str, seed: int,
    backend: str = "python",
):
    times = []
    ranked = 0
    for rep in range(num_seeds):
        rng = np.random.default_rng(seed * 100003 + rep)
        protocol = protocol_factory()
        start = random_configuration(
            protocol, seed=rng, include_extras=protocol.num_extra_states > 0
        )
        result = run_protocol(
            protocol, start, seed=rng, engine=engine, backend=backend
        )
        times.append(result.parallel_time)
        if result.final_configuration.is_ranked(protocol.num_agents):
            ranked += 1
    return summarise(times), ranked


def run(
    scale: str = "small", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """Compare per-engine stabilisation-time distributions."""
    num_seeds = pick(scale, smoke=10, small=60, paper=200)
    # The tree and line cases drive the jump engine's *fused general
    # loop* (multi-family protocols: triangular reset line, ordered
    # product routing) against the naive per-interaction reference.
    cases = [
        ("AG n=24", lambda: AGProtocol(24)),
        ("Ring m=4 (n=20)", lambda: RingOfTrapsProtocol(m=4)),
        ("Tree n=21 k=3", lambda: TreeRankingProtocol(21, k=3)),
        ("Line m=2 (n=72)", lambda: LineOfTrapsProtocol(m=2)),
    ]
    table = Table(
        title=(
            "Engine equivalence: jump vs sequential vs numpy batch "
            "(median parallel time)"
        ),
        headers=[
            "case", "jump median", "sequential median", "seq ratio",
            "batch median", "batch ratio", "jump ranked", "seq ranked",
            "batch ranked",
        ],
    )
    raw_rows = []
    max_deviation = 0.0
    for label, factory in cases:
        jump_summary, jump_ranked = _distribution(
            factory, num_seeds, "jump", seed
        )
        seq_summary, seq_ranked = _distribution(
            factory, num_seeds, "sequential", seed + 1
        )
        batch_summary, batch_ranked = _distribution(
            factory, num_seeds, "jump", seed + 2, backend="numpy"
        )
        ratio = jump_summary.median / seq_summary.median
        batch_ratio = batch_summary.median / jump_summary.median
        max_deviation = max(
            max_deviation, abs(ratio - 1.0), abs(batch_ratio - 1.0)
        )
        table.add_row(
            label, jump_summary.median, seq_summary.median, ratio,
            batch_summary.median, batch_ratio,
            f"{jump_ranked}/{num_seeds}", f"{seq_ranked}/{num_seeds}",
            f"{batch_ranked}/{num_seeds}",
        )
        raw_rows.append(
            {"case": label, "jump_median": jump_summary.median,
             "sequential_median": seq_summary.median, "ratio": ratio,
             "batch_median": batch_summary.median,
             "batch_ratio": batch_ratio}
        )
    table.add_note(
        f"{num_seeds} independent seeds per engine per case; all three "
        "engines must rank every run and agree on medians up to "
        "Monte-Carlo noise (batch ratio is batch/jump)"
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        scale=scale,
        tables=[table],
        raw={"rows": raw_rows, "max_median_deviation": max_deviation},
    )
