"""Experiments on the §5 support lemmas — dispersal and the reset line.

``tree_paths`` (Lemmas 19–20): with all ``n`` agents at the root and
rule R1 alone (:class:`TreeDispersalProtocol`), the population disperses
into a *perfect* ranking — every rank occupied exactly once — in
``O(n log n)`` time whp.  We verify perfection and normalise the
measured time by ``n log n``.

``reset_line`` (Lemma 21 + Theorem 3 proof): starting from a solved
configuration corrupted so that one leaf holds two agents, the full
tree protocol fires the reset rule R2, the red epidemic empties the
whole tree within ``O(log n)`` *additional* parallel time, and the
population then re-ranks.  We measure the epidemic phase directly.
"""

from __future__ import annotations

from typing import Optional

import math

import numpy as np

from ..analysis.stats import summarise
from ..analysis.tables import Table
from ..core.configuration import Configuration
from ..core.jump import JumpEngine
from ..protocols.tree_protocol import TreeDispersalProtocol, TreeRankingProtocol
from .base import ExperimentResult, pick

DESCRIPTION_PATHS = "Lemmas 19–20: R1 disperses all-at-root into a perfect ranking"
DESCRIPTION_RESET = "Lemma 21: the reset epidemic empties the tree in O(log n) time"
PAPER_REFERENCE = "§5.1–§5.2, Lemmas 19–21"


def run_paths(
    scale: str = "small", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """All agents at the root; R1 only; measure perfect-dispersal time."""
    ns = pick(
        scale,
        smoke=[64, 128],
        small=[256, 512, 1024, 2048, 4096],
        paper=[1024, 2048, 4096, 8192, 16384],
    )
    repetitions = pick(scale, smoke=2, small=3, paper=3)
    table = Table(
        title="Tree dispersal from the root (R1 only, Lemmas 19–20)",
        headers=["n", "median time", "max time", "median/(n·log n)", "perfect"],
    )
    raw_rows = []
    for n in ns:
        protocol = TreeDispersalProtocol(n)
        start = Configuration.all_in_state(0, n, protocol.num_states)
        times = []
        perfect = True
        for rep in range(repetitions):
            engine = JumpEngine(
                protocol, start, np.random.default_rng(seed * 7919 + rep * 31 + n)
            )
            silent = engine.run()
            assert silent, "dispersal must reach silence"
            times.append(engine.interactions / n)
            perfect = perfect and all(c == 1 for c in engine.counts)
        summary = summarise(times)
        table.add_row(
            n, summary.median, summary.maximum,
            summary.median / (n * math.log(n)), perfect,
        )
        raw_rows.append({"n": n, "median": summary.median, "perfect": perfect})
    table.add_note(
        "'perfect' = every rank state holds exactly one agent (Lemma 19); "
        "flat median/(n·log n) matches the Lemma 20 envelope"
    )
    return ExperimentResult(
        experiment_id="tree_paths", scale=scale, tables=[table],
        raw={"rows": raw_rows},
    )


def _reset_phases(n: int, seed: int) -> tuple:
    """(time to first reset, epidemic duration, total time) for one run.

    Start: solved configuration with one agent moved from rank 1 onto a
    leaf, so the leaf holds two agents and rank 1 is empty — the
    smallest corruption that *requires* a reset.
    """
    protocol = TreeRankingProtocol(n)
    counts = [1] * protocol.num_states
    for state in protocol.extra_states:
        counts[state] = 0
    leaf = protocol.tree.leaves[-1]
    counts[1] -= 1
    counts[leaf] += 1
    engine = JumpEngine(
        protocol, Configuration(counts), np.random.default_rng(seed)
    )
    num_ranks = protocol.num_ranks
    reset_time = None
    tree_empty_time = None
    while True:
        event = engine.step()
        if event is None:
            break
        if reset_time is None and event.initiator_after >= num_ranks:
            reset_time = engine.interactions / n
        if (
            reset_time is not None
            and tree_empty_time is None
            and sum(engine.counts[:num_ranks]) == 0
        ):
            tree_empty_time = engine.interactions / n
    total = engine.interactions / n
    if reset_time is None or tree_empty_time is None:
        # Whp-complement event: the run stabilised without a full
        # epidemic (e.g. the two reset agents re-ranked directly).
        return None
    return reset_time, tree_empty_time - reset_time, total


def run_reset(
    scale: str = "small", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """Measure the reset epidemic on minimally corrupted configurations."""
    ns = pick(
        scale,
        smoke=[64, 128],
        small=[256, 512, 1024, 2048],
        paper=[512, 1024, 2048, 4096, 8192],
    )
    repetitions = pick(scale, smoke=2, small=5, paper=5)
    table = Table(
        title="Reset epidemic after a leaf overload (Lemma 21)",
        headers=[
            "n", "t(reset fires)", "epidemic duration", "epidemic/log n",
            "total time", "total/(n·log n)",
        ],
    )
    raw_rows = []
    skipped = 0
    for n in ns:
        firsts, epidemics, totals = [], [], []
        rep = 0
        while len(totals) < repetitions:
            phases = _reset_phases(n, seed * 6007 + rep * 17 + n)
            rep += 1
            if phases is None:
                skipped += 1
                if skipped > 5 * repetitions:
                    raise AssertionError(
                        "reset epidemic almost never observed — "
                        "whp claim of Lemma 21 violated"
                    )
                continue
            first, epidemic, total = phases
            firsts.append(first)
            epidemics.append(epidemic)
            totals.append(total)
        epidemic_median = summarise(epidemics).median
        total_median = summarise(totals).median
        table.add_row(
            n,
            summarise(firsts).median,
            epidemic_median,
            epidemic_median / math.log(n),
            total_median,
            total_median / (n * math.log(n)),
        )
        raw_rows.append(
            {"n": n, "epidemic_median": epidemic_median,
             "total_median": total_median}
        )
    table.add_note(
        "epidemic duration = parallel time from the first reset (an agent "
        "entering X₁) until no agent remains in a rank state; "
        "flat epidemic/log n matches Lemma 21"
    )
    if skipped:
        table.add_note(
            f"{skipped} run(s) stabilised without a full epidemic and were "
            "redrawn (a probability-o(1) event, consistent with whp)"
        )
    return ExperimentResult(
        experiment_id="reset_line", scale=scale, tables=[table],
        raw={"rows": raw_rows, "skipped_runs": skipped},
    )
