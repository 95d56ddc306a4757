"""Experiments on the trap lemmas — Lemma 1 (drain) and Lemma 2 (tidy).

``trap_drain``: a single trap of inner size ``m`` starts with surplus
``l`` (all agents piled on the top inner state) inside a population of
``n = m + 1 + l`` agents.  Lemma 1 predicts:

* at least ``⌊(l+1)/2⌋`` agents are released within ``O(m·n)`` time, and
* all ``l`` surplus agents within ``O(m·n·log(l+1))`` time.

We measure the exact release instants and report them normalised by the
lemma's envelopes — flat columns across ``m`` confirm the shape.

``tidy_time``: in a ring of traps started from a random configuration,
Lemma 2 says the configuration becomes (and stays) tidy within ``O(mn)``
time whp.  We step the engine, record the first time every trap is tidy,
verify tidiness never breaks afterwards, and normalise by ``m·n``.
"""

from __future__ import annotations

from typing import Optional

import math

import numpy as np

from ..analysis.potentials import all_traps_tidy
from ..analysis.stats import summarise
from ..analysis.tables import Table
from ..configurations.generators import random_configuration
from ..core.configuration import Configuration
from ..core.jump import JumpEngine
from ..protocols.ring import RingOfTrapsProtocol
from ..protocols.trap import SingleTrapProtocol
from .base import ExperimentResult, pick

DESCRIPTION_DRAIN = "Lemma 1: trap surplus drains at rate ~m·n (half per pass)"
DESCRIPTION_TIDY = "Lemma 2: configurations become tidy within ~m·n time"
PAPER_REFERENCE = "§2.1–§2.2, Lemmas 1–2"


def _drain_times(m: int, surplus: int, seed: int) -> tuple:
    """(time to release ⌊(l+1)/2⌋ agents, time to release l agents)."""
    protocol = SingleTrapProtocol(inner_size=m, num_agents=m + 1 + surplus)
    counts = [0] * protocol.num_states
    counts[protocol.trap.top] = protocol.num_agents  # tidy worst case
    engine = JumpEngine(
        protocol, Configuration(counts), np.random.default_rng(seed)
    )
    half_target = (surplus + 1) // 2
    half_time = None
    exit_state = protocol.exit_state
    while True:
        event = engine.step()
        if event is None:
            break
        released = engine.counts[exit_state]
        if half_time is None and released >= half_target:
            half_time = engine.interactions / protocol.num_agents
        if released >= surplus:
            return half_time, engine.interactions / protocol.num_agents
    raise AssertionError("trap went silent before releasing its surplus")


def run_drain(
    scale: str = "small", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """Sweep trap size m and surplus l; normalise release times."""
    ms = pick(scale, smoke=[8, 16], small=[16, 32, 64, 128],
              paper=[16, 32, 64, 128, 256])
    repetitions = pick(scale, smoke=2, small=5, paper=9)
    table = Table(
        title="Single trap: surplus release times (Lemma 1)",
        headers=[
            "m", "surplus l", "t(half) median", "t(half)/(m·n)",
            "t(all) median", "t(all)/(m·n·log(l+1))",
        ],
    )
    raw_rows = []
    for m in ms:
        for surplus in (1, m // 2, m):
            half_times, all_times = [], []
            for rep in range(repetitions):
                half, full = _drain_times(m, surplus, seed * 1000 + rep + m)
                half_times.append(half)
                all_times.append(full)
            n = m + 1 + surplus
            half_median = summarise(half_times).median
            all_median = summarise(all_times).median
            log_factor = max(1.0, math.log2(surplus + 1))
            table.add_row(
                m,
                surplus,
                half_median,
                half_median / (m * n),
                all_median,
                all_median / (m * n * log_factor),
            )
            raw_rows.append(
                {"m": m, "surplus": surplus, "half_median": half_median,
                 "all_median": all_median}
            )
    table.add_note(
        "normalised columns flat across m ⟹ release times scale as "
        "Lemma 1's m·n and m·n·log(l+1) envelopes"
    )
    table.add_note(
        "start = all agents on the top inner state (tidy worst case); "
        "n = m + 1 + l"
    )
    return ExperimentResult(
        experiment_id="trap_drain", scale=scale, tables=[table],
        raw={"rows": raw_rows},
    )


def _tidy_time(m: int, seed: int) -> float:
    """First parallel time at which every trap of a random ring is tidy."""
    protocol = RingOfTrapsProtocol(m=m)
    rng = np.random.default_rng(seed)
    start = random_configuration(protocol, seed=rng, include_extras=False)
    engine = JumpEngine(protocol, start, rng)
    traps = protocol.traps
    tidy_at = None
    while True:
        if tidy_at is None and all_traps_tidy(traps, engine.counts):
            tidy_at = engine.interactions / protocol.num_agents
        event = engine.step()
        if event is None:
            break
        if tidy_at is not None and not all_traps_tidy(traps, engine.counts):
            # Lemma 2: tidiness persists once reached.  A violation here
            # would falsify the lemma (and our transition function).
            raise AssertionError(
                f"tidiness broke at interaction {engine.interactions}"
            )
    if tidy_at is None:
        raise AssertionError("run went silent without ever becoming tidy")
    return tidy_at


def run_tidy(
    scale: str = "small", seed: int = 0, workers: Optional[int] = None
) -> ExperimentResult:
    """Sweep ring size; tabulate time-to-tidy normalised by m·n."""
    ms = pick(scale, smoke=[6, 8], small=[8, 12, 16, 24],
              paper=[8, 12, 16, 24, 32])
    repetitions = pick(scale, smoke=2, small=5, paper=9)
    table = Table(
        title="Ring of traps: time until the configuration is tidy (Lemma 2)",
        headers=["m", "n", "tidy time median", "tidy time max", "median/(m·n)"],
    )
    raw_rows = []
    for m in ms:
        times = [
            _tidy_time(m, seed * 997 + rep * 13 + m) for rep in range(repetitions)
        ]
        n = m * (m + 1)
        summary = summarise(times)
        table.add_row(m, n, summary.median, summary.maximum,
                      summary.median / (m * n))
        raw_rows.append({"m": m, "median": summary.median,
                         "max": summary.maximum})
    table.add_note(
        "tidiness is checked after every productive event; Lemma 2 also "
        "claims persistence — any later violation would fail the run"
    )
    return ExperimentResult(
        experiment_id="tidy_time", scale=scale, tables=[table],
        raw={"rows": raw_rows},
    )
