"""Shared engine machinery: run results, recorders, and the runner API.

Both engines (:class:`~repro.core.jump.JumpEngine` and
:class:`~repro.core.sequential.SequentialEngine`) simulate the same
process — a uniformly random ordered pair of distinct agents interacts
at every step — and report results in the same shape:

* ``interactions`` counts *all* scheduler steps, including null ones;
* ``events`` counts productive interactions only;
* ``parallel_time`` is ``interactions / n``, the paper's time measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..exceptions import (
    ConfigurationError,
    SimulationError,
    SimulationLimitReached,
)
from .configuration import Configuration
from .protocol import PopulationProtocol

__all__ = [
    "Event",
    "RunResult",
    "Recorder",
    "TrajectoryRecorder",
    "MetricRecorder",
    "build_engine",
    "checked_counts",
    "run_protocol",
    "make_rng",
]


@dataclass(frozen=True)
class Event:
    """One productive interaction.

    ``interactions`` is the cumulative scheduler step count at which the
    event happened (1-based: the event *is* that interaction).
    """

    interactions: int
    initiator_before: int
    responder_before: int
    initiator_after: int
    responder_after: int


@dataclass(frozen=True)
class RunResult:
    """Outcome of driving a protocol until silence (or a budget)."""

    protocol_name: str
    engine_name: str
    silent: bool
    interactions: int
    events: int
    num_agents: int
    final_configuration: Configuration
    wall_time_s: float
    seed: Optional[int] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def parallel_time(self) -> float:
        """Interactions divided by the population size (paper's clock)."""
        return self.interactions / self.num_agents

    def __repr__(self) -> str:
        status = "silent" if self.silent else "budget-exhausted"
        return (
            f"RunResult({self.protocol_name}, {status}, "
            f"interactions={self.interactions}, events={self.events}, "
            f"parallel_time={self.parallel_time:.1f})"
        )


class Recorder:
    """Observation hooks invoked by the engines.

    Subclass and override any subset.  ``on_event`` receives the live
    counts list — treat it as read-only.
    """

    def on_start(self, counts: Sequence[int]) -> None:
        """Called once before the first interaction."""

    def on_event(self, event: Event, counts: Sequence[int]) -> None:
        """Called after every productive interaction."""

    def on_finish(self, silent: bool, interactions: int, counts: Sequence[int]) -> None:
        """Called once when the run ends."""


class TrajectoryRecorder(Recorder):
    """Records every productive event (small runs only — unbounded memory)."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def on_event(self, event: Event, counts: Sequence[int]) -> None:
        """Store the event."""
        self.events.append(event)


class MetricRecorder(Recorder):
    """Evaluates ``metric(counts)`` at the start and after every event.

    Useful for tracking the paper's potential functions (the Lemma 3
    weight ``K``, the Lemma 20 potential ``F``, token counts, ...) along
    a trajectory.
    """

    def __init__(self, metric: Callable[[Sequence[int]], object]) -> None:
        self._metric = metric
        self.values: List[object] = []
        self.interactions: List[int] = []

    def on_start(self, counts: Sequence[int]) -> None:
        self.values.append(self._metric(counts))
        self.interactions.append(0)

    def on_event(self, event: Event, counts: Sequence[int]) -> None:
        """Evaluate and store the metric after the event."""
        self.values.append(self._metric(counts))
        self.interactions.append(event.interactions)


def make_rng(
    seed_or_rng: Union[int, np.random.Generator, None],
) -> np.random.Generator:
    """Normalise a seed / generator / None into a ``numpy.random.Generator``."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def checked_counts(
    configuration: Union[Configuration, Sequence[int]],
    num_states: int,
    num_agents: int,
) -> List[int]:
    """Counts of a ``reset_configuration`` target, validated.

    The shared check behind every engine's fault seam: the state space
    and the population size must not change, and a plain sequence must
    hold non-negative integers.  It is read as a
    :class:`~repro.core.configuration.Configuration`, through
    ``operator.index``, so Python and numpy integers pass while a float
    or a string raises instead of being truncated or parsed by ``int``.
    """
    if not isinstance(configuration, Configuration):
        try:
            configuration = Configuration(configuration)
        except ConfigurationError as error:
            raise SimulationError(f"reset configuration: {error}") from None
    counts = configuration.counts_list()
    if len(counts) != num_states:
        raise SimulationError(
            f"reset configuration has {len(counts)} states, "
            f"engine has {num_states}"
        )
    if sum(counts) != num_agents:
        raise SimulationError(
            f"reset configuration has {sum(counts)} agents, "
            f"engine has {num_agents}"
        )
    return counts


def build_engine(
    protocol: PopulationProtocol,
    configuration: Configuration,
    seed: Union[int, np.random.Generator, None] = None,
    engine: str = "jump",
    scheduler: Optional["PairScheduler"] = None,
    instrumentation=None,
    backend: str = "python",
    start_epoch: int = 0,
):
    """Construct the right driver for a run; returns ``(driver, name)``.

    The one engine-routing rule, shared by :func:`run_protocol`, the
    scenario engine and ``repro serve``: uniform scheduling picks the
    named engine class; a biased state-level scheduler (or epoch
    timeline) runs ``"jump"`` on the weighted fast path — the same
    :class:`~repro.core.jump.JumpEngine` class, given the scheduler —
    whenever its class-scaled indexes compile, and on the rejection
    engine otherwise or under ``"sequential"``; agent-identity
    schedulers always run on the explicit-agent engine.  ``name`` is the
    qualified engine name recorded in results (``jump``,
    ``weighted:<scheduler>`` etc.); it, not the engine's class, tells a
    uniform jump run from a biased one.  ``start_epoch`` starts a
    biased engine's timeline at a later segment (the scenario engine's
    churn rebuild).

    ``seed`` is normalised per constructed engine (an int seed hands
    every candidate constructor a fresh generator, so a discarded
    weighted-path probe never advances the stream the fallback uses).

    ``instrumentation`` is an optional
    :class:`~repro.obs.Instrumentation` counter bag the driver updates
    per chunk; ``None`` (the default) leaves the fast paths untouched.
    Counters never consume randomness, so instrumented runs are
    bit-identical to uninstrumented ones at the same seed.

    ``backend`` selects the execution substrate: ``"python"`` (default)
    keeps the tuned scalar loops; ``"numpy"`` routes uniform-scheduler
    jump runs through the vectorised batch kernel
    (:class:`~repro.core.batch.BatchEngine`, engine name ``"batch"``)
    when the protocol's families compile for it, and falls back to the
    scalar engines otherwise (non-uniform schedulers, the sequential
    engine).

    A uniform ``"jump"`` run of a protocol with a custom family type
    raises :class:`SimulationError`; run it with ``engine="sequential"``.
    """
    if backend not in ("python", "numpy"):
        raise SimulationError(
            f"unknown backend {backend!r}; expected 'python' or 'numpy'"
        )
    # Imported here to avoid a circular import at module load time.
    from .jump import JumpEngine
    from .sequential import SequentialEngine

    engines = {"jump": JumpEngine, "sequential": SequentialEngine}
    if engine not in engines:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {sorted(engines)}"
        )
    if scheduler is not None and not scheduler.is_uniform:
        from .scheduler import (
            AgentScheduledEngine,
            AgentScheduler,
            ScheduledEngine,
            try_weighted_engine,
        )

        if isinstance(scheduler, AgentScheduler):
            return (
                AgentScheduledEngine(
                    protocol, configuration, make_rng(seed), scheduler,
                    instrumentation=instrumentation,
                ),
                f"agent:{scheduler.name}",
            )
        if engine == "jump":
            driver = try_weighted_engine(
                protocol, configuration, make_rng(seed), scheduler,
                start_epoch=start_epoch, instrumentation=instrumentation,
            )
            if driver is not None:
                return driver, f"weighted:{scheduler.name}"
        return (
            ScheduledEngine(
                protocol, configuration, make_rng(seed), scheduler,
                start_epoch=start_epoch, instrumentation=instrumentation,
            ),
            f"scheduled:{scheduler.name}",
        )
    if backend == "numpy" and engine == "jump":
        from .batch import BatchEngine, batch_supported

        if batch_supported(protocol):
            return (
                BatchEngine(
                    protocol, configuration, make_rng(seed),
                    instrumentation=instrumentation,
                ),
                "batch",
            )
    return (
        engines[engine](
            protocol, configuration, make_rng(seed),
            instrumentation=instrumentation,
        ),
        engine,
    )


def run_protocol(
    protocol: PopulationProtocol,
    configuration: Configuration,
    seed: Union[int, np.random.Generator, None] = None,
    engine: str = "jump",
    max_interactions: Optional[int] = None,
    recorder: Optional[Recorder] = None,
    require_silence: bool = False,
    max_events: Optional[int] = None,
    scheduler: Optional["PairScheduler"] = None,
    instrumentation=None,
    backend: str = "python",
) -> RunResult:
    """Simulate ``protocol`` from ``configuration`` until silence.

    Parameters
    ----------
    engine:
        ``"jump"`` (exact geometric-jump chain, the default — use this
        for anything but tiny populations) or ``"sequential"`` (naive
        per-interaction loop, used for cross-validation).
    max_interactions:
        Optional budget on *total* scheduler steps (null ones included).
        When exhausted the result has ``silent=False``.
    max_events:
        Optional budget on *productive* events — the engine's actual
        work; the effective guard against non-converging churn.
    require_silence:
        If True, raise :class:`SimulationLimitReached` instead of
        returning a non-silent result.
    scheduler:
        Optional :class:`~repro.core.scheduler.PairScheduler` (or
        :class:`~repro.core.scheduler.EpochScheduler` timeline, or
        :class:`~repro.core.scheduler.AgentScheduler`) biasing which
        pairs interact.  ``None`` or a uniform scheduler keeps the
        paper's model and the allocation-free fast path.  A non-uniform
        state-level scheduler (epoch timelines included) routes a
        ``"jump"`` run through the **weighted jump fast path**
        (:class:`~repro.core.jump.JumpEngine` given the scheduler —
        geometric skips over a scheduler-scaled fused index; engine
        name ``weighted:<scheduler>``) whenever the scheduler compiles
        exactly; otherwise — and always for ``engine="sequential"`` —
        the run uses the per-interaction rejection
        :class:`~repro.core.scheduler.ScheduledEngine`
        (``scheduled:<scheduler>``).  Both realise the identical step
        distribution.  Agent-identity schedulers always run on the
        explicit-agent engine (``agent:<scheduler>``).
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation` counter bag the
        engine updates per chunk (off by default; zero hot-path cost
        when ``None``).  Its snapshot lands in the result's
        ``metadata["instrumentation"]``.
    backend:
        ``"python"`` (default, the tuned scalar loops) or ``"numpy"``
        (the vectorised batch kernel on uniform-scheduler jump runs;
        see :func:`build_engine` for the exact routing and fallbacks).
        Both backends realise the identical step distribution.
    """
    seed_value = seed if isinstance(seed, int) else None
    driver, engine = build_engine(
        protocol, configuration, seed, engine=engine, scheduler=scheduler,
        instrumentation=instrumentation, backend=backend,
    )
    start = time.perf_counter()
    silent = driver.run(
        max_interactions=max_interactions,
        recorder=recorder,
        max_events=max_events,
    )
    elapsed = time.perf_counter() - start
    metadata: Dict[str, object] = {}
    if instrumentation is not None:
        metadata["instrumentation"] = instrumentation.to_dict()
    result = RunResult(
        protocol_name=protocol.name,
        engine_name=engine,
        silent=silent,
        interactions=driver.interactions,
        events=driver.events,
        num_agents=protocol.num_agents,
        final_configuration=Configuration(driver.counts),
        wall_time_s=elapsed,
        seed=seed_value,
        metadata=metadata,
    )
    if require_silence and not silent:
        # A non-silent run stopped on one of its two budgets.
        if max_events is not None and result.events >= max_events:
            budget = f"max_events={max_events}"
        else:
            budget = f"max_interactions={max_interactions}"
        raise SimulationLimitReached(
            f"{protocol.name} not silent after {result.events} events and "
            f"{result.interactions} interactions ({budget} reached)"
        )
    return result
