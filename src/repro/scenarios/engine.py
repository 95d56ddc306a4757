"""Scenario execution: drive one scripted fault campaign instance.

:func:`run_scenario` interprets a :class:`~repro.scenarios.spec.Scenario`
against the simulation engines: run phases drive the engine (the jump
fast path under the uniform scheduler, the weighted jump fast path —
:class:`~repro.core.jump.JumpEngine` given the scheduler — for biased
schedulers it compiles exactly, and the rejection
:class:`~repro.core.scheduler.ScheduledEngine` otherwise), fault phases
mutate the live configuration through the fault-injection seam
(:meth:`~repro.core.jump.JumpEngine.reset_configuration`) or — for
churn, which resizes the population — rebuild protocol and engine while
keeping the generator stream, so a whole scenario remains a pure
function of its seed.

Every phase produces a :class:`PhaseLog`; the
:mod:`repro.analysis.recovery` module turns those logs into
recovery-time distributions and survival curves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.configuration import Configuration
from ..core.engine import build_engine, make_rng
from ..core.faults import (
    adversarial_swap,
    arrive_agents,
    corrupt_agents,
    crash_and_replace,
    depart_agents,
)
from ..core.protocol import PopulationProtocol, RankingProtocol
from ..core.scheduler import EpochScheduler
from ..configurations.generators import distance_from_solved
from ..exceptions import ExperimentError, ProtocolError
from ..protocols.leader import count_leaders
from .schedulers import build_epoch_scheduler, build_scheduler
from .spec import FaultPhase, RunPhase, Scenario

__all__ = ["PhaseLog", "ScenarioResult", "run_scenario"]


@dataclass(frozen=True)
class PhaseLog:
    """What one phase did to the population.

    ``interactions``/``events`` are the phase's own spend (scheduler
    steps / productive events), not cumulative totals; ``num_agents`` is
    the population size *during* the phase (after the fault, for fault
    phases), so ``parallel_time`` uses the right clock even under churn.
    ``scheduler`` names the pair-selection bias active when the phase
    ended — for epoch timelines it carries the segment and epoch index
    (``clustered@epoch1``), which is what the per-epoch recovery tables
    group by.
    """

    index: int
    kind: str  # "run" | "fault"
    label: str
    num_agents: int
    interactions: int
    events: int
    silent: bool
    stop_reason: str  # silence | predicate | events | interactions | fault
    distance: Optional[int]
    wall_time_s: float
    scheduler: str = "uniform"

    @property
    def parallel_time(self) -> float:
        """Phase duration in the paper's clock (interactions / n)."""
        return self.interactions / self.num_agents


@dataclass
class ScenarioResult:
    """One executed scenario instance: the phase timeline and the end state."""

    scenario_name: str
    protocol_name: str
    seed: Optional[int]
    phase_logs: List[PhaseLog] = field(default_factory=list)
    final_configuration: Optional[Configuration] = None
    wall_time_s: float = 0.0
    #: Logical trace records (``run_scenario(..., collect_trace=True)``)
    #: — plain dicts without a run index, which the trace merge adds;
    #: deterministic in the seed, so they survive worker round-trips.
    trace_events: List[Dict] = field(default_factory=list)

    @property
    def total_interactions(self) -> int:
        return sum(log.interactions for log in self.phase_logs)

    @property
    def total_events(self) -> int:
        return sum(log.events for log in self.phase_logs)

    @property
    def total_parallel_time(self) -> float:
        """Sum of per-phase parallel times (n may change under churn)."""
        return sum(log.parallel_time for log in self.phase_logs)

    @property
    def recovered_all(self) -> bool:
        """True iff every run phase that follows a fault reached silence."""
        return all(
            run.silent for _, run in self.recovery_pairs() if run is not None
        )

    def recovery_pairs(self) -> List[Tuple[PhaseLog, Optional[PhaseLog]]]:
        """Each fault phase paired with the next run phase (its recovery).

        Several consecutive faults share the same recovery phase; a
        trailing fault with no run phase after it pairs with ``None``.
        """
        pairs: List[Tuple[PhaseLog, Optional[PhaseLog]]] = []
        pending: List[PhaseLog] = []
        for log in self.phase_logs:
            if log.kind == "fault":
                pending.append(log)
            elif pending:
                pairs.extend((fault, log) for fault in pending)
                pending = []
        pairs.extend((fault, None) for fault in pending)
        return pairs

    def __repr__(self) -> str:
        return (
            f"ScenarioResult({self.scenario_name}, "
            f"{len(self.phase_logs)} phases, "
            f"events={self.total_events}, "
            f"recovered_all={self.recovered_all})"
        )


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
def _predicate(
    name: str, protocol: PopulationProtocol
) -> Callable[[Configuration], bool]:
    if name == "ranked":
        if not isinstance(protocol, RankingProtocol):
            raise ExperimentError(
                f"'ranked' predicate needs a ranking protocol, "
                f"got {protocol.name}"
            )
        return protocol.is_ranked
    if name == "leader":
        return lambda config: count_leaders(protocol, config) == 1
    raise ExperimentError(f"unknown predicate {name!r}")


def _resolve_state(
    spec_state: Union[int, str], protocol: PopulationProtocol
) -> int:
    """Resolve symbolic state names in fault specs against a protocol."""
    if isinstance(spec_state, str):
        if spec_state == "leader":
            return 0
        if spec_state == "first_extra":
            if (
                not isinstance(protocol, RankingProtocol)
                or protocol.num_extra_states == 0
            ):
                raise ExperimentError(
                    f"{protocol.name} has no extra states for 'first_extra'"
                )
            return protocol.num_ranks
        raise ExperimentError(
            f"unknown symbolic state {spec_state!r} "
            "(expected 'leader' or 'first_extra')"
        )
    state = int(spec_state)
    if not 0 <= state < protocol.num_states:
        raise ExperimentError(
            f"fault state {state} outside state space "
            f"[0, {protocol.num_states})"
        )
    return state


def _distance(protocol, configuration) -> Optional[int]:
    if isinstance(protocol, RankingProtocol):
        return distance_from_solved(protocol, configuration)
    return None


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
def _make_engine(
    scenario, protocol, configuration, rng, start_epoch=0,
    instrumentation=None, backend="python",
):
    """The scenario's engine, routed by :func:`~repro.core.engine.build_engine`.

    ``start_epoch`` resumes a timeline after a churn-induced rebuild.
    """
    if scenario.timeline:
        scheduler = build_epoch_scheduler(scenario, protocol)
    else:
        scheduler = build_scheduler(scenario.scheduler, protocol)
    engine, _ = build_engine(
        protocol, configuration, seed=rng, scheduler=scheduler,
        instrumentation=instrumentation, backend=backend,
        start_epoch=start_epoch,
    )
    return engine


def _scheduler_label(engine) -> str:
    """Human-readable name of the bias currently driving an engine."""
    scheduler = getattr(engine, "scheduler", None)
    if scheduler is None:
        return "uniform"
    if isinstance(scheduler, EpochScheduler):
        return f"{scheduler.segment_label(engine.epoch)}@epoch{engine.epoch}"
    return scheduler.name


def _remap_counts(
    counts: List[int],
    old_protocol: PopulationProtocol,
    new_protocol: PopulationProtocol,
    rng: np.random.Generator,
) -> List[int]:
    """Carry a configuration across a churn-induced state-space change.

    Rank states map to the same rank, extra states to the same extra
    index; agents whose state no longer exists are rebooted in uniformly
    random states of the new space (their memory is gone — exactly a
    transient fault, which self-stabilisation must absorb anyway).
    """
    new_counts = [0] * new_protocol.num_states
    displaced = 0
    if isinstance(old_protocol, RankingProtocol) and isinstance(
        new_protocol, RankingProtocol
    ):
        shared_ranks = min(old_protocol.num_ranks, new_protocol.num_ranks)
        shared_extras = min(
            old_protocol.num_extra_states, new_protocol.num_extra_states
        )
        for state, count in enumerate(counts):
            if state < shared_ranks:
                new_counts[state] += count
            elif (
                state >= old_protocol.num_ranks
                and state - old_protocol.num_ranks < shared_extras
            ):
                new_counts[
                    new_protocol.num_ranks + state - old_protocol.num_ranks
                ] += count
            else:
                displaced += count
    else:
        shared = min(len(counts), new_protocol.num_states)
        for state in range(shared):
            new_counts[state] += counts[state]
        displaced = sum(counts[shared:])
    if displaced:
        landed = rng.integers(0, new_protocol.num_states, size=displaced)
        for state in landed:
            new_counts[int(state)] += 1
    return new_counts


def _apply_fault(
    phase: FaultPhase,
    scenario: Scenario,
    protocol: PopulationProtocol,
    configuration: Configuration,
    rng: np.random.Generator,
) -> Tuple[PopulationProtocol, Configuration]:
    """Apply one fault; returns the (possibly rebuilt) protocol and config."""
    n = configuration.num_agents
    if phase.kind == "corrupt":
        return protocol, corrupt_agents(
            configuration,
            phase.victim_count(n),
            seed=rng,
            target_states=phase.target_states,
        )
    if phase.kind == "crash":
        return protocol, crash_and_replace(
            configuration,
            phase.victim_count(n),
            replacement_state=_resolve_state(phase.replacement_state, protocol),
            seed=rng,
        )
    if phase.kind == "swap":
        return protocol, adversarial_swap(
            configuration,
            _resolve_state(phase.state_a, protocol),
            _resolve_state(phase.state_b, protocol),
        )
    if phase.kind == "churn":
        # A scripted fault must do what it says or fail loudly — a
        # silently weakened fault would mislabel the recovery tables.
        new_n = n - phase.departures + phase.arrivals
        if phase.departures > n or new_n < 2:
            raise ExperimentError(
                f"churn -{phase.departures}/+{phase.arrivals} on "
                f"{n} agents would leave {new_n}; protocols need >= 2"
            )
        shrunk = depart_agents(configuration, phase.departures, seed=rng)
        # ``retier=True``: churn growing (or shrinking) n past the
        # pinned ring/line lattice window re-derives the lattice
        # parameter from the new size instead of raising; only sizes
        # *no* lattice of the family covers still fail.
        try:
            new_protocol = scenario.protocol.build(
                num_agents=new_n, retier=True
            )
        except ProtocolError as error:
            raise ExperimentError(
                f"churn resized the population to {new_n}, which no "
                f"{scenario.protocol.kind} lattice can represent: {error}"
            ) from error
        counts = _remap_counts(
            shrunk.counts_list(), protocol, new_protocol, rng
        )
        resized = Configuration(counts)
        if phase.arrivals:
            resized = arrive_agents(
                resized,
                phase.arrivals,
                _resolve_state(phase.arrival_state, new_protocol),
                seed=rng,
            )
        return new_protocol, resized
    raise ExperimentError(f"unknown fault kind {phase.kind!r}")


def _execute_run(
    engine,
    protocol: PopulationProtocol,
    phase: RunPhase,
    default_max_events: Optional[int],
) -> Tuple[bool, str]:
    """Drive the engine through one run phase; returns (silent, reason)."""
    base_events = engine.events
    base_interactions = engine.interactions
    max_events = (
        phase.max_events if phase.max_events is not None else default_max_events
    )
    event_cap = None if max_events is None else base_events + max_events
    interaction_cap = (
        None
        if phase.max_interactions is None
        else base_interactions + phase.max_interactions
    )

    if phase.until == "predicate":
        predicate = _predicate(phase.predicate, protocol)
        while True:
            if predicate(Configuration(engine.counts)):
                return engine.is_silent(), "predicate"
            chunk_cap = engine.events + phase.check_every
            if event_cap is not None:
                chunk_cap = min(chunk_cap, event_cap)
            silent = engine.run(
                max_interactions=interaction_cap, max_events=chunk_cap
            )
            if silent:
                reason = (
                    "predicate"
                    if predicate(Configuration(engine.counts))
                    else "silence"
                )
                return True, reason
            if event_cap is not None and engine.events >= event_cap:
                if predicate(Configuration(engine.counts)):
                    return False, "predicate"
                return False, "events"
            if (
                interaction_cap is not None
                and engine.interactions >= interaction_cap
            ):
                if predicate(Configuration(engine.counts)):
                    return False, "predicate"
                return False, "interactions"

    silent = engine.run(max_interactions=interaction_cap, max_events=event_cap)
    if silent:
        return True, "silence"
    if event_cap is not None and engine.events >= event_cap:
        return False, "events"
    return False, "interactions"


def run_scenario(
    scenario: Scenario,
    seed: Union[int, np.random.Generator, np.random.SeedSequence, None] = None,
    default_max_events: Optional[int] = None,
    collect_trace: bool = False,
    backend: str = "python",
    trace_observer: Optional[Callable[[Dict], None]] = None,
) -> ScenarioResult:
    """Execute one scenario instance; a pure function of ``seed``.

    ``default_max_events`` caps run phases that declare no ``max_events``
    of their own (the safety net for exploratory scenarios on schedulers
    or protocols that may not converge inside a phase).

    ``backend="numpy"`` runs uniform-scheduler phases on the vectorised
    batch kernel where the protocol supports it (biased/epoch scenarios
    keep their scalar engines); the step distribution is unchanged, and
    the fault seams (``reset_configuration``, churn rebuild) work
    identically.  An unknown backend raises
    :class:`~repro.exceptions.SimulationError`, as in ``run_protocol``.

    ``collect_trace`` additionally records the run's logical history
    (phase lifecycle, faults, engine epoch switches / resyncs /
    snapshot-restores) as plain dicts in ``result.trace_events``.
    Instrumentation never consumes randomness, so a traced run is
    bit-identical to an untraced one at the same seed, and the records
    carry no wall-clock fields — the merged trace of a campaign is the
    same whatever worker count produced it.

    ``trace_observer`` receives each logical record as it is produced —
    the live-streaming seam (``repro serve`` pushes these straight onto
    a WebSocket).  Observer exceptions are swallowed: a broken consumer
    must not corrupt the simulation.  The records land in
    ``result.trace_events`` only when ``collect_trace`` is also set, so
    pure streaming keeps results lean.
    """
    rng = make_rng(
        np.random.default_rng(seed)
        if isinstance(seed, np.random.SeedSequence)
        else seed
    )
    seed_value = seed if isinstance(seed, int) else None
    protocol = scenario.protocol.build()
    configuration = scenario.start.build(protocol, rng)
    instr = None
    trace: List[Dict] = []
    tracing = collect_trace or trace_observer is not None

    def record(payload: Dict) -> None:
        trace.append(payload)
        if trace_observer is not None:
            try:
                trace_observer(payload)
            except Exception:
                pass

    if tracing:
        from ..obs import Instrumentation

        instr = Instrumentation(trace=True)
        record(
            {
                "kind": "run_start",
                "scenario": scenario.name,
                "protocol": protocol.name,
                "num_agents": protocol.num_agents,
            }
        )

    def drain_marks(phase_index: int) -> None:
        """Fold engine marks (epoch/resync/snapshot) into the trace."""
        if instr is None or not instr.marks:
            return
        for mark in instr.marks:
            annotated = dict(mark)
            annotated["phase"] = phase_index
            record(annotated)
        instr.marks.clear()

    engine = _make_engine(
        scenario, protocol, configuration, rng, instrumentation=instr,
        backend=backend,
    )
    result = ScenarioResult(
        scenario_name=scenario.name,
        protocol_name=protocol.name,
        seed=seed_value,
    )
    start_wall = time.perf_counter()
    for index, phase in enumerate(scenario.phases):
        phase_wall = time.perf_counter()
        if isinstance(phase, RunPhase):
            label = phase.label or f"run:{phase.until}"
            if tracing:
                record(
                    {
                        "kind": "phase_start",
                        "phase": index,
                        "phase_kind": "run",
                        "label": label,
                    }
                )
            events_before = engine.events
            interactions_before = engine.interactions
            silent, reason = _execute_run(
                engine, protocol, phase, default_max_events
            )
            config_after = Configuration(engine.counts)
            log = PhaseLog(
                index=index,
                kind="run",
                label=label,
                num_agents=protocol.num_agents,
                interactions=engine.interactions - interactions_before,
                events=engine.events - events_before,
                silent=silent,
                stop_reason=reason,
                distance=_distance(protocol, config_after),
                wall_time_s=time.perf_counter() - phase_wall,
                scheduler=_scheduler_label(engine),
            )
            result.phase_logs.append(log)
        else:
            label = phase.label or f"fault:{phase.kind}"
            if tracing:
                record(
                    {
                        "kind": "phase_start",
                        "phase": index,
                        "phase_kind": "fault",
                        "label": label,
                    }
                )
            configuration = Configuration(engine.counts)
            new_protocol, new_configuration = _apply_fault(
                phase, scenario, protocol, configuration, rng
            )
            if new_protocol is protocol:
                # In-place mutation: keep the engine (and its compiled
                # tables / counters); just resync families and weight.
                engine.reset_configuration(new_configuration)
            else:
                # Churn rebuilt the protocol; the epoch timeline resumes
                # at the segment the old engine had reached (the current
                # segment's elapsed duration restarts with the rebuilt
                # engine's counters).
                protocol = new_protocol
                engine = _make_engine(
                    scenario, protocol, new_configuration, rng,
                    start_epoch=getattr(engine, "epoch", 0),
                    instrumentation=instr, backend=backend,
                )
            log = PhaseLog(
                index=index,
                kind="fault",
                label=label,
                num_agents=protocol.num_agents,
                interactions=0,
                events=0,
                silent=engine.is_silent(),
                stop_reason="fault",
                distance=_distance(protocol, new_configuration),
                wall_time_s=time.perf_counter() - phase_wall,
                scheduler=_scheduler_label(engine),
            )
            result.phase_logs.append(log)
            if tracing:
                record(
                    {
                        "kind": "fault",
                        "phase": index,
                        "label": label,
                        "fault_kind": phase.kind,
                        "num_agents": protocol.num_agents,
                        "distance": log.distance,
                    }
                )
        if tracing:
            drain_marks(index)
            log = result.phase_logs[-1]
            record(
                {
                    "kind": "phase_end",
                    "phase": index,
                    "phase_kind": log.kind,
                    "label": log.label,
                    "num_agents": log.num_agents,
                    "interactions": log.interactions,
                    "events": log.events,
                    "silent": log.silent,
                    "stop_reason": log.stop_reason,
                    "distance": log.distance,
                    "scheduler": log.scheduler,
                }
            )
    result.final_configuration = Configuration(engine.counts)
    result.wall_time_s = time.perf_counter() - start_wall
    if tracing:
        record(
            {
                "kind": "run_end",
                "recovered_all": result.recovered_all,
                "total_events": result.total_events,
            }
        )
    if collect_trace:
        result.trace_events = trace
    return result
