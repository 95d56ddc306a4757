"""Naive per-interaction simulation of the random pairwise scheduler.

Every scheduler step draws an ordered pair of distinct agents uniformly
at random and applies the transition function.  This is the literal
model from the paper, simulated without any shortcut.  It is
``O(interactions)`` and therefore only suitable for small populations —
its purpose is to cross-validate the :class:`~repro.core.jump.JumpEngine`
(same interface, same result shape) and to serve as an obviously-correct
reference in tests.

Agent identities are explicit here (a state per agent), which also makes
this engine the natural place for agent-level observations in examples.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..exceptions import SimulationError
from .configuration import Configuration
from .draws import DrawStream
from .engine import Event, Recorder, checked_counts
from .protocol import PopulationProtocol
from .snapshot import EngineSnapshot, check_snapshot

__all__ = ["SequentialEngine"]


class SequentialEngine:
    """Drives one protocol run, one interaction at a time."""

    #: Snapshot tag — subclasses (the rejection engines) override it.
    snapshot_kind = "sequential"

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Configuration,
        rng: np.random.Generator,
        instrumentation=None,
    ) -> None:
        protocol.validate_configuration(configuration)
        self._protocol = protocol
        self._n = protocol.num_agents
        self._draws = DrawStream(rng, agents=self._n)
        # Optional telemetry bag (see repro.obs); counters are flushed
        # per run from the stream's tallies, never per step.
        self._instr = instrumentation
        self.counts: List[int] = configuration.counts_list()
        # Explicit agent array: agent i holds state agent_states[i].
        self.agent_states: List[int] = []
        for state, count in enumerate(self.counts):
            self.agent_states.extend([state] * count)
        self._families = protocol.build_families(self.counts)
        self._weight = sum(family.weight for family in self._families)
        self._state_families = self._compile_state_families()
        self.interactions = 0
        self.events = 0

    def _compile_state_families(self):
        """Per-state tuple of the families whose weight the state touches.

        Count-change notifications then skip families structurally
        indifferent to a state (e.g. the reset line for rank moves)
        instead of asking every family every time.
        """
        by_state = [[] for _ in range(self._protocol.num_states)]
        for family in self._families:
            for state in family.states():
                by_state[state].append(family)
        return [tuple(families) for families in by_state]

    def _next_pair(self) -> tuple:
        """The next scheduled ordered pair of distinct agent indices —
        uniform here; the rejection subclasses filter it."""
        return self._draws.next_pair()

    @property
    def productive_weight(self) -> int:
        """Current number of productive ordered pairs ``W`` (cached)."""
        return self._weight

    def is_silent(self) -> bool:
        """True iff no productive interaction exists."""
        return self._weight == 0

    def _move_agent(self, agent: int, new_state: int) -> None:
        old_state = self.agent_states[agent]
        if old_state == new_state:
            return
        self.agent_states[agent] = new_state
        delta_w = 0
        state_families = self._state_families
        for state, old, new in (
            (old_state, self.counts[old_state], self.counts[old_state] - 1),
            (new_state, self.counts[new_state], self.counts[new_state] + 1),
        ):
            self.counts[state] = new
            for family in state_families[state]:
                delta_w += family.on_count_change(state, old, new)
        self._weight += delta_w

    def reset_configuration(self, configuration) -> None:
        """Adopt an externally mutated configuration mid-run.

        Fault-injection seam mirroring
        :meth:`repro.core.jump.JumpEngine.reset_configuration`: counts,
        agent array, families, and the cached weight are rebuilt; the
        counters and the generator stream are preserved.  The population
        size and state space must not change.
        """
        counts = checked_counts(
            configuration, self._protocol.num_states, self._n
        )
        self.counts = counts
        self.agent_states = []
        for state, count in enumerate(counts):
            self.agent_states.extend([state] * count)
        self._families = self._protocol.build_families(counts)
        self._weight = sum(family.weight for family in self._families)
        self._state_families = self._compile_state_families()
        if self._instr is not None:
            self._instr.add("resyncs")
            self._instr.mark(
                "resync", events=self.events, interactions=self.interactions
            )

    def _snapshot_fields(self) -> dict:
        """Subclass hook: extra plain-data fields for :meth:`snapshot`."""
        return {}

    def _restore_fields(self, snapshot: EngineSnapshot) -> None:
        """Subclass hook: adopt the extra fields captured above.

        Runs after the base checks and before the base fields change,
        so a hook that checks its fields before adopting them keeps a
        refused restore from changing the engine.
        """

    def snapshot(self) -> EngineSnapshot:
        """Plain-data checkpoint for bit-exact resumption.

        The explicit agent array *is* the engine's dynamical state (no
        compiled sampler to canonicalise), so a sequential snapshot is
        always state-preserving: the unconsumed pair (and acceptance)
        draws and the exact generator state travel along, and the
        restored engine continues identically to the uninterrupted one.
        """
        if self._instr is not None:
            self._instr.add("snapshots")
            self._instr.mark(
                "snapshot", events=self.events, interactions=self.interactions
            )
        return EngineSnapshot(
            kind=self.snapshot_kind,
            num_states=self._protocol.num_states,
            num_agents=self._n,
            counts=tuple(self.counts),
            interactions=self.interactions,
            events=self.events,
            agent_states=tuple(self.agent_states),
            **self._draws.capture(),
            **self._snapshot_fields(),
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Adopt a snapshot in place; continues bit-for-bit.

        Families are rebuilt from the restored counts (a deterministic,
        count-pure construction — the ``reset_configuration`` seam),
        never serialised.  Every field is checked before anything
        changes, so a refused snapshot leaves the engine as it was.
        """
        check_snapshot(
            snapshot, self.snapshot_kind, self._protocol.num_states, self._n,
            self._draws.rng.bit_generator,
        )
        if snapshot.agent_states is None:
            raise SimulationError(
                "sequential snapshot carries no agent states"
            )
        counts = [int(c) for c in snapshot.counts]
        agent_states = [int(s) for s in snapshot.agent_states]
        tally = [0] * self._protocol.num_states
        for state in agent_states:
            tally[state] += 1
        if tally != counts:
            raise SimulationError(
                "snapshot agent states disagree with its counts"
            )
        # Subclass fields first: their own checks (a timeline's epoch)
        # run before anything below changes.
        self._restore_fields(snapshot)
        self.counts = counts
        self.agent_states = agent_states
        self._families = self._protocol.build_families(counts)
        self._weight = sum(family.weight for family in self._families)
        self._state_families = self._compile_state_families()
        self.interactions = snapshot.interactions
        self.events = snapshot.events
        self._draws.restore(snapshot)
        if self._instr is not None:
            self._instr.add("restores")
            self._instr.mark(
                "restore", events=self.events, interactions=self.interactions
            )

    def step(self) -> Optional[Event]:
        """One scheduler step; returns the event if it was productive."""
        initiator, responder = self._next_pair()
        self.interactions += 1
        si = self.agent_states[initiator]
        sj = self.agent_states[responder]
        out = self._protocol.delta(si, sj)
        if out is None:
            return None
        ti, tj = out
        self._move_agent(initiator, ti)
        self._move_agent(responder, tj)
        self.events += 1
        return Event(self.interactions, si, sj, ti, tj)

    def _run_loop(
        self,
        max_interactions: Optional[int],
        recorder: Optional[Recorder],
        max_events: Optional[int],
    ) -> bool:
        """The budgeted step loop, without the recorder start/finish hooks.

        Factored out so subclasses driving several segments per run (the
        epoch-switching rejection engine) can reuse it without firing
        ``on_start``/``on_finish`` once per segment.
        """
        while True:
            if self.is_silent():
                return True
            if max_interactions is not None and self.interactions >= max_interactions:
                return False
            if max_events is not None and self.events >= max_events:
                return False
            event = self.step()
            if event is not None and recorder is not None:
                recorder.on_event(event, self.counts)

    def run(
        self,
        max_interactions: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        max_events: Optional[int] = None,
    ) -> bool:
        """Run until silence or budget exhaustion; True iff silent."""
        if recorder is not None:
            recorder.on_start(self.counts)
        events0 = self.events
        interactions0 = self.interactions
        pairs0 = self._draws.pairs_consumed()
        silent = self._run_loop(max_interactions, recorder, max_events)
        if self._instr is not None:
            self._instr.add_counters(
                events=self.events - events0,
                interactions=self.interactions - interactions0,
                pair_draws=self._draws.pairs_consumed() - pairs0,
            )
        if recorder is not None:
            recorder.on_finish(silent, self.interactions, self.counts)
        return silent

    def configuration(self) -> Configuration:
        """Snapshot of the current configuration."""
        return Configuration(self.counts)
