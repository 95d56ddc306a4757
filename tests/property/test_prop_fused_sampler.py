"""Property tests for the fused cross-family sampler.

Three invariant groups:

* the fused index's total weight equals the sum of the per-family
  weights recomputed from scratch — after arbitrary count mutations
  (driven through the engine seam) and after ``reset_configuration``;
* the weighted index realises *exactly* the rejection engine's step
  distribution: on small populations the per-pair masses enumerated
  agent-by-agent (with the 53-bit dyadic acceptance probabilities the
  rejection engine's float threshold implements) match the weighted
  index slot weights, pair by pair, as exact integers;
* the same exactness holds **across epoch boundaries**: an
  :class:`~repro.core.scheduler.EpochScheduler` run on the weighted
  engine switches to the next segment's step distribution at the
  boundary, hot-swapping precompiled indexes via ``resync`` — the
  swapped-in index must match the rejection model of the *active*
  segment pair by pair, before and after the switch;
* sampling consistency: every pair the fused index produces is
  productive under ``delta`` and covered by exactly one family;
* compiled transitions: every program the fused loop can run, on the
  uniform and on a class-scaled index, refreshes exactly the composite
  slots its states feed, has a sprint guard only when it touches
  product slots alone and changes no responder side in net, a transfer
  re-label moves exactly the transition's one agent, and the class
  moves list each class's net count change once;
* the fused loop's first event follows the exact one-step law, whether
  the pool proposal is entered on the sprint or from a routed draw, and
  so does the weighted loop's under biased, clustered and many-class
  schedulers;
* the same-state loop's count-bucket mode maps every target in
  ``[0, W)`` to its state exactly ``c(c − 1)`` times, on the first
  event and after a maintained one, and keeps its weight synced across
  mode switches and count-axis growths.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AGProtocol,
    Configuration,
    JumpEngine,
    LineOfTrapsProtocol,
    ModifiedTreeProtocol,
    RingOfTrapsProtocol,
    SingleTrapProtocol,
    TreeDispersalProtocol,
    TreeRankingProtocol,
    WeightedScheduledEngine,
    k_distant_configuration,
    random_configuration,
    run_protocol,
)
from repro.core import jump as jump_module
from repro.core.draws import BATCH, DrawStream
from repro.core.fused import (
    PRODUCT,
    PROPOSAL,
    SAME,
    SCALED,
    TRIANGULAR,
    WEIGHT_DENOMINATOR,
    FusedIndex,
    _ProductSlot,
    dyadic_weight_numerator,
)
from repro.core.jump import _transition_ops
from repro.core.scheduler import (
    EpochBoundary,
    EpochScheduler,
    ScheduledEngine,
    try_weighted_engine,
)
from repro.obs import Instrumentation
from repro.scenarios.schedulers import ClusteredScheduler, StateBiasedScheduler


def _multi_family_protocols():
    return [
        TreeRankingProtocol(13, k=3),
        ModifiedTreeProtocol(13, k=3),
        LineOfTrapsProtocol(m=2),
    ]


def _fresh_weight(protocol, counts):
    return sum(f.weight for f in protocol.build_families(counts))


class TestFusedIndexWeightInvariant:
    @pytest.mark.parametrize(
        "protocol", _multi_family_protocols(), ids=lambda p: p.name
    )
    def test_fused_total_equals_family_sum_after_runs(self, protocol):
        """The fused general loop never desyncs the flat index."""
        for seed in range(3):
            start = random_configuration(
                protocol, seed=seed, include_extras=True
            )
            engine = JumpEngine(
                protocol, start, np.random.default_rng(seed)
            )
            for _ in range(6):
                engine.run(max_events=engine.events + 200)
                assert engine.productive_weight == _fresh_weight(
                    protocol, engine.counts
                )
                assert engine._fused.total == engine.productive_weight
                if engine.is_silent():
                    break

    @given(
        moves=st.lists(
            st.tuples(st.integers(0, 18), st.integers(0, 18)),
            min_size=1,
            max_size=60,
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_total_tracks_arbitrary_count_mutations(self, moves, seed):
        """Moving agents between arbitrary states keeps the index exact."""
        protocol = TreeRankingProtocol(13, k=3)
        counts = random_configuration(
            protocol, seed=seed, include_extras=True
        ).counts_list()
        fused = FusedIndex(
            protocol.build_families(counts), protocol.num_states, counts
        )
        for source, destination in moves:
            if counts[source] == 0 or source == destination:
                continue
            fused.apply_count_change(source, counts[source], counts[source] - 1)
            counts[source] -= 1
            fused.apply_count_change(
                destination, counts[destination], counts[destination] + 1
            )
            counts[destination] += 1
            assert fused.total == _fresh_weight(protocol, counts)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reset_configuration_resyncs_fused_index(self, seed):
        protocol = TreeRankingProtocol(13, k=3)
        engine = JumpEngine(
            protocol,
            random_configuration(protocol, seed=seed, include_extras=True),
            np.random.default_rng(seed),
        )
        engine.run(max_events=150)
        rng = np.random.default_rng(seed + 1)
        scrambled = rng.multinomial(
            protocol.num_agents,
            [1 / protocol.num_states] * protocol.num_states,
        ).tolist()
        engine.reset_configuration(scrambled)
        assert engine.productive_weight == _fresh_weight(protocol, scrambled)
        # The engine must remain runnable with the recompiled index.
        engine.run(max_events=engine.events + 200)
        assert engine.productive_weight == _fresh_weight(
            protocol, engine.counts
        )

    @pytest.mark.parametrize(
        "protocol", _multi_family_protocols(), ids=lambda p: p.name
    )
    def test_sampled_pairs_are_productive(self, protocol):
        """Every fused draw must be a productive pair under delta."""
        start = random_configuration(protocol, seed=5, include_extras=True)
        engine = JumpEngine(protocol, start, np.random.default_rng(5))
        for _ in range(300):
            weight = engine.productive_weight
            if weight == 0:
                break
            si, sj = engine._fused.sample(engine._draws.rand_below)
            assert protocol.delta(si, sj) is not None
            assert engine.counts[si] >= (2 if si == sj else 1)
            if si != sj:
                assert engine.counts[sj] >= 1
            engine.step()


def _uniform_pair_masses(protocol, counts):
    """Productive ordered-pair masses enumerated straight from delta."""
    masses = {}
    for si in range(protocol.num_states):
        if counts[si] == 0:
            continue
        for sj in range(protocol.num_states):
            pairs = counts[si] * (
                counts[sj] - 1 if si == sj else counts[sj]
            )
            if pairs and protocol.delta(si, sj) is not None:
                masses[(si, sj)] = pairs
    return masses


def _reconstruct_hybrid_masses(index, counts):
    """Decompose a hybrid FusedIndex into per-pair masses, exactly.

    Pooled same-state mass comes from the proposal pool's member lists,
    tree-mode mass from the per-slot values, composite mass from the
    payload structure — together they must recover the identical step
    distribution the pure-Fenwick layout realises, whatever the current
    pool partition is.  Pool bookkeeping invariants are asserted on the
    way (member list lengths match the counts, the acceptance bound
    covers every member).
    """
    masses = {}

    def add(key, mass):
        if mass:
            masses[key] = masses.get(key, 0) + mass

    pool = index.pool
    for slot in range(index.num_slots):
        kind = index.slot_kind[slot]
        payload = index.slot_payload[slot]
        if kind == PROPOSAL:
            assert index.values[slot] == payload.weight
            total_members = 0
            for state in payload.states:
                plist = payload.positions[state]
                if plist is None:
                    continue
                count = counts[state]
                assert len(plist) == count
                assert count <= payload.mhat
                total_members += count
                add((state, state), count * (count - 1))
            assert total_members == len(payload.agents)
            assert len(payload.agents) == len(payload.where)
            for pos, state in enumerate(payload.agents):
                assert payload.positions[state][payload.where[pos]] == pos
        elif kind == SAME:
            state = payload
            if pool is not None and pool.positions[state] is not None:
                assert index.values[slot] == 0
            else:
                expected = counts[state] * (counts[state] - 1)
                assert index.values[slot] == expected
                add((state, state), expected)
        elif kind == PRODUCT:
            assert payload.init_total == sum(
                counts[s] for s in payload.initiators
            )
            assert payload.resp_total == sum(
                counts[s] for s in payload.responders
            )
            for initiator in payload.initiators:
                for responder in payload.responders:
                    add(
                        (initiator, responder),
                        counts[initiator] * counts[responder],
                    )
        elif kind == TRIANGULAR:
            line = payload.line
            for i, initiator in enumerate(line):
                ci = counts[initiator]
                if ci == 0:
                    continue
                add((initiator, initiator), ci * (ci - 1))
                for j in range(i + 1, len(line)):
                    add((initiator, line[j]), ci * counts[line[j]])
    return masses


def _reconstruct_pair_masses(index, counts):
    """Decompose a weighted index's slot weights into per-pair masses.

    Families and class blocks are disjoint, so summing each slot's
    weight over the ordered pairs it covers recovers the index's whole
    step distribution as exact integers.
    """
    reconstructed = {}

    def add(key, mass):
        if mass:
            reconstructed[key] = reconstructed.get(key, 0) + mass

    for slot in range(index.num_slots):
        kind = index.slot_kind[slot]
        payload = index.slot_payload[slot]
        if index.values[slot] == 0:
            continue
        if kind == SCALED:
            kind = PRODUCT if type(payload) is _ProductSlot else TRIANGULAR
        if kind == 0:  # same-state
            state = payload
            factor = index.same_factors[slot - index.num_composite]
            add((state, state), factor * counts[state] * (counts[state] - 1))
        elif kind == 1:  # product block (a product family or two line runs)
            for initiator in payload.initiators:
                for responder in payload.responders:
                    add(
                        (initiator, responder),
                        payload.factor * counts[initiator] * counts[responder],
                    )
        else:  # one class run of a triangular line
            factor = payload.factor
            line = payload.line
            for i, initiator in enumerate(line):
                ci = payload.counts[i]
                if ci == 0:
                    continue
                add((initiator, initiator), factor * ci * (ci - 1))
                for j in range(i + 1, len(line)):
                    add((initiator, line[j]), factor * ci * payload.counts[j])
    return reconstructed


def _pair_mass_from_rejection_model(protocol, counts, scheduler):
    """Per-pair step mass enumerated the rejection engine's way.

    For every ordered pair of *distinct agents* (enumerated through the
    counts), a draw is accepted with the dyadic probability
    ``ceil(pair_weight·2⁵³)/2⁵³``.  Returns (productive pair masses,
    total mass over all pairs) as exact integers scaled by ``2⁵³``.
    """
    productive = {}
    total = 0
    for si in range(protocol.num_states):
        if counts[si] == 0:
            continue
        for sj in range(protocol.num_states):
            pairs = counts[si] * (
                counts[sj] - 1 if si == sj else counts[sj]
            )
            if pairs == 0:
                continue
            mass = pairs * dyadic_weight_numerator(
                scheduler.pair_weight(si, sj)
            )
            total += mass
            if protocol.delta(si, sj) is not None:
                productive[(si, sj)] = mass
    return productive, total


class TestHybridSamplerExactness:
    """The hybrid proposal/Fenwick split ≡ the pure-Fenwick layout.

    Any pool partition must realise the identical step distribution —
    verified by exhaustively decomposing the hybrid index (pool member
    lists + tree values + composites) into per-pair masses and
    comparing against a straight enumeration of ``delta``'s productive
    support, as exact integers.
    """

    @pytest.mark.parametrize(
        "protocol",
        [LineOfTrapsProtocol(m=2), RingOfTrapsProtocol(m=8)],
        ids=lambda p: p.name,
    )
    @pytest.mark.parametrize("seed", [0, 4, 11])
    def test_hybrid_masses_match_delta_enumeration(self, protocol, seed):
        start = random_configuration(protocol, seed=seed, include_extras=True)
        counts = start.counts_list()
        fused = FusedIndex(
            protocol.build_families(counts), protocol.num_states, counts
        )
        expected = _uniform_pair_masses(protocol, counts)
        assert _reconstruct_hybrid_masses(fused, counts) == expected
        assert fused.total == sum(expected.values())

    @pytest.mark.parametrize(
        "protocol",
        [LineOfTrapsProtocol(m=2), RingOfTrapsProtocol(m=8)],
        ids=lambda p: p.name,
    )
    def test_hybrid_stays_exact_along_runs_and_reclassification(
        self, protocol
    ):
        """Chunked runs + forced reclassifications never desync the pool."""
        start = random_configuration(protocol, seed=3, include_extras=True)
        engine = JumpEngine(protocol, start, np.random.default_rng(3))
        for _ in range(8):
            engine.run(max_events=engine.events + 400)
            expected = _uniform_pair_masses(protocol, engine.counts)
            fused = engine._fused
            assert _reconstruct_hybrid_masses(fused, engine.counts) == expected
            assert engine.productive_weight == sum(expected.values())
            # Reclassification moves mass between the pool and the tree
            # but must not change the distribution (or the total).
            before = engine.productive_weight
            fused.reclassify(engine.counts)
            assert fused.total == before
            assert (
                _reconstruct_hybrid_masses(fused, engine.counts) == expected
            )
            if engine.is_silent():
                break

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_hybrid_exact_across_fault_resync(self, seed):
        """reset_configuration (the resync seam) reclassifies exactly."""
        protocol = LineOfTrapsProtocol(m=2)
        engine = JumpEngine(
            protocol,
            random_configuration(protocol, seed=seed, include_extras=True),
            np.random.default_rng(seed),
        )
        engine.run(max_events=300)
        scrambled = np.random.default_rng(seed + 1).multinomial(
            protocol.num_agents,
            [1 / protocol.num_states] * protocol.num_states,
        ).tolist()
        engine.reset_configuration(scrambled)
        expected = _uniform_pair_masses(protocol, scrambled)
        assert (
            _reconstruct_hybrid_masses(engine._fused, scrambled) == expected
        )
        assert engine.productive_weight == sum(expected.values())
        # The engine must keep running exactly on the resynced hybrid.
        engine.run(max_events=engine.events + 500)
        expected = _uniform_pair_masses(protocol, engine.counts)
        assert (
            _reconstruct_hybrid_masses(engine._fused, engine.counts)
            == expected
        )

    def test_fast_loop_trajectory_matches_step_driven(self):
        """The sprint/transfer fast paths apply exactly one transition
        per geometric skip — regression test for a fall-through that
        double-applied pool-to-pool transfers (interactions would halve
        relative to the step-driven generic path)."""
        protocol = LineOfTrapsProtocol(m=2)
        start = random_configuration(protocol, seed=2, include_extras=True)
        fast_interactions, step_interactions = [], []
        for seed in range(30):
            engine = JumpEngine(protocol, start, np.random.default_rng(seed))
            assert engine.run()
            fast_interactions.append(engine.interactions)
            engine = JumpEngine(
                protocol, start, np.random.default_rng(seed + 700)
            )
            while engine.step() is not None:
                pass
            step_interactions.append(engine.interactions)
        ratio = np.median(fast_interactions) / np.median(step_interactions)
        assert 0.7 < ratio < 1.45, f"median interactions ratio {ratio}"

    def test_sampled_pairs_follow_slot_weights(self):
        """Pool draws land on weighted members only, ∝ c(c−1) support."""
        protocol = LineOfTrapsProtocol(m=2)
        start = random_configuration(protocol, seed=1, include_extras=True)
        engine = JumpEngine(protocol, start, np.random.default_rng(1))
        fused = engine._fused
        for _ in range(300):
            if engine.is_silent():
                break
            si, sj = fused.sample(engine._draws.rand_below)
            assert protocol.delta(si, sj) is not None
            assert engine.counts[si] >= (2 if si == sj else 1)
            engine.step()


def _chi2_sf(stat, dof):
    """Upper tail ``P(X ≥ stat)`` of the chi-square law with ``dof``
    degrees of freedom (closed forms of the incomplete gamma)."""
    half = stat / 2.0
    if dof % 2 == 0:
        term = total = math.exp(-half)
        for k in range(1, dof // 2):
            term *= half / k
            total += term
        return total
    total = math.erfc(math.sqrt(half))
    term = math.exp(-half) * math.sqrt(half) / math.gamma(1.5)
    for k in range((dof - 1) // 2):
        total += term
        term *= half / (k + 1.5)
    return total


def _one_step_law(protocol, counts, masses=None):
    """Exact law of the count vector after one productive event, from
    per-pair step masses (the uniform scheduler's by default)."""
    if masses is None:
        masses = _uniform_pair_masses(protocol, counts)
    law = Counter()
    for (si, sj), mass in masses.items():
        ti, tj = protocol.delta(si, sj)
        after = list(counts)
        for state, delta in _transition_ops(si, sj, ti, tj):
            after[state] += delta
        law[tuple(after)] += mass
    return law


def _chi2_cells(seen, law, draws):
    """Pearson statistic and cell count of ``draws`` observed outcomes
    against an exact law; outcomes expected fewer than 5 times are
    pooled into one cell."""
    total = sum(law.values())
    stat = 0.0
    cells = 0
    rest_expected = 0.0
    rest_seen = 0
    for outcome, mass in law.items():
        expected = draws * mass / total
        if expected < 5:
            rest_expected += expected
            rest_seen += seen[outcome]
            continue
        stat += (seen[outcome] - expected) ** 2 / expected
        cells += 1
    if rest_expected:
        stat += (rest_seen - rest_expected) ** 2 / rest_expected
        cells += 1
    return stat, cells


def _composite_feeds(fused):
    """``state -> [(slot, side), …]`` over the composite slots each
    state feeds, in slot order, read from the slot payloads: ``side``
    is ``"initiator"`` or ``"responder"`` for a product slot, the slot
    kind's name otherwise."""
    feeds = {}
    for slot in range(fused.num_composite):
        kind = fused.slot_kind[slot]
        payload = fused.slot_payload[slot]
        if kind == SCALED:
            kind = PRODUCT if type(payload) is _ProductSlot else TRIANGULAR
        if kind == PRODUCT:
            members = [(s, "initiator") for s in payload.initiators]
            members += [(s, "responder") for s in payload.responders]
        elif kind == TRIANGULAR:
            members = [(s, "triangular") for s in payload.line]
        else:
            continue  # the pool: fed through the same-state steps
        for state, side in members:
            feeds.setdefault(state, []).append((slot, side))
    return feeds


class TestFusedLoopPrograms:
    @pytest.mark.parametrize(
        "protocol",
        [
            AGProtocol(8),
            RingOfTrapsProtocol(m=4),
            SingleTrapProtocol(inner_size=16, num_agents=40),
            LineOfTrapsProtocol(m=2),
            TreeRankingProtocol(33, k=2),
            ModifiedTreeProtocol(33, k=2),
            TreeDispersalProtocol(33),
        ],
        ids=lambda p: p.name,
    )
    def test_programs_change_exactly_the_transition_counts(self, protocol):
        """``refresh`` is every composite slot the transition's states
        feed, each once, in first-touch order.  A sprint guard lists
        each touched product slot once with its net initiator delta,
        and only a transition touching no triangular slot and leaving
        every product's responder side unchanged in net has one
        (a tree rank moving to another rank touches two responder
        states of the reset product, net zero).  A ``transfer``
        re-label moves exactly the transition's one agent — a state
        with no same-state slot (an absorbing exit, a leaf) must still
        move.  Every check also runs on the index scaled by a two-class
        partition, which has no pool and so no transfer; its ``moves``
        list each class's net count change once, in first-touch order,
        with the class's matrix column, and the unscaled index has
        none."""
        counts = Configuration.all_in_state(
            0, protocol.num_agents, protocol.num_states
        ).counts_list()
        families = protocol.build_families(counts)
        class_of = [state % 2 for state in range(protocol.num_states)]
        matrix = [[2, 3], [5, 7]]
        for fused in (
            FusedIndex(families, protocol.num_states, counts),
            FusedIndex(
                families, protocol.num_states, counts, class_of, matrix
            ),
        ):
            scaled = fused.class_of is not None
            feeds = _composite_feeds(fused)
            for family in families:
                for si, sj in family.pairs():
                    ops = _transition_ops(si, sj, *protocol.delta(si, sj))
                    refresh, prods, transfer, moves = (
                        fused.compile_transition(ops)
                    )
                    touched = [
                        (slot, side, delta)
                        for state, delta in ops
                        for slot, side in feeds.get(state, ())
                    ]
                    first_touch = list(
                        dict.fromkeys(s for s, _, _ in touched)
                    )
                    assert list(refresh) == first_touch, (si, sj)
                    if prods is not None:
                        net = {
                            side: dict.fromkeys(first_touch, 0)
                            for side in ("initiator", "responder")
                        }
                        for slot, side, delta in touched:
                            assert side in net, (si, sj)  # a product slot
                            net[side][slot] += delta
                        assert not any(net["responder"].values()), (si, sj)
                        assert list(prods) == list(
                            net["initiator"].items()
                        ), (si, sj)
                    if transfer is not None:
                        assert not scaled, (si, sj)
                        src, dst = transfer[:2]
                        assert sorted(ops) == sorted(
                            [(src, -1), (dst, 1)]
                        ), (si, sj)
                    classes = {}
                    for state, delta in ops if scaled else ():
                        cls = class_of[state]
                        classes[cls] = classes.get(cls, 0) + delta
                    assert list(moves) == [
                        (cls, delta, tuple(row[cls] for row in matrix))
                        for cls, delta in classes.items()
                        if delta
                    ], (si, sj)

    @pytest.mark.parametrize(
        "extras, entry",
        [(False, "sprint"), (True, "routed")],
        ids=["sprint", "routed"],
    )
    def test_first_event_follows_the_exact_one_step_law(self, extras, entry):
        """Chi-square of the post-event count vector against
        ``c_i(c_j − [i=j])/W``, at α = 10⁻³.  Without extras the pool
        holds all the weight, so every first event sprints; with them
        the target is routed, and part of the draws land on the pool."""
        protocol = LineOfTrapsProtocol(m=2)
        start = random_configuration(protocol, seed=0, include_extras=extras)
        law = _one_step_law(protocol, start.counts_list())
        instr = Instrumentation()
        engine = JumpEngine(
            protocol, start, np.random.default_rng(5),
            instrumentation=instr,
        )
        draws = 1000
        seen = Counter()
        for _ in range(draws):
            engine.reset_configuration(start)
            engine.run(max_events=engine.events + 1)
            seen[tuple(engine.counts)] += 1
        assert set(seen) <= set(law)
        if entry == "sprint":
            assert instr.get("sprint_events") == draws
        else:
            assert instr.get("sprint_events") == 0
            assert instr.get("pool_draws") > 0
        stat, cells = _chi2_cells(seen, law, draws)
        assert cells > 1
        assert _chi2_sf(stat, cells - 1) > 1e-3, (stat, cells)


def _near_silent_ring():
    # Counts 3, 2, 2 on states 2, 3, 7 (W = 10): state 3's rule moves
    # an agent onto state 2, whose count 4 outgrows the 4-slot axis.
    protocol = RingOfTrapsProtocol(m=4)
    counts = [1] * protocol.num_states
    counts[2], counts[3], counts[7] = 3, 2, 2
    for state in (10, 11, 16, 17):
        counts[state] = 0
    return protocol, counts


def _ag_start():
    # Two events of state 1 take state 2 from 2 to 4 agents.
    protocol = AGProtocol(12)
    return protocol, [0, 3, 2, 1, 1, 1, 1, 1, 0, 1, 1, 0]


def _count_four_start():
    # Maximum count 4, the smallest count that needs an 8-slot axis.
    protocol = AGProtocol(16)
    return protocol, [4, 0, 2] + [1] * 10 + [0] * 3


def _trap_pile_up(inner, n):
    protocol = SingleTrapProtocol(inner, n)
    return protocol, Configuration.all_in_state(
        protocol.trap.top, n, protocol.num_states
    )


def _pile_up(protocol):
    return protocol, Configuration.all_in_state(
        0, protocol.num_agents, protocol.num_states
    )


def _k_distant(protocol, k):
    return protocol, k_distant_configuration(protocol, k, seed=3)


def _fired_state(before, after):
    """The one state a same-state event took agents from."""
    (state,) = [s for s, (b, a) in enumerate(zip(before, after)) if a < b]
    return state


def _count_growths(monkeypatch):
    """Record each count-axis growth of the same-state loop."""
    growths = []
    grow = jump_module._grow_count_axis

    def spy(axis, buckets, count):
        growths.append(count)
        return grow(axis, buckets, count)

    monkeypatch.setattr(jump_module, "_grow_count_axis", spy)
    return growths


class TestCountBucketSampler:
    """The same-state loop's low-acceptance mode, target by target.

    Every raw of the loop's batch is patched to one target ``t``, so
    each run is a deterministic function of ``t``: walking every
    ``t ∈ [0, W)`` must hit each rule state ``s`` exactly
    ``c_s(c_s − 1)`` times — the exact law, with no rejection.
    """

    @staticmethod
    def _map(engine, raws, start, prefix, targets):
        """The counts after one run per target ``t``, each from ``start``
        with the raw batch ``prefix + [t, t, …]`` (served through
        ``raws``), one event past the prefix."""
        events = len(prefix) + 1
        outcomes = []
        for target in targets:
            engine.reset_configuration(start)
            raws[:] = prefix + [target] * (BATCH - len(prefix))
            engine.run(max_events=engine.events + events)
            outcomes.append(list(engine.counts))
        return outcomes

    @staticmethod
    def _exact(protocol, before, outcomes):
        fired = Counter(_fired_state(before, after) for after in outcomes)
        assert fired == {
            s: c * (c - 1)
            for s, c in enumerate(before)
            if c > 1 and protocol.delta(s, s) is not None
        }
        assert Counter(tuple(after) for after in outcomes) == _one_step_law(
            protocol, before
        )

    @pytest.mark.parametrize(
        "setup, grows",
        [(_near_silent_ring, True), (_ag_start, True),
         (_count_four_start, False)],
        ids=["ring-m4", "ag-n12", "max-count-4"],
    )
    def test_every_target_picks_its_state_exactly(
        self, setup, grows, monkeypatch
    ):
        """The map of the first event checks the bucket build; the map
        of the second, after each distinct first event, checks the
        bucket moves.  The ring's first event and the AG start's second
        can outgrow the 4-slot axis; the last start opens on 8 slots."""
        protocol, start = setup()
        growths = _count_growths(monkeypatch)
        raws = []
        monkeypatch.setattr(DrawStream, "raw_batch", lambda self: raws)
        instr = Instrumentation()
        engine = JumpEngine(
            protocol, Configuration(start), np.random.default_rng(0),
            instrumentation=instr,
        )
        weight = engine.productive_weight
        first = self._map(engine, raws, start, [], range(weight))
        self._exact(protocol, start, first)
        assert instr.get("fenwick_mode_events") == weight
        runs = weight
        representatives = {}
        for t1, after in enumerate(first):
            representatives.setdefault(_fired_state(start, after), t1)
        for t1 in representatives.values():
            after = first[t1]
            weight1 = _fresh_weight(protocol, after)
            second = self._map(engine, raws, start, [t1], range(weight1))
            self._exact(protocol, after, second)
            runs += 2 * weight1
        assert instr.get("fenwick_mode_events") == runs
        assert instr.get("proposal_mode_events") == 0
        assert bool(growths) == grows

    @pytest.mark.parametrize(
        "setup, total, switches",
        [
            (lambda: _trap_pile_up(16, 512), 20000, True),
            (lambda: _pile_up(AGProtocol(64)), 3000, True),
            (lambda: _pile_up(RingOfTrapsProtocol(m=8)), 3000, True),
            (lambda: _k_distant(RingOfTrapsProtocol(m=20), 30), 4000, False),
            (lambda: _k_distant(AGProtocol(300), 60), 2000, False),
        ],
        ids=["trap-pile-up", "ag-pile-up", "ring-pile-up",
             "ring-k-distant", "ag-k-distant"],
    )
    def test_weight_stays_synced_across_switches_and_growth(
        self, setup, total, switches, monkeypatch
    ):
        """Chunked runs through mode switches and axis growths keep the
        loop's weight equal to the re-summed family weight."""
        protocol, start = setup()
        growths = _count_growths(monkeypatch)
        instr = Instrumentation()
        engine = JumpEngine(
            protocol, start, np.random.default_rng(11), instrumentation=instr
        )
        while engine.events < total and not engine.is_silent():
            engine.run(max_events=min(total, engine.events + 3001))
            assert engine.productive_weight == _fresh_weight(
                protocol, engine.counts
            )
            assert min(engine.counts) >= 0
        assert instr.get("fenwick_mode_events") > 0
        assert (instr.get("mode_switches") > 0) == switches
        assert growths


def _many_class_scheduler(protocol):
    # Nine distinct high weights: the only exact-mass input with more
    # than three weight classes.
    return StateBiasedScheduler(
        [0.80 + 0.02 * (s % 9) for s in range(protocol.num_states)]
    )


class TestWeightedIndexMatchesRejectionDistribution:
    @pytest.mark.parametrize(
        "make_scheduler",
        [
            lambda p: StateBiasedScheduler(
                [1.0] * p.num_ranks + [0.3] * p.num_extra_states
            ),
            lambda p: StateBiasedScheduler(
                [0.7] * p.num_ranks + [0.05] * p.num_extra_states
            ),
            lambda p: ClusteredScheduler(p.num_states, 3, across=0.05),
        ],
        ids=["biased-0.3", "biased-0.05", "clustered"],
    )
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_exhaustive_pair_masses_match(self, make_scheduler, seed):
        """Weighted index ≡ rejection model, pair by pair, exactly."""
        protocol = TreeRankingProtocol(9, k=2)
        counts = random_configuration(
            protocol, seed=seed, include_extras=True
        ).counts_list()
        scheduler = make_scheduler(protocol)
        engine = WeightedScheduledEngine(
            protocol,
            Configuration(counts),
            np.random.default_rng(seed),
            scheduler,
        )
        expected, expected_total = _pair_mass_from_rejection_model(
            protocol, counts, scheduler
        )
        assert engine.total_mass() == expected_total
        assert engine.productive_weight == sum(expected.values())
        # Pair-level check: decompose every slot's weight over the
        # pairs it covers (families and class blocks are disjoint) and
        # compare against the agent-enumerated masses, exactly.
        assert _reconstruct_pair_masses(engine._index, counts) == expected

    def test_pile_up_masses_stay_exact_past_int64(self):
        """A same-state slot of 64 agents weighs ``u·64·63 > 2⁶³``: the
        build and the resync keep such weights exact."""
        protocol = TreeRankingProtocol(64, k=2)
        scheduler = StateBiasedScheduler(
            [1.0] * protocol.num_ranks + [0.3] * protocol.num_extra_states
        )

        def pile(state):
            return Configuration.all_in_state(
                state, protocol.num_agents, protocol.num_states
            ).counts_list()

        def assert_exact(counts):
            expected, expected_total = _pair_mass_from_rejection_model(
                protocol, counts, scheduler
            )
            assert max(engine._index.values) >= 1 << 63
            assert engine.total_mass() == expected_total
            assert engine.productive_weight == sum(expected.values())
            assert _reconstruct_pair_masses(engine._index, counts) == expected

        engine = WeightedScheduledEngine(
            protocol, Configuration(pile(0)), np.random.default_rng(0),
            scheduler,
        )
        assert_exact(pile(0))
        engine.reset_configuration(pile(1))
        assert_exact(pile(1))

    def test_trivial_weights_reduce_to_uniform_masses(self):
        """All-1.0 weights: every mass is count-pairs × 2⁵³ exactly."""
        protocol = TreeRankingProtocol(9, k=2)
        counts = random_configuration(
            protocol, seed=2, include_extras=True
        ).counts_list()
        scheduler = StateBiasedScheduler([1.0] * protocol.num_states)
        engine = WeightedScheduledEngine(
            protocol, Configuration(counts), np.random.default_rng(0),
            scheduler,
        )
        uniform = FusedIndex(
            protocol.build_families(counts), protocol.num_states, counts
        )
        assert engine.productive_weight == uniform.total * WEIGHT_DENOMINATOR
        n = protocol.num_agents
        assert engine.total_mass() == n * (n - 1) * WEIGHT_DENOMINATOR

    @pytest.mark.parametrize(
        "make_scheduler",
        [
            lambda p: StateBiasedScheduler(
                [1.0] * p.num_ranks + [0.2] * p.num_extra_states
            ),
            _many_class_scheduler,
        ],
        ids=["biased-0.2", "many-class"],
    )
    @given(
        warmup=st.integers(0, 80),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_masses_stay_exact_along_biased_runs(
        self, make_scheduler, warmup, seed
    ):
        """Incremental class sums / slots never drift from enumeration,
        pair by pair, and ``step()`` continues from the loop's index."""
        protocol = TreeRankingProtocol(9, k=2)
        scheduler = make_scheduler(protocol)
        engine = WeightedScheduledEngine(
            protocol,
            random_configuration(protocol, seed=seed, include_extras=True),
            np.random.default_rng(seed),
            scheduler,
        )
        engine.run(max_events=warmup)
        expected, expected_total = _pair_mass_from_rejection_model(
            protocol, engine.counts, scheduler
        )
        assert engine.total_mass() == expected_total
        assert engine.productive_weight == sum(expected.values())
        assert (
            _reconstruct_pair_masses(engine._index, engine.counts) == expected
        )
        if not engine.is_silent():
            assert engine.step() is not None
            assert engine.productive_weight == sum(
                _pair_mass_from_rejection_model(
                    protocol, engine.counts, scheduler
                )[0].values()
            )

    def test_reset_configuration_resyncs_weighted_index(self):
        protocol = TreeRankingProtocol(9, k=2)
        scheduler = StateBiasedScheduler(
            [1.0] * protocol.num_ranks + [0.4] * protocol.num_extra_states
        )
        engine = WeightedScheduledEngine(
            protocol,
            random_configuration(protocol, seed=4, include_extras=True),
            np.random.default_rng(4),
            scheduler,
        )
        engine.run(max_events=50)
        scrambled = np.random.default_rng(5).multinomial(
            protocol.num_agents,
            [1 / protocol.num_states] * protocol.num_states,
        ).tolist()
        engine.reset_configuration(scrambled)
        expected, expected_total = _pair_mass_from_rejection_model(
            protocol, scrambled, scheduler
        )
        assert engine.total_mass() == expected_total
        assert engine.productive_weight == sum(expected.values())
        assert engine.run(max_events=100_000)


class TestWeightedEngineBehaviour:
    def test_weighted_matches_rejection_medians(self):
        """Both biased engines agree distributionally (small population)."""
        protocol = TreeRankingProtocol(9, k=2)
        scheduler = StateBiasedScheduler(
            [1.0] * protocol.num_ranks + [0.25] * protocol.num_extra_states
        )
        start = random_configuration(protocol, seed=0, include_extras=True)
        weighted, rejection = [], []
        for seed in range(30):
            w = run_protocol(protocol, start, seed=seed, scheduler=scheduler)
            r = run_protocol(
                protocol, start, seed=seed + 1000, engine="sequential",
                scheduler=scheduler,
            )
            assert w.engine_name == "weighted:state_biased"
            assert r.engine_name == "scheduled:state_biased"
            assert w.silent and r.silent
            weighted.append(w.parallel_time)
            rejection.append(r.parallel_time)
        ratio = np.median(weighted) / np.median(rejection)
        assert 0.6 < ratio < 1.7, f"median parallel-time ratio {ratio}"

    @pytest.mark.parametrize(
        "make_scheduler",
        [
            lambda p: StateBiasedScheduler(
                [1.0] * p.num_ranks + [0.3] * p.num_extra_states
            ),
            lambda p: ClusteredScheduler(p.num_states, 3, across=0.05),
            _many_class_scheduler,
        ],
        ids=["biased-0.3", "clustered", "many-class"],
    )
    def test_first_event_follows_the_exact_one_step_law(
        self, make_scheduler
    ):
        """Chi-square of the inlined weighted loop's first event against
        the rejection model's exact one-step law, at α = 10⁻³.  The
        clustered and many-class schedulers cut the reset line into 2
        and 4 class runs, so draws also land in run and cross-run
        slots.  The start puts four agents on three reset-line states,
        and its law has 15 outcomes, each expected at least 5 times."""
        protocol = TreeRankingProtocol(9, k=2)
        start = random_configuration(protocol, seed=15, include_extras=True)
        scheduler = make_scheduler(protocol)
        counts = start.counts_list()
        masses, _ = _pair_mass_from_rejection_model(
            protocol, counts, scheduler
        )
        law = _one_step_law(protocol, counts, masses)
        instr = Instrumentation()
        draws = 1000
        seen = Counter()
        for seed in range(draws):
            engine = WeightedScheduledEngine(
                protocol, start, np.random.default_rng(seed), scheduler,
                instrumentation=instr,
            )
            engine.run(max_events=1)
            seen[tuple(engine.counts)] += 1
        assert set(seen) <= set(law)
        assert instr.get("weighted_events") == draws
        stat, cells = _chi2_cells(seen, law, draws)
        assert cells > 1
        assert _chi2_sf(stat, cells - 1) > 1e-3, (stat, cells)

    def test_weighted_engine_deterministic(self):
        protocol = LineOfTrapsProtocol(m=2)
        scheduler = StateBiasedScheduler(
            [1.0] * protocol.num_ranks + [0.5]
        )
        start = random_configuration(protocol, seed=6, include_extras=True)
        runs = [
            run_protocol(
                protocol, start, seed=11, scheduler=scheduler,
                max_events=5_000,
            )
            for _ in range(2)
        ]
        assert runs[0].final_configuration == runs[1].final_configuration
        assert runs[0].interactions == runs[1].interactions

    def test_silence_on_the_last_budgeted_event_is_reported(self):
        """A run that goes silent on its last budgeted event returns
        True, as the uniform jump engine does, and so does the result."""
        protocol = TreeRankingProtocol(9, k=2)
        start = random_configuration(protocol, seed=3, include_extras=True)
        scheduler = StateBiasedScheduler(
            [1.0] * protocol.num_ranks + [0.3] * protocol.num_extra_states
        )
        engine = WeightedScheduledEngine(
            protocol, start, np.random.default_rng(5), scheduler
        )
        assert engine.run(max_events=42) is True
        assert engine.events == 42
        assert engine.is_silent()
        result = run_protocol(
            protocol, start, seed=5, scheduler=scheduler, max_events=42
        )
        assert result.events == 42
        assert result.silent

    def test_many_class_scalar_scheduler_runs_weighted(self):
        """Twenty weight classes at high acceptance compile, so the
        weighted loop runs them."""
        protocol = TreeRankingProtocol(13, k=3)
        weights = [0.80 + 0.01 * (s % 20) for s in range(protocol.num_states)]
        result = run_protocol(
            protocol,
            random_configuration(protocol, seed=2, include_extras=True),
            seed=2,
            scheduler=StateBiasedScheduler(weights),
            max_events=500,
        )
        assert result.engine_name == "weighted:state_biased"

    def test_unsupported_scheduler_falls_back_to_rejection(self):
        """A scheduler exceeding the class cap still runs (rejection)."""
        from repro import AGProtocol

        class AwkwardScheduler(StateBiasedScheduler):
            # Distinct per-state weights and no declared classes: the
            # dense derivation finds one class per state, blowing the
            # weighted index's class cap.
            def state_classes(self, num_states):
                return None

            def pair_weight(self, si, sj):
                return (
                    self._weights[si]
                    * self._weights[sj]
                )

        protocol = AGProtocol(70)
        scheduler = AwkwardScheduler(
            [1.0 - 0.005 * s for s in range(protocol.num_states)]
        )
        engine = try_weighted_engine(
            protocol,
            random_configuration(protocol, seed=0),
            np.random.default_rng(0),
            scheduler,
        )
        # 70 distinct classes exceed the cap → weighted path refuses.
        assert engine is None
        result = run_protocol(
            protocol,
            random_configuration(protocol, seed=0),
            seed=0,
            scheduler=scheduler,
            max_events=300,
        )
        assert result.engine_name.startswith("scheduled:")

    def test_weighted_engine_rejects_custom_families(self):
        """Opaque families cannot be weighted exactly → rejection."""
        from repro.core.families import SameStatePairs

        class Wrapped(SameStatePairs):
            pass

        class CustomFamilyProtocol(TreeRankingProtocol):
            def build_families(self, counts):
                return [
                    Wrapped(counts, list(range(self.num_ranks)))
                ] + super().build_families(counts)[1:]

        protocol = CustomFamilyProtocol(9, k=2)
        scheduler = StateBiasedScheduler([0.9] * protocol.num_states)
        engine = try_weighted_engine(
            protocol,
            random_configuration(protocol, seed=1),
            np.random.default_rng(1),
            scheduler,
        )
        assert engine is None

    def test_rejection_and_weighted_agree_under_scheduled_engine_model(self):
        """ScheduledEngine's empirical acceptance matches the dyadics.

        Spot-check the exactness premise itself: the probability that a
        53-bit uniform threshold falls below a float weight w is
        ceil(w·2⁵³)/2⁵³.
        """
        for weight in (0.05, 0.25, 1.0 / 3.0, 0.999, 1.0):
            numerator = dyadic_weight_numerator(weight)
            assert 1 <= numerator <= WEIGHT_DENOMINATOR
            # k/2⁵³ < w  ⇔  k < w·2⁵³  ⇔  k <= ceil(w·2⁵³) − 1
            below = numerator - 1
            assert below / WEIGHT_DENOMINATOR < weight
            assert numerator / WEIGHT_DENOMINATOR >= weight


def _epoch_timeline(protocol, boundary_events):
    """A two-segment timeline whose bias flips after `boundary_events`."""
    before = StateBiasedScheduler(
        [1.0] * protocol.num_ranks + [0.2] * protocol.num_extra_states
    )
    # Three clusters cut the reset line across class boundaries, so the
    # swapped-in index exercises the line's run and cross-run slots.
    after = ClusteredScheduler(protocol.num_states, 3, across=0.05)
    timeline = EpochScheduler([
        (EpochBoundary(kind="events", value=boundary_events), before),
        (None, after),
    ])
    return before, after, timeline


class TestEpochSchedulerExactness:
    """The weighted engine ≡ the rejection reference across boundaries."""

    @given(
        post=st.integers(1, 60),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_step_distribution_switches_exactly_at_boundary(self, post, seed):
        """Active masses match the active segment's rejection model.

        Before the boundary the engine's exact step distribution must
        be segment 1's; after crossing it (a hot-swap of precompiled
        indexes via ``resync``) it must be segment 2's — both verified
        by exhaustive agent-level enumeration, as exact integers.
        """
        protocol = TreeRankingProtocol(9, k=2)
        boundary = 40
        before, after, timeline = _epoch_timeline(protocol, boundary)
        engine = WeightedScheduledEngine(
            protocol,
            random_configuration(protocol, seed=seed, include_extras=True),
            np.random.default_rng(seed),
            timeline,
        )
        engine.run(max_events=boundary // 2)
        active = before if engine.epoch == 0 else after
        expected, expected_total = _pair_mass_from_rejection_model(
            protocol, engine.counts, active
        )
        assert engine.total_mass() == expected_total
        assert engine.productive_weight == sum(expected.values())
        assert (
            _reconstruct_pair_masses(engine._index, engine.counts) == expected
        )
        # Cross the boundary (unless the run silenced first).
        engine.run(max_events=boundary + post)
        if engine.events < boundary:
            assert engine.epoch == 0
            return
        assert engine.epoch == 1
        expected, expected_total = _pair_mass_from_rejection_model(
            protocol, engine.counts, after
        )
        assert engine.total_mass() == expected_total
        assert engine.productive_weight == sum(expected.values())
        assert (
            _reconstruct_pair_masses(engine._index, engine.counts) == expected
        )

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_hot_swapped_index_equals_fresh_compile(self, seed):
        """resync-on-swap produces the same index a fresh build would."""
        protocol = TreeRankingProtocol(9, k=2)
        _, after, timeline = _epoch_timeline(protocol, 30)
        engine = WeightedScheduledEngine(
            protocol,
            random_configuration(protocol, seed=seed, include_extras=True),
            np.random.default_rng(seed),
            timeline,
        )
        engine.run(max_events=45)
        if engine.epoch != 1:
            return
        fresh = WeightedScheduledEngine(
            protocol,
            Configuration(engine.counts),
            np.random.default_rng(0),
            after,
        )
        assert engine.productive_weight == fresh.productive_weight
        assert engine.total_mass() == fresh.total_mass()
        assert _reconstruct_pair_masses(
            engine._index, engine.counts
        ) == _reconstruct_pair_masses(fresh._index, engine.counts)

    def test_rejection_reference_swaps_at_the_same_boundary(self):
        """The rejection engine's active matrix flips at the boundary."""
        protocol = TreeRankingProtocol(9, k=2)
        before, after, timeline = _epoch_timeline(protocol, 40)
        engine = ScheduledEngine(
            protocol,
            random_configuration(protocol, seed=2, include_extras=True),
            np.random.default_rng(2),
            timeline,
        )
        engine.run(max_events=20)
        assert engine.epoch == 0
        assert np.array_equal(
            engine._weights, before.weight_matrix(protocol.num_states)
        )
        engine.run(max_events=60)
        if engine.events >= 40:
            assert engine.epoch == 1
            assert engine.current_scheduler is after
            assert np.array_equal(
                engine._weights, after.weight_matrix(protocol.num_states)
            )

    def test_fault_then_boundary_stays_exact(self):
        """reset_configuration mid-timeline composes with the hot swap."""
        protocol = TreeRankingProtocol(9, k=2)
        _, after, timeline = _epoch_timeline(protocol, 50)
        engine = WeightedScheduledEngine(
            protocol,
            random_configuration(protocol, seed=6, include_extras=True),
            np.random.default_rng(6),
            timeline,
        )
        engine.run(max_events=10)
        scrambled = np.random.default_rng(7).multinomial(
            protocol.num_agents,
            [1 / protocol.num_states] * protocol.num_states,
        ).tolist()
        engine.reset_configuration(scrambled)
        engine.run(max_events=80)
        if engine.epoch != 1:
            return
        expected, expected_total = _pair_mass_from_rejection_model(
            protocol, engine.counts, after
        )
        assert engine.total_mass() == expected_total
        assert engine.productive_weight == sum(expected.values())
        assert (
            _reconstruct_pair_masses(engine._index, engine.counts) == expected
        )

    def test_weighted_matches_rejection_medians_across_boundary(self):
        """Both engines agree distributionally under the same timeline.

        Times-to-silence on this timeline are heavy-tailed (the
        clustered segment occasionally wanders long), so the check uses
        a decent sample and generous bounds — the *exact* agreement is
        carried by the pair-mass enumeration tests above; this one only
        guards against gross distributional drift.
        """
        protocol = TreeRankingProtocol(9, k=2)
        start = random_configuration(protocol, seed=0, include_extras=True)
        weighted, rejection = [], []
        for seed in range(60):
            _, _, timeline = _epoch_timeline(protocol, 40)
            w = WeightedScheduledEngine(
                protocol, start, np.random.default_rng(seed), timeline
            )
            assert w.run(max_events=10**6)
            _, _, timeline = _epoch_timeline(protocol, 40)
            r = ScheduledEngine(
                protocol, start, np.random.default_rng(seed + 1000), timeline
            )
            assert r.run(max_events=10**6)
            weighted.append(w.interactions)
            rejection.append(r.interactions)
        ratio = np.median(weighted) / np.median(rejection)
        assert 0.35 < ratio < 2.8, f"median interactions ratio {ratio}"

    def test_unsupported_segment_sends_whole_timeline_to_rejection(self):
        """One uncompilable segment -> rejection runs the full timeline."""
        from repro import AGProtocol

        class Opaque(StateBiasedScheduler):
            def state_classes(self, num_states):
                return None

        protocol = AGProtocol(70)
        fine = StateBiasedScheduler([0.5] * protocol.num_states)
        awkward = Opaque([1.0 - 0.005 * s for s in range(protocol.num_states)])
        timeline = EpochScheduler([
            (EpochBoundary(kind="events", value=10), fine),
            (None, awkward),
        ])
        engine = try_weighted_engine(
            protocol,
            random_configuration(protocol, seed=0),
            np.random.default_rng(0),
            timeline,
        )
        assert engine is None
        result = run_protocol(
            protocol,
            random_configuration(protocol, seed=0),
            seed=0,
            scheduler=timeline,
            max_events=50,
        )
        assert result.engine_name.startswith("scheduled:epoch(")

    @pytest.mark.parametrize(
        "engine_cls", [WeightedScheduledEngine, ScheduledEngine],
        ids=["weighted", "rejection"],
    )
    def test_predicate_boundary_honours_check_every_on_both_engines(
        self, engine_cls
    ):
        """Predicate evaluation points are the check_every grid, on both
        engines — the window lives in the shared cursor, so neither the
        per-step rejection loop nor the chunked jump loop checks more
        often than the other."""
        protocol = TreeRankingProtocol(9, k=2)
        before, after, _ = _epoch_timeline(protocol, 1)
        holder = {}
        calls = []

        def predicate(counts):
            calls.append(holder["engine"].events)
            return False

        timeline = EpochScheduler([
            (
                EpochBoundary(
                    kind="predicate", predicate=predicate, check_every=25
                ),
                before,
            ),
            (None, after),
        ])
        engine = engine_cls(
            protocol,
            random_configuration(protocol, seed=3, include_extras=True),
            np.random.default_rng(3),
            timeline,
        )
        holder["engine"] = engine
        engine.run(max_events=100)
        assert engine.epoch == 0  # predicate never held
        assert calls and calls[0] == 0
        assert all(b - a >= 25 for a, b in zip(calls, calls[1:]))

    @pytest.mark.parametrize(
        "engine_cls", [WeightedScheduledEngine, ScheduledEngine],
        ids=["weighted", "rejection"],
    )
    def test_true_predicate_advances_immediately(self, engine_cls):
        protocol = TreeRankingProtocol(9, k=2)
        before, after, _ = _epoch_timeline(protocol, 1)
        timeline = EpochScheduler([
            (
                EpochBoundary(
                    kind="predicate",
                    predicate=lambda counts: True,
                    check_every=1024,
                ),
                before,
            ),
            (None, after),
        ])
        engine = engine_cls(
            protocol,
            random_configuration(protocol, seed=3, include_extras=True),
            np.random.default_rng(3),
            timeline,
        )
        engine.run(max_events=10)
        assert engine.epoch == 1
        assert engine.current_scheduler is after
