"""Property tests: the engines' cached total weight never desyncs.

The fast-path engines maintain the total productive weight ``W``
incrementally (from per-family deltas, or inline in the specialised
loops).  These tests re-sum the family weights from scratch after every
productive event, across every shipped protocol, and require exact
agreement — the invariant the whole jump-chain sampling rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AGProtocol,
    Configuration,
    EpochBoundary,
    EpochScheduler,
    JumpEngine,
    LineOfTrapsProtocol,
    ModifiedTreeProtocol,
    RingOfTrapsProtocol,
    SequentialEngine,
    SingleTrapProtocol,
    StateBiasedScheduler,
    TreeDispersalProtocol,
    TreeRankingProtocol,
    random_configuration,
)
from repro.core.families import OrderedProduct, SameStatePairs, TriangularLine
from repro.protocols.line import IsolatedLineProtocol


def _shipped_protocols():
    return [
        AGProtocol(12),
        RingOfTrapsProtocol(m=4),
        LineOfTrapsProtocol(m=2),
        TreeRankingProtocol(13, k=3),
        ModifiedTreeProtocol(13, k=3),
        TreeDispersalProtocol(13),
        SingleTrapProtocol(inner_size=4, num_agents=12),
        IsolatedLineProtocol(num_traps=3, inner_cap=2, num_agents=12),
    ]


def _weight_cases():
    """``(protocol, scheduler)``: every shipped protocol under the
    uniform scheduler, then the tree with n=33, k=2 under a state-biased
    scheduler and under an epoch timeline crossing two boundaries within
    the runs below (its scaled weight is the active segment's)."""
    tree = TreeRankingProtocol(33, k=2)
    biased = StateBiasedScheduler(
        [1.0] * tree.num_ranks + [0.2] * tree.num_extra_states
    )
    many_class = StateBiasedScheduler(
        [0.80 + 0.02 * (s % 9) for s in range(tree.num_states)]
    )
    timeline = EpochScheduler([
        (EpochBoundary(kind="events", value=100), biased),
        (EpochBoundary(kind="events", value=100), many_class),
        (None, biased),
    ])
    return [
        pytest.param(protocol, None, id=protocol.name)
        for protocol in _shipped_protocols()
    ] + [
        pytest.param(tree, biased, id="tree-state-biased"),
        pytest.param(tree, timeline, id="tree-epoch-timeline"),
    ]


def _start(protocol, seed):
    if isinstance(protocol, (SingleTrapProtocol, IsolatedLineProtocol)):
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(
            protocol.num_agents, [1 / protocol.num_states] * protocol.num_states
        )
        return Configuration(counts.tolist())
    return random_configuration(protocol, seed=seed)


class TestCachedWeightInvariant:
    @pytest.mark.parametrize(
        "protocol", _shipped_protocols(), ids=lambda p: p.name
    )
    def test_jump_cached_weight_matches_recomputed_after_every_event(
        self, protocol
    ):
        for seed in range(3):
            engine = JumpEngine(
                protocol, _start(protocol, seed), np.random.default_rng(seed)
            )
            assert engine.productive_weight == engine.recomputed_weight()
            for _ in range(400):
                if engine.step() is None:
                    break
                assert (
                    engine.productive_weight == engine.recomputed_weight()
                ), f"desync after {engine.events} events on {protocol.name}"

    @pytest.mark.parametrize("protocol, scheduler", _weight_cases())
    def test_debug_mode_run_asserts_weight_sync(self, protocol, scheduler):
        """debug=True re-checks the invariant inside run() itself."""
        engine = JumpEngine(
            protocol,
            _start(protocol, 7),
            np.random.default_rng(7),
            scheduler,
            debug=True,
        )
        engine.run(max_events=500)
        if isinstance(scheduler, EpochScheduler):
            assert engine.epoch == 2
        assert engine.productive_weight == engine.recomputed_weight()

    @pytest.mark.parametrize("protocol, scheduler", _weight_cases())
    def test_fast_run_leaves_weight_synced(self, protocol, scheduler):
        """The specialised loops must hand back a consistent engine."""
        engine = JumpEngine(
            protocol, _start(protocol, 11), np.random.default_rng(11),
            scheduler,
        )
        engine.run(max_events=300)
        if isinstance(scheduler, EpochScheduler):
            assert engine.epoch == 2
        assert engine.productive_weight == engine.recomputed_weight()
        # And the engine must still be steppable afterwards.
        event = engine.step()
        if event is not None:
            assert engine.productive_weight == engine.recomputed_weight()

    def test_sequential_cached_weight_matches_recomputed(self):
        protocol = RingOfTrapsProtocol(m=4)
        engine = SequentialEngine(
            protocol,
            Configuration.all_in_state(0, 20, 20),
            np.random.default_rng(5),
        )
        for _ in range(2000):
            engine.step()
            recomputed = sum(
                f.weight for f in protocol.build_families(engine.counts)
            )
            assert engine.productive_weight == recomputed
            if engine.is_silent():
                break

    @given(
        st.lists(st.integers(0, 11), min_size=12, max_size=12),
        st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_fuzzed_ag_starts_never_desync(self, states, seed):
        protocol = AGProtocol(12)
        engine = JumpEngine(
            protocol,
            Configuration.from_agents(states, 12),
            np.random.default_rng(seed),
            debug=True,
        )
        assert engine.run() is True
        assert engine.productive_weight == engine.recomputed_weight() == 0


@st.composite
def _family_moves(draw):
    """A family over up to 12 states, its start counts, and a run of
    count moves ``(state, new count)``."""
    num_states = draw(st.integers(1, 12))
    counts = draw(
        st.lists(st.integers(0, 40), min_size=num_states, max_size=num_states)
    )
    states = draw(st.permutations(range(num_states)))
    kind = draw(st.sampled_from(["same_state", "product", "line"]))
    if kind == "same_state":
        members = draw(st.integers(0, num_states))
        args = (states[:members],)
        build = SameStatePairs
    elif kind == "product":
        split = draw(st.integers(0, num_states))
        end = draw(st.integers(split, num_states))
        args = (states[:split], states[split:end])
        build = OrderedProduct
    else:
        args = (states[:draw(st.integers(0, num_states))],)
        build = TriangularLine
    moves = draw(st.lists(
        st.tuples(st.integers(0, num_states - 1), st.integers(0, 40)),
        max_size=30,
    ))
    return build, args, counts, moves


class TestFamilyRunningTotals:
    @given(_family_moves())
    @settings(max_examples=300, deadline=None)
    def test_count_moves_match_a_fresh_build(self, case):
        """Every family's running weight, and each delta it returns,
        equal what a family built afresh from the counts reports."""
        build, args, counts, moves = case
        family = build(counts, *args)
        assert family.weight == build(counts, *args).weight
        for state, new in moves:
            before = family.weight
            delta = family.on_count_change(state, counts[state], new)
            counts[state] = new
            fresh = build(counts, *args).weight
            assert family.weight == fresh
            assert delta == fresh - before
