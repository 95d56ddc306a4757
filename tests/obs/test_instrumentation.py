"""Engine counters: accounting identities and derived ratios.

The trajectory-equality guarantee (instrumented run == uninstrumented
run, bit for bit) lives in ``tests/property/test_prop_instrumentation``;
here we check the counter bag itself and the per-case instrument
bench.
"""

import numpy as np
import pytest

from repro import AGProtocol, JumpEngine, run_protocol
from repro.analysis.bench import instrument_bench, render_instrument
from repro.configurations.generators import random_configuration
from repro.core.sequential import SequentialEngine
from repro.obs import Instrumentation
from repro.protocols.line import LineOfTrapsProtocol


class TestInstrumentationBag:
    def test_add_and_get(self):
        instr = Instrumentation()
        instr.add("events", 5)
        instr.add("events", 2)
        instr.add("never", 0)  # zero deltas never materialise
        assert instr.get("events") == 7
        assert "never" not in instr.counters

    def test_merge_folds_counters_and_marks(self):
        a = Instrumentation(trace=True)
        a.add("events", 1)
        a.mark("resync", events=1)
        b = Instrumentation(trace=True)
        b.add("events", 2)
        b.mark("resync", events=3)
        a.merge(b)
        assert a.get("events") == 3
        assert [m["events"] for m in a.marks] == [1, 3]

    def test_marks_are_noops_without_trace(self):
        instr = Instrumentation()
        instr.mark("resync", events=1)
        assert instr.marks == []

    def test_derived_ratios_only_for_active_loops(self):
        instr = Instrumentation()
        assert instr.derived() == {}
        instr.add_counters(events=100, skip_draws=100, pool_draws=40,
                           proposal_draws=100, sprint_events=30)
        derived = instr.derived()
        assert derived["proposals_per_pool_draw"] == pytest.approx(2.5)
        assert derived["sprint_share"] == pytest.approx(0.75)
        assert derived["skip_draws_per_event"] == pytest.approx(1.0)
        assert "acceptance" not in derived


class TestEngineCounters:
    def test_jump_counts_events_and_skips(self):
        protocol = AGProtocol(32)
        instr = Instrumentation()
        engine = JumpEngine(
            protocol,
            random_configuration(protocol, seed=1),
            np.random.default_rng(2),
            instrumentation=instr,
        )
        assert engine.run() is True
        assert instr.get("events") == engine.events
        assert instr.get("interactions") == engine.interactions
        # Jump chain: one geometric skip per event.
        assert instr.get("skip_draws") >= instr.get("events")

    def test_sequential_pair_draws_cover_interactions(self):
        protocol = AGProtocol(12)
        instr = Instrumentation()
        engine = SequentialEngine(
            protocol,
            random_configuration(protocol, seed=3),
            np.random.default_rng(4),
            instrumentation=instr,
        )
        engine.run(max_events=50)
        assert instr.get("pair_draws") == engine.interactions
        assert instr.get("events") == engine.events

    def test_run_protocol_attaches_counters_to_metadata(self):
        protocol = AGProtocol(16)
        instr = Instrumentation()
        result = run_protocol(
            protocol,
            random_configuration(protocol, seed=5),
            seed=6,
            instrumentation=instr,
        )
        assert result.metadata["instrumentation"]["counters"]["events"] \
            == result.events

    def test_line_fused_loop_reports_residual_cost(self):
        protocol = LineOfTrapsProtocol(m=2)
        instr = Instrumentation()
        engine = JumpEngine(
            protocol,
            random_configuration(protocol, seed=7, include_extras=True),
            np.random.default_rng(8),
            instrumentation=instr,
        )
        engine.run(max_events=500)
        derived = instr.derived()
        # The ROADMAP question: proposals per pool draw is a small
        # constant (~2.5), not O(m).
        assert 1.0 <= derived["proposals_per_pool_draw"] <= 8.0


class TestInstrumentBench:
    def test_quick_record_covers_the_suite(self):
        record = instrument_bench(quick=True)
        by_case = {c["case"]: c for c in record["cases"]}
        assert "line-m4" in by_case
        line = by_case["line-m4"]
        assert line["counters"]["events"] > 0
        assert "proposals_per_pool_draw" in line["derived"]
        text = render_instrument(record)
        assert "line-m4 residual cost" in text
        assert "proposals per pool draw" in text
