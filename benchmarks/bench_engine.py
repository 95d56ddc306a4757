"""Benchmark: methodology — engine equivalence."""


def test_engine_equivalence(run_and_show, scale):
    """Jump and sequential engines agree distributionally."""
    result = run_and_show("engine_equivalence")
    tolerance = 0.6 if scale == "smoke" else 0.25
    assert result.raw["max_median_deviation"] < tolerance, (
        "per-engine stabilisation-time medians diverged"
    )
