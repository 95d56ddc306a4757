"""Benchmark: the AG baseline's Θ(n²) stabilisation time (§1/§2)."""


def test_ag_quadratic_scaling(run_and_show, scale):
    """Growth exponent of the baseline must sit near 2."""
    result = run_and_show("ag_quadratic")
    exponent = result.raw["exponent"]
    band = (1.5, 2.5) if scale == "smoke" else (1.75, 2.25)
    assert band[0] < exponent < band[1], (
        f"AG exponent {exponent:.2f} outside Θ(n²) band {band}"
    )
    # the fit should be clean on a pure power law
    if scale != "smoke":
        assert result.raw["r_squared"] > 0.98
