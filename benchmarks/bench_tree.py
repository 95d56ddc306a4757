"""Benchmarks: Theorem 3 and its §5 support lemmas."""


def test_tree_protocol_scaling(run_and_show, scale):
    """O(n log n): exponent ≈ 1 after dividing out one log factor."""
    result = run_and_show("tree_scaling")
    band = (0.5, 1.6) if scale == "smoke" else (0.75, 1.3)
    for key in ("exponent_random", "exponent_pileup"):
        exponent = result.raw[key]
        assert band[0] < exponent < band[1], (
            f"{key} = {exponent:.2f} outside the n·log n band {band}"
        )


def test_dispersal_from_root(run_and_show):
    """Lemmas 19–20: all-at-root disperses into a perfect ranking."""
    result = run_and_show("tree_paths")
    assert all(row["perfect"] for row in result.raw["rows"])
    # normalised time flat-ish: max/min ratio bounded
    ratios = [
        row["median"] for row in result.raw["rows"]
    ]
    ns = [row["n"] for row in result.raw["rows"]]
    import math

    normalised = [t / (n * math.log(n)) for t, n in zip(ratios, ns)]
    assert max(normalised) / min(normalised) < 3


def test_reset_epidemic_is_logarithmic(run_and_show, scale):
    """Lemma 21: epidemic duration grows like log n, not like n."""
    result = run_and_show("reset_line")
    rows = result.raw["rows"]
    ns = [row["n"] for row in rows]
    epidemics = [row["epidemic_median"] for row in rows]
    if scale == "smoke" or len(ns) < 3:
        assert all(e > 0 for e in epidemics)
        return
    # n grows by ≥ 8x across the sweep; a log-time phase grows slowly,
    # far below linearly.
    n_growth = ns[-1] / ns[0]
    epidemic_growth = epidemics[-1] / max(epidemics[0], 1e-9)
    assert epidemic_growth < n_growth / 2, (
        f"epidemic grew {epidemic_growth:.1f}x while n grew {n_growth:.0f}x"
    )
