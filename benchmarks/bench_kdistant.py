"""Benchmarks: Theorem 1 — ring-of-traps from k-distant configurations."""


def test_time_vs_k(run_and_show, scale):
    """At fixed n, time grows with k but at most ~linearly (Lemma 3)."""
    result = run_and_show("kdistant_vs_k")
    exponent = result.raw["exponent_in_k"]
    assert exponent > 0, "time must grow with the distance k"
    upper = 1.6 if scale == "smoke" else 1.3
    assert exponent < upper, (
        f"time ~ k^{exponent:.2f} exceeds Lemma 3's linear-in-k envelope"
    )
    # times must be increasing in k overall
    medians = result.raw["median_times"]
    assert medians[-1] > medians[0]


def test_time_vs_n_fixed_k(run_and_show, scale):
    """At fixed k, growth ≈ n^1.5 — strictly below the baseline's n²."""
    result = run_and_show("kdistant_vs_n")
    exponent = result.raw["exponent"]
    if scale == "smoke":
        assert 0.8 < exponent < 2.3
    else:
        assert 1.1 < exponent < 1.9, (
            f"k-distant exponent {exponent:.2f} not in the n^1.5 band"
        )


def test_arbitrary_starts_within_polylog_of_quadratic(run_and_show, scale):
    """Lemma 4: arbitrary starts stay within n²·log²n."""
    result = run_and_show("ring_arbitrary")
    # normalised column time/(n² log² n) must not grow with n
    rows = result.tables[0].rows
    normalised = [row[4] for row in rows]
    assert normalised[-1] <= normalised[0] * 2.5, (
        "time/(n²·log²n) grows — Lemma 4 envelope violated in shape"
    )
