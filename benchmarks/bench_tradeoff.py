"""Benchmarks: the state-vs-time trade-off and the reset ablation."""


def test_state_time_tradeoff(run_and_show):
    """Cliff below ~(2/3)·log₂ n, knee at Θ(log n), plateau beyond."""
    result = run_and_show("state_time_tradeoff")
    raw = result.raw
    assert raw["knee_k"] is not None, "no converged tree configuration"
    # the knee sits at Θ(log n): within [log n / 3, 1.5·log n]
    assert raw["log2_n"] / 3 <= raw["knee_k"] <= 1.5 * raw["log2_n"]
    # at the knee, the tree protocol beats AG by a large factor
    knee_index = raw["ks"].index(raw["knee_k"]) + 1  # +1 for the AG row
    assert raw["median_times"][knee_index] < raw["ag_median"] / 2
    # the plateau: doubling x beyond 2·log n changes time < 2x
    converged = [
        t for t, ok in zip(raw["median_times"][1:], raw["converged"][1:]) if ok
    ]
    assert max(converged) / min(converged) < 10  # knee→plateau variation


def test_reset_ablation(run_and_show):
    """Only the full red/green reset achieves stable+silent ranking."""
    result = run_and_show("reset_ablation")
    rows = {row["variant"]: row for row in result.raw["rows"]}
    trials = result.raw["trials"]
    real = rows["real tree protocol"]
    green = rows["all-green (no red phase)"]
    bare = rows["R1 only (no reset at all)"]
    assert real["ranked"] == trials, "the real protocol must always rank"
    # ablations fail on the (overwhelming) majority of random starts
    assert green["ranked"] <= trials // 4
    assert bare["ranked"] <= trials // 4
    # and they fail in *different* ways: churn vs wrong silence
    assert green["never_silent"] > 0
    assert bare["silent_but_wrong"] > 0
