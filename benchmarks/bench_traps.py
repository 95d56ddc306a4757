"""Benchmarks: the trap machinery (Lemma 1 drain, Lemma 2 tidy time)."""


def test_trap_drain_rates(run_and_show):
    """Lemma 1: release times normalised by m·n (and ·log l) stay flat."""
    result = run_and_show("trap_drain")
    rows = result.raw["rows"]
    # group normalised half-release times by surplus class and check the
    # spread across trap sizes m stays within a constant factor
    by_class = {}
    for row in rows:
        m, surplus = row["m"], row["surplus"]
        n = m + 1 + surplus
        key = "one" if surplus == 1 else ("half" if surplus < m else "full")
        by_class.setdefault(key, []).append(row["half_median"] / (m * n))
    for key, values in by_class.items():
        assert max(values) / min(values) < 5, (
            f"normalised drain times vary too much across m for {key}"
        )


def test_tidy_time(run_and_show):
    """Lemma 2: time-to-tidy normalised by m·n does not grow."""
    result = run_and_show("tidy_time")
    rows = result.raw["rows"]
    ms = [row["m"] for row in rows]
    normalised = [
        row["median"] / (m * m * (m + 1)) for row, m in zip(rows, ms)
    ]
    assert normalised[-1] <= normalised[0] * 3, (
        "tidy time grows faster than m·n"
    )
