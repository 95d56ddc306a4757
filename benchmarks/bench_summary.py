"""Benchmark: the headline contribution table + Ω(n) lower-bound floor."""


def test_summary_table(run_and_show):
    """All four protocols rank correctly; every time respects Ω(n)."""
    result = run_and_show("summary")
    assert result.raw["lower_bound_floor_holds"] is True
    rows = result.raw["rows"]
    assert len(rows) == 4
    assert all(row["ranked"] for row in rows)
    by_name = {row["protocol"]: row for row in rows}
    # the tree protocol is the paper's fastest: its per-agent time must
    # be the smallest in the table despite using the largest n
    tree_row = next(r for r in rows if "Tree" in r["protocol"])
    others = [r for r in rows if "Tree" not in r["protocol"]]
    assert all(tree_row["time_per_n"] < r["time_per_n"] for r in others), (
        f"tree per-agent time {tree_row['time_per_n']:.2f} should win: "
        f"{ {r['protocol']: round(r['time_per_n'], 2) for r in rows} }"
    )
    assert by_name  # table integrity
