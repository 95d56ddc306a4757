"""Benchmark: Theorem 2 — the one-extra-state protocol is o(n²)."""


def test_line_protocol_scaling(run_and_show, scale):
    """time/n² must shrink with n (the o(n²) claim), and the protocol
    must not lose to AG by more than constants at comparable n."""
    result = run_and_show("line_scaling")
    rows = result.tables[0].rows
    per_n_squared = [row[4] for row in rows]
    if len(per_n_squared) >= 2:
        assert per_n_squared[-1] < per_n_squared[0], (
            "time/n² did not shrink — no evidence of o(n²)"
        )
    if scale != "smoke" and "exponent" in result.raw:
        # log²n divided out; Theorem 2's polynomial part is 1.75
        assert result.raw["exponent"] < 2.0
    # every configuration must have ranked (stable + silent)
    assert all(row[-1] for row in rows)
