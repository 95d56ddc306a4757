"""Benchmarks regenerating the paper's figures (Figure 1 and Figure 2)."""


def test_figure1_routing_graph(run_and_show):
    """Figure 1: cubic routing graph G; worked example must match."""
    result = run_and_show("figure1")
    assert result.raw["example_matches_paper"] is True
    # every row: cubic, connected, diameter within the paper's bound
    for row in result.tables[0].rows:
        m, __, cubic, connected, diameter, bound = row
        assert cubic and connected
        if m >= 4:
            assert diameter <= bound


def test_figure2_tree_of_ranks(run_and_show):
    """Figure 2: the n=9 perfectly balanced tree, node for node."""
    result = run_and_show("figure2")
    assert result.raw["figure2_exact_match"] is True
    for row in result.tables[0].rows:
        n, height, bound, __, uniform = row
        assert uniform
        assert height <= float(bound) or n == 1
