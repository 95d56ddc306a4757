"""Shared fixtures and markers for the repro test suite.

Markers (the CI tiers select on these):

* ``slow`` — long-running statistical tests.  Skipped unless
  ``--run-slow`` is given; the PR-gating tier-1 CI job additionally
  deselects them with ``-m "not slow"``, while the full matrix job
  passes ``--run-slow`` so nothing is skipped.
* ``property`` — hypothesis/property-based tests.  Applied
  automatically to everything under ``tests/property/``; select them
  alone with ``-m property`` (the nightly workflow does) or exclude
  them with ``-m "not property"`` for the fastest possible signal.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

_PROPERTY_DIR = Path(__file__).resolve().parent / "property"

from repro import (
    AGProtocol,
    LineOfTrapsProtocol,
    RingOfTrapsProtocol,
    TreeRankingProtocol,
)


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def ag_small():
    return AGProtocol(12)


@pytest.fixture
def ring_small():
    return RingOfTrapsProtocol(m=4)  # n = 20


@pytest.fixture
def tree_small():
    return TreeRankingProtocol(13, k=3)


@pytest.fixture
def line_small():
    return LineOfTrapsProtocol(m=2)  # n = 72


def _push_up_fill(tree, size, values):
    """Reference Fenwick build: the classic O(N) pure-Python push-up.

    Every node forwards its accumulated partial sum to its parent, in
    index order.  Kept verbatim as the oracle the vectorised
    :func:`repro.core.fenwick.fill_tree` kernel must reproduce node for
    node.
    """
    for i in range(size + 1):
        tree[i] = 0
    total = 0
    num_values = len(values)
    for i in range(size):
        pos = i + 1
        if i < num_values:
            value = values[i]
            total += value
            tree[pos] += value
        acc = tree[pos]
        if acc:
            parent = pos + (pos & -pos)
            if parent <= size:
                tree[parent] += acc
    return total


@pytest.fixture(scope="session")
def push_up_fill():
    """The push-up oracle for ``fill_tree`` (session-scoped, so that
    hypothesis tests may take it)."""
    return _push_up_fill


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="also run tests marked slow",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running statistical test")
    config.addinivalue_line(
        "markers",
        "property: hypothesis/property-based test (auto-applied under "
        "tests/property/)",
    )


def pytest_collection_modifyitems(config, items):
    for item in items:
        if _PROPERTY_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.property)
    if config.getoption("--run-slow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
