"""Property-based tests for the bulk Fenwick build, ``fill_tree``."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fenwick import fill_tree


@st.composite
def fill_cases(draw, values):
    """``(size, values)`` with ``len(values) <= size``.

    Half the cases pad the size to a power of two, as the fused index's
    side trees do; the rest leave up to 40 trailing zero slots.
    """
    vals = draw(st.lists(values, max_size=300))
    if draw(st.booleans()):
        size = 1 << max(len(vals) - 1, 0).bit_length()
    else:
        size = len(vals) + draw(st.integers(0, 40))
    return size, vals


#: Values whose totals straddle the 2⁶² switch between the int64 and the
#: exact-integer kernel: up to 2⁵⁷ per slot over up to 300 slots.
_NEAR_SWITCH = st.integers(min_value=0, max_value=1 << 57)
#: Dyadic weights as the weighted index writes them: numerators over
#: 2⁵³ times pair counts, 2⁶⁴ and beyond.
_DYADIC = st.builds(
    lambda numerator, pairs: numerator * pairs,
    st.integers(min_value=1, max_value=1 << 53),
    st.integers(min_value=0, max_value=1 << 40),
)


class TestFillTreeMatchesPushUp:
    def _check(self, push_up_fill, size, values):
        expected = [7] * (size + 1)
        expected_total = push_up_fill(expected, size, values)
        tree = [7] * (size + 1)  # stale garbage must be cleared
        alias = tree
        total = fill_tree(tree, size, values)
        assert tree is alias
        assert tree == expected
        assert total == expected_total
        assert type(total) is int
        assert all(type(node) is int for node in tree)

    @given(fill_cases(st.integers(min_value=0, max_value=1000)))
    @settings(max_examples=200)
    @example((0, []))
    @example((1, [5]))
    @example((256, [1] * 256))
    @example((300, [3] * 300))
    def test_small_weights(self, push_up_fill, case):
        self._check(push_up_fill, *case)

    @given(fill_cases(_NEAR_SWITCH))
    @settings(max_examples=200)
    @example((4, [1 << 60, 1 << 60, 1 << 60, (1 << 60) - 1]))
    @example((4, [1 << 60] * 4))
    @example((4, [(1 << 60) - 1] * 4))
    @example((2, [(1 << 62) - 1]))
    @example((2, [1 << 62]))
    @example((8, [(1 << 63) - 1, 1]))
    def test_weights_around_the_int64_switch(self, push_up_fill, case):
        self._check(push_up_fill, *case)

    @given(fill_cases(_DYADIC))
    @settings(max_examples=100)
    @example((2, [1 << 64, 1 << 64]))
    @example((4, [1 << 100, 0, 3]))
    def test_dyadic_weights_beyond_int64(self, push_up_fill, case):
        self._check(push_up_fill, *case)

    @given(fill_cases(st.integers(min_value=0, max_value=1 << 40)))
    @settings(max_examples=100)
    def test_int64_array_input(self, push_up_fill, case):
        size, values = case
        expected = [0] * (size + 1)
        expected_total = push_up_fill(expected, size, values)
        tree = [0] * (size + 1)
        total = fill_tree(tree, size, np.asarray(values, dtype=np.int64))
        assert tree == expected
        assert total == expected_total
