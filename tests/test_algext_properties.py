"""Property tests for exact square roots over totally real bases."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from iqhecke.algext import AlgValue, make_value_field, sqrt_in_tower  # noqa: E402

BASES = [
    make_value_field(minpoly=[-1, -1, 1]),  # the golden ratio
    make_value_field(minpoly=[1, -3, -1, 1]),
    make_value_field(minpoly=[1, 0, -10, 0, 1]),  # sqrt2 + sqrt3
]

rationals = st.builds(Fraction, st.integers(-10**14, 10**14), st.integers(1, 10**8))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.data())
def test_base_squares_have_exact_roots(data):
    f = data.draw(st.sampled_from(BASES))
    w = AlgValue(f, tuple(data.draw(st.lists(rationals, min_size=f.dim, max_size=f.dim))))
    hypothesis.assume(not w.is_zero())
    v = w * w
    root = sqrt_in_tower(v)
    assert root is not None and root.coeffs in (w.coeffs, (-w).coeffs)
    assert sqrt_in_tower(-v) is None
