"""Generated inputs for the grown-ideal checks of `test_grown.py`."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chowlab.poly import RingContext  # noqa: E402
from test_grown import check_grown  # noqa: E402
from test_kernel_choice import ALL_FIELDS  # noqa: E402
from test_kernel_choice_hypothesis import RATIONAL, forms  # noqa: E402
from test_rowspace import ORDERS  # noqa: E402
from test_rowspace_hypothesis import coeffs  # noqa: E402


def generators(ctx, min_size):
    """Forms of degree 1-3, rational or with coefficients over the field."""
    coeff = st.sampled_from([RATIONAL, coeffs(ctx.field)])
    form = st.tuples(st.integers(1, 3), coeff).flatmap(lambda dc: forms(ctx, *dc, min_size=1))
    return st.lists(form.filter(bool), min_size=min_size, max_size=3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_grown_basis_is_the_basis_of_all_generators(data):
    field = data.draw(st.sampled_from(ALL_FIELDS))
    ctx = RingContext(("x", "y", "z"), data.draw(st.sampled_from(ORDERS)), field)
    check_grown(data.draw(generators(ctx, 1)), data.draw(generators(ctx, 0)))
