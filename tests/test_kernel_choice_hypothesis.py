"""Generated inputs for the extension-variable checks of `test_kernel_choice.py`."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chowlab.poly import RingContext, graded_piece_basis  # noqa: E402
from test_kernel_choice import (  # noqa: E402
    ALL_FIELDS,
    check_buchberger,
    check_normal_form,
    unit,
)
from test_rowspace import check_rank  # noqa: E402
from test_rowspace_hypothesis import coeffs  # noqa: E402

RATIONAL = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def forms(ctx, d, coeff=RATIONAL, min_size=0):
    """Homogeneous polynomials of degree d with coefficients drawn from coeff."""
    mono = st.sampled_from(graded_piece_basis(ctx, d))
    return st.dictionaries(mono, coeff, min_size=min_size, max_size=4).map(ctx.from_dict)


rings = st.sampled_from(ALL_FIELDS).map(lambda f: RingContext(("x", "y", "z"), "dp", f))


def generators(ctx):
    form = st.integers(1, 3).flatmap(lambda d: forms(ctx, d, min_size=1))
    return st.lists(form.filter(bool), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rings.flatmap(generators))
def test_scaled_generators_give_the_same_basis(gens):
    check_buchberger(gens)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_scaled_normal_form_is_the_scaled_remainder(data):
    ctx = data.draw(rings)
    gens = data.draw(generators(ctx))
    f = data.draw(st.integers(0, 4).flatmap(lambda d: forms(ctx, d)))
    check_normal_form(f, gens)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_row_space_takes_on_a_at_the_first_irrational_row(data):
    ctx = data.draw(rings)
    d = data.draw(st.integers(0, 4))
    rational = data.draw(st.lists(forms(ctx, d), max_size=8))
    irrational = data.draw(st.lists(forms(ctx, d, coeffs(ctx.field)), max_size=6))
    # multiples of earlier rows: dependent once content is stripped
    for _ in range(data.draw(st.integers(0, 3))):
        combo = ctx.zero
        for p in rational + irrational:
            combo = combo + data.draw(coeffs(ctx.field)) * p
        irrational.append(combo * unit(ctx.field))
    check_rank(ctx, d, rational + irrational)
