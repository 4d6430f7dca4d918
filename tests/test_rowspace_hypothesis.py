"""Generated inputs for the row-space checks of `test_rowspace.py`."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chowlab.coeff import QQ  # noqa: E402
from chowlab.poly import RingContext, graded_piece_basis  # noqa: E402
from test_rowspace import FIELDS, check_multiples, check_rank  # noqa: E402


def coeffs(field):
    if field == QQ:
        return st.fractions(min_value=-9, max_value=9, max_denominator=4)
    return st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=3),
        min_size=2,
        max_size=2,
    ).map(field.element)


def forms(ctx, d):
    """Homogeneous polynomials of degree d, the zero polynomial included."""
    mono = st.sampled_from(graded_piece_basis(ctx, d))
    return st.dictionaries(mono, coeffs(ctx.field), max_size=6).map(ctx.from_dict)


@st.composite
def rank_cases(draw):
    ctx = RingContext(("x", "y", "z"), "dp", draw(st.sampled_from(FIELDS)))
    d = draw(st.integers(0, 4))
    rows = draw(st.lists(forms(ctx, d), max_size=10))
    # scaled combinations of earlier rows: dependent once content is stripped
    for _ in range(draw(st.integers(0, 3))):
        combo = ctx.zero
        for p in rows:
            combo = combo + draw(coeffs(ctx.field)) * p
        rows.append(combo * draw(coeffs(ctx.field)) * 2**70)
    return ctx, d, draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(rank_cases())
def test_rank_matches_field_division(case):
    check_rank(*case)


@st.composite
def multiple_cases(draw):
    ctx = RingContext(("x", "y", "z"), "dp", draw(st.sampled_from(FIELDS)))
    gens = draw(st.lists(st.integers(1, 3).flatmap(lambda d: forms(ctx, d)), max_size=3))
    return ctx, draw(st.integers(3, 5)), [g for g in gens if g]


@settings(max_examples=100, deadline=None)
@given(multiple_cases())
def test_multiples_match_field_division(case):
    check_multiples(*case)
