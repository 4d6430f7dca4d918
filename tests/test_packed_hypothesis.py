"""Generated inputs for the packed-monomial checks of `test_packed.py`."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chowlab.coeff import QQ  # noqa: E402
from chowlab.poly import RingContext  # noqa: E402
from test_packed import (  # noqa: E402
    FIELDS,
    ORDERS,
    check_divisibility,
    check_key_order,
    check_normal_form,
)

exps = st.lists(st.integers(0, 31), min_size=4, max_size=4).map(tuple)
wide_exps = st.lists(st.integers(0, 200), min_size=4, max_size=4).map(tuple)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(ORDERS), exps, exps)
def test_key_order_matches_monomial_key(order, a, b):
    check_key_order(order, a, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wide_exps, wide_exps)
def test_guard_divisibility_matches_tuples(a, b):
    check_divisibility(a, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exps)
def test_guard_divisibility_of_a_multiple(a):
    check_divisibility(a, tuple(2 * x for x in a))


def polys(ctx):
    field = ctx.field
    if field == QQ:
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    else:
        coeff = st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=3),
            min_size=2,
            max_size=2,
        ).map(field.element)
    mono = st.lists(st.integers(0, 4), min_size=3, max_size=3).map(tuple)
    return st.dictionaries(mono, coeff, max_size=6).map(ctx.from_dict)


@st.composite
def cases(draw):
    order = draw(st.sampled_from(ORDERS[:4]))
    ctx = RingContext(("x", "y", "z"), order, draw(st.sampled_from(FIELDS)))
    basis = draw(st.lists(polys(ctx), max_size=4))
    return draw(polys(ctx)), basis


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cases())
def test_normal_form_matches_fraction_reducer(case):
    f, basis = case
    check_normal_form(f, basis)
