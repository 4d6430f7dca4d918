"""Generated inputs for the certified `intersect` checks of `test_modular.py`."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chowlab.groebner import Ideal, intersect  # noqa: E402
from chowlab.poly import RingContext  # noqa: E402
from test_modular import (  # noqa: E402
    VARS,
    check_intersection,
    reference_intersect,
    replace_candidate,
)


def ideals(ctx):
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
    # in three variables higher exponents can make the fraction-free
    # reference (or the undriven run after a perturbed candidate)
    # run for minutes
    top = 2 if ctx.nvars == 2 else 1
    mono = st.lists(st.integers(0, top), min_size=ctx.nvars, max_size=ctx.nvars)
    poly = st.dictionaries(mono.map(tuple), coeff, min_size=1, max_size=3)
    return st.lists(poly.map(ctx.from_dict), min_size=1, max_size=2).map(
        lambda gens: Ideal(ctx, gens)
    )


@st.composite
def pairs(draw):
    nvars = draw(st.integers(2, 3))
    ctx = RingContext(VARS[:nvars], draw(st.sampled_from(["dp", "lp"])))
    return draw(ideals(ctx)), draw(ideals(ctx))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pairs())
def test_random_pairs_match_fraction_free_elimination(pair):
    check_intersection(*pair)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pairs(), st.data())
def test_perturbed_candidate_never_changes_the_output(pair, data):
    i, j = pair
    want = [g.terms for g in reference_intersect(i, j)]

    def perturbed(cand):
        k = data.draw(st.integers(0, len(cand) - 1))
        terms = dict(cand[k].terms)
        e = data.draw(st.sampled_from(sorted(terms)))
        terms[e] += data.draw(st.sampled_from([1, -1, 2]))
        return cand[:k] + [cand[k].ctx.from_dict(terms)] + cand[k + 1 :]

    with pytest.MonkeyPatch.context() as mp:
        replace_candidate(mp, perturbed)
        assert [g.terms for g in intersect(i, j).generators] == want
