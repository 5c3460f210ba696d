"""The ring suite's numpy draw against the random.Random draw it replaced.

``_old_random_laurent`` is the suite's former generator, kept verbatim
as the oracle.  Over 20,000 seeded elements from each, every new element
lies in the old support, and the frequencies of the monomial count, of
the keys k and of the coefficients agree within FREQUENCY_TOL.
"""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conecut import ring as rg
from conecut import verify as vf

P, Q = 1, 2
DRAWS = 20_000
# Two independent samples of 20,000 give a frequency difference with a
# standard deviation of at most sqrt(2 * 0.25 / 20000) = 0.005, so the
# bound is four of them.  At seed 2021 the largest differences measured
# are 0.0038 (monomial count), 0.0067 (k) and 0.0055 (coefficient).  A
# draw that lost the coefficients +-5 would differ by about 0.1.
FREQUENCY_TOL = 0.02


def _old_random_laurent(rnd, p, q) -> rg.LaurentElement:
    coeffs = {}
    for _ in range(rnd.randint(1, 2)):
        k = rnd.randint(-1, 2)
        y_exps = tuple(rnd.randint(0, 1) for _ in range(p))
        min_x = max(k, 0)
        x_total = min_x + rnd.randint(0, 1)
        x_exps = [0] * q
        for _ in range(x_total):
            x_exps[rnd.randint(0, q - 1)] += 1
        terms = {y_exps + tuple(x_exps): Fraction(rnd.randint(-5, 5))}
        poly = rg.MultiPoly(p, q, terms)
        if poly.is_zero():
            continue
        coeffs[k] = coeffs[k] + poly if k in coeffs else poly
    return rg.LaurentElement(p, q, coeffs)


@pytest.fixture(scope="module")
def old():
    rnd = random.Random(2021)
    return [_old_random_laurent(rnd, P, Q) for _ in range(DRAWS)]


@pytest.fixture(scope="module")
def new():
    samples = vf._ring_samples(np.random.default_rng(2021), DRAWS // 2, P, Q)
    return [e for a, b, *_ in samples for e in (a, b)]


def _in_old_support(a) -> bool:
    """At most two monomials over keys -1..2; y-exponents 0 or 1; a
    coefficient of t^-k has x-degree max(k, 0) or one more, so the
    filtration holds; coefficients are nonzero integers in -5..5, or in
    -10..10 for a lone monomial, which may be two draws merged."""
    monomials = [(k, e, c) for k, f in a.coeffs.items() for e, c in f.terms.items()]
    return len(monomials) <= 2 and all(
        k in (-1, 0, 1, 2)
        and all(v in (0, 1) for v in e[:P])
        and sum(e[P:]) - max(k, 0) in (0, 1)
        and c.denominator == 1
        and 0 < abs(c) <= (10 if len(monomials) == 1 else 5)
        for k, e, c in monomials
    )


def _frequencies(elements) -> dict:
    counts = {"monomials": Counter(), "k": Counter(), "coefficient": Counter()}
    for a in elements:
        counts["monomials"][sum(len(f.terms) for f in a.coeffs.values())] += 1
        counts["k"].update(a.coeffs.keys())
        counts["coefficient"].update(c for f in a.coeffs.values() for c in f.terms.values())
    return {
        name: {v: n / sum(c.values()) for v, n in c.items()} for name, c in counts.items()
    }


def _largest_difference(old: dict, new: dict) -> float:
    return max(abs(old.get(v, 0.0) - new.get(v, 0.0)) for v in old.keys() | new.keys())


def test_new_draw_stays_in_the_old_support(old, new):
    assert len(new) == DRAWS
    assert all(map(_in_old_support, old))  # the support is stated right
    assert all(map(_in_old_support, new))


def test_new_draw_keeps_the_old_frequencies(old, new):
    old, new = _frequencies(old), _frequencies(new)
    for name in old:
        assert _largest_difference(old[name], new[name]) <= FREQUENCY_TOL, name
