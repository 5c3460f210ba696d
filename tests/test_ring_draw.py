"""The ring suite's draw against the random.Random draw it replaced.

``_old_random_laurent`` is the suite's former generator, kept verbatim
as the oracle.  Over 20,000 seeded elements from each, every new element
lies in the old support, and the frequencies of the monomial count, of
the keys k and of the coefficients agree within FREQUENCY_TOL.  The
suite decodes each term through a table, which
``test_term_table_lists_each_column_draw_once`` checks against the
per-column decoding of the suite's earlier block draws.  It validates
each table entry once per run and adds two validated terms for a
two-term draw; ``_old_ring_samples``, which built every draw through
``from_terms``, is kept verbatim as the oracle for that.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from conecut import ring as rg
from conecut import verify as vf
from conecut.pcg64 import PCG64

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
    samples = vf._ring_samples(PCG64(2021), DRAWS // 2, P, Q)
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


# The columns of one term of the suite's earlier block draws, each an
# inclusive range: k, the P y-exponents, the extra x-degree, three
# x-slots and the coefficient.
TERM_COLUMNS = [(-1, 2)] + [(0, 1)] * (P + 1) + [(0, Q - 1)] * 3 + [(-5, 5)]


def _column_term(k, *rest):
    """The term (exponents, coefficient) that one row of term columns drew:
    the per-column decoding of the suite's earlier ``_random_laurent``."""
    y_exps, extra, slots, coeff = rest[:P], rest[P], rest[P + 1 : P + 4], rest[-1]
    x_exps = [0] * Q
    for j in slots[: max(k, 0) + extra]:
        x_exps[j] += 1
    return (*y_exps, *x_exps, k), coeff


def test_term_table_lists_each_column_draw_once():
    """Entry i of the table is the term of the i-th row of term columns in
    mixed radix, so each of the 1,408 rows the old draw could make is
    listed once, and nothing else is."""
    rows = list(product(*(range(low, high + 1) for low, high in TERM_COLUMNS)))
    assert len(rows) == 1408
    assert vf._ring_terms(P, Q) == [_column_term(*row) for row in rows]


def _old_ring_samples(rng, samples, p, q):
    """The suite's former draw, which built every element from its terms
    through ``from_terms``, kept verbatim as the oracle."""
    terms = vf._ring_terms(p, q)
    n = len(terms)
    xs = list(product(range(-3, 4), repeat=p + q))
    xis = list(product(range(-3, 4), repeat=q))
    span = (2 * n * n) ** 2 * 4 * len(xs) * len(xis)

    def element(code: int) -> rg.LaurentElement:
        pair, two = divmod(code, 2)
        second, first = divmod(pair, n)
        key, c = terms[first]
        table = {key: c}
        if two:
            key, c = terms[second]
            table[key] = table.get(key, 0) + c
        return rg.LaurentElement.from_terms(p, q, table)

    for _ in range(samples):
        word, i = divmod(rng.integers(span), len(xis))
        word, j = divmod(word, len(xs))
        word, s = divmod(word, 4)
        b, a = divmod(word, 2 * n * n)
        yield element(a), element(b), xs[j], Fraction(s + 1, 3), xis[i]


def test_draws_equal_the_per_draw_construction_from_terms():
    """Over the 20,000 seed-2021 elements, each element built from the
    validated one-term elements equals, table order included, the
    element ``from_terms`` built from the draw's merged terms; x, s and
    xi are the same draws."""
    old = _old_ring_samples(PCG64(2021), DRAWS // 2, P, Q)
    new = vf._ring_samples(PCG64(2021), DRAWS // 2, P, Q)
    cancelled = 0
    for (a, b, *point), (a0, b0, *point0) in zip(new, old, strict=True):
        assert point == point0
        for e, e0 in ((a, a0), (b, b0)):
            assert e == e0 and list(e.nums.items()) == list(e0.nums.items())
            cancelled += not e.nums
    assert cancelled  # some draws are zero, cancelled or with coefficient 0


def test_ring_suite_validates_each_term_once(monkeypatch):
    """A run of the ring suite calls ``from_terms`` at most once per entry
    of the draw table, on that entry's one term, whatever the number of
    samples; the suite makes no other call of it."""
    calls = []
    from_terms = rg.LaurentElement.from_terms.__func__

    def counted(cls, p, q, terms):
        calls.append(dict(terms))
        return from_terms(cls, p, q, terms)

    monkeypatch.setattr(rg.LaurentElement, "from_terms", classmethod(counted))
    for seed in (1, 11):
        calls.clear()
        result = vf.SUITES["ring"](samples=10000, seed=seed)
        assert result.ok
        assert 0 < len(calls) <= len(vf._ring_terms(P, Q))
        assert all(len(terms) == 1 for terms in calls)
