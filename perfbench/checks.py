"""Independent checkers for the outputs of the benchmark's operations.

Nothing here imports conecut.  Every expected value is computed from the
generated inputs (closed forms, exact ``Fraction`` arithmetic, exact
Gaussian elimination) or is a property the method must have; no check
compares against a saved copy of an earlier output.  Each checker
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction

# Below this magnitude a float is subnormal; the quotient h2(y, t*xi)/t
# loses precision there (see the named fault in the README).
SUBNORMAL = sys.float_info.min
SWEEP_RTOL = 1e-12
CHECK_MAP_ATOL = 1e-12
FD_RESIDUAL_TOL = 1e-6


def _close(value: float, expected: float, rtol: float = SWEEP_RTOL) -> bool:
    return abs(value - expected) <= rtol * max(1.0, abs(expected))


# -- verification suites ------------------------------------------------


def check_suite(name: str, ok, details: dict) -> list[str]:
    """The suite's own verdict plus its closed-form details."""
    problems = [] if ok is True else [f"suite {name}: ok is {ok!r}"]
    if name == "groupoid":
        iso = details.get("isotropy_orbit")
        if iso != {"a=1": [0, 1], "a=0": [1, 0]}:
            problems.append(f"groupoid isotropy/orbit dims {iso!r}")
    elif name == "dnc":
        slopes = details.get("continuity_slopes") or {}
        bad = {
            k: s for k, s in slopes.items()
            if not (s == "exact" or (isinstance(s, (int, float)) and not isinstance(s, bool) and s >= 0.99))
        }
        if len(slopes) != 3 or bad:
            problems.append(f"dnc continuity slopes {slopes!r}")
    elif name == "curve":
        if details.get("nodal_roots") != [-1.0, 1.0]:
            problems.append(f"nodal roots {details.get('nodal_roots')!r}")
        if details.get("cusp_roots") != [[0.0, 2]]:
            problems.append(f"cusp roots {details.get('cusp_roots')!r}")
    return problems


# -- near-slice sweep ---------------------------------------------------


def dnc_closed_form(y: float, xi: float, t: float):
    """The induced map of h(y, x) = (y + x^2, x e^y) at (y, xi, t)."""
    return (y + t * t * xi * xi, xi * math.exp(y), t)


def check_dnc_point(out, y: float, xi: float, t: float) -> list[str]:
    ey, exi, et = dnc_closed_form(y, xi, t)
    oy, oxi, ot = out
    if _close(oy, ey) and _close(oxi, exi) and ot == et:
        return []
    return [f"DncMap at t={t!r}: {out!r} vs closed form {(ey, exi, et)!r}"]


def check_quotient(value: float, y: float, xi: float, t: float) -> list[str]:
    expected = xi * math.exp(y)
    if _close(value, expected):
        return []
    return [f"dnc_f1 at t={t!r}: {value!r} vs closed form {expected!r}"]


def check_equivariance(lhs, rhs, t: float) -> list[str]:
    """h~(lam . z) = lam . h~(z), both sides as (y, xi, t) triples."""
    if all(_close(a, b) for a, b in zip(lhs, rhs)):
        return []
    return [f"equivariance at t={t!r}: {lhs!r} vs {rhs!r}"]


def near_subnormal(t: float, xi: float) -> bool:
    """True where t*xi is subnormal: the named quotient fault applies."""
    return abs(t) * abs(xi) < SUBNORMAL


# -- plane curves -------------------------------------------------------


def expected_roots(roots) -> list[tuple[float, int]]:
    """Exceptional roots of the tangent cone prod(y - r x), with multiplicity."""
    return sorted((float(r), m) for r, m in Counter(roots).items())


def tangent_cone_restriction(roots) -> dict[int, int]:
    """Coefficients of prod(s - r) by power of s, in exact integers."""
    coeffs = {0: 1}
    for r in roots:
        out: dict[int, int] = {}
        for k, c in coeffs.items():
            out[k + 1] = out.get(k + 1, 0) + c
            out[k] = out.get(k, 0) - r * c
        coeffs = {k: c for k, c in out.items() if c}
    return coeffs


def check_curve(reported_roots, roots, restriction=None) -> list[str]:
    """Roots and multiplicities against the drawn tangent cone; when the
    strict transform's restriction to the exceptional divisor is given
    ({power of s: coefficient}), it must equal prod(s - r) exactly."""
    problems = []
    got = [(float(r), int(m)) for r, m in reported_roots]
    want = expected_roots(roots)
    if got != want:
        problems.append(f"exceptional roots {got!r}, drawn tangent cone gives {want!r}")
    if restriction is not None:
        exact = {k: Fraction(c) for k, c in tangent_cone_restriction(roots).items()}
        if {k: Fraction(c) for k, c in restriction.items() if c} != exact:
            problems.append(f"strict transform on the divisor {restriction!r}, expected {exact!r}")
    return problems


# -- Laurent elements ---------------------------------------------------


def _monomial(exps, point) -> Fraction:
    value = Fraction(1)
    for v, e in zip(point, exps):
        value *= Fraction(v) ** e
    return value


def eval_xs(terms, x, s) -> Fraction:
    """sum over terms (k, exps, c) of c * x^exps * s^-k."""
    s = Fraction(s)
    return sum((Fraction(c) * _monomial(e, x) * s ** (-k) for k, e, c in terms), Fraction(0))


def eval_yxi(terms, p: int, y, xi) -> Fraction:
    """The normal character: terms with k >= 0 whose x-block degree is k."""
    point = list(y) + list(xi)
    return sum(
        (Fraction(c) * _monomial(e, point) for k, e, c in terms if k >= 0 and sum(e[p:]) == k),
        Fraction(0),
    )


def filtration_keys(terms) -> list[int]:
    """Keys whose combined coefficient polynomial is nonzero."""
    combined: dict = {}
    for k, e, c in terms:
        combined[(k, tuple(e))] = combined.get((k, tuple(e)), Fraction(0)) + Fraction(c)
    return sorted({k for (k, _), c in combined.items() if c != 0})


def check_characters(got_xs, got_yxi, want_xs, want_yxi, what: str) -> list[str]:
    problems = []
    if Fraction(got_xs) != want_xs:
        problems.append(f"{what}: char_xs {got_xs} vs {want_xs}")
    if Fraction(got_yxi) != want_yxi:
        problems.append(f"{what}: char_yxi {got_yxi} vs {want_yxi}")
    return problems


# -- maps of pairs ------------------------------------------------------


def exact_rank(matrix) -> int:
    """Rank over the rationals by Gaussian elimination."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def check_check_map(payload: dict, matrix) -> list[str]:
    """check-map report against the drawn normal block A."""
    problems = []
    if payload.get("adapted") is not True:
        return [f"check-map: adapted is {payload.get('adapted')!r}"]
    dn = payload.get("normal_derivative_at_0")
    if (
        not isinstance(dn, list)
        or len(dn) != len(matrix)
        or any(len(r) != len(a) for r, a in zip(dn, matrix))
        or any(abs(float(v) - a) > CHECK_MAP_ATOL for r, ar in zip(dn, matrix) for v, a in zip(r, ar))
    ):
        problems.append(f"check-map: normal derivative {dn!r}, expected {matrix!r}")
    if payload.get("rank_normal_derivative") != exact_rank(matrix):
        problems.append(
            f"check-map: normal rank {payload.get('rank_normal_derivative')!r}, exact rank {exact_rank(matrix)}"
        )
    residual = payload.get("ad_fd_residual")
    if not isinstance(residual, (int, float)) or not residual <= FD_RESIDUAL_TOL:
        problems.append(f"check-map: ad_fd_residual {residual!r}")
    return problems


# -- command line -------------------------------------------------------


def check_exit(code: int, stderr: str = "") -> list[str]:
    if code == 0:
        return []
    return [f"exit code {code}: {stderr.strip()[-200:]}"]
