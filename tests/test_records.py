"""Records behave as the dataclasses they replaced.

For every record class of the package, the test builds an oracle with
``dataclasses.make_dataclass`` from the class's field list and
frozenness, as the ``@dataclass`` declarations gave them, and checks on
sample instances that ``repr``, ``==`` and ``hash`` (or the lack of a
hash) come out the same, exceptions included.  The point records and
``Jet``, as their kernels build them, hold tuples of floats, so they
also compare and hash by value and cannot be changed in place.
"""

import copy
import dataclasses
import importlib

import numpy as np
import pytest

from conecut.expr import Const, Guard, SmoothMapExpr, Var
from conecut.pairs import PairDims
from conecut.record import Record

MODULES = ("expr", "blowup", "dnc", "pairs", "vb", "euler", "groupoid", "verify")

# module.Class -> (fields, frozen), as the former @dataclass declarations had them.
DECLARED = {
    "expr.Const": (("value",), True),
    "expr.Var": (("index",), True),
    "expr.Add": (("left", "right"), True),
    "expr.Sub": (("left", "right"), True),
    "expr.Mul": (("left", "right"), True),
    "expr.Div": (("left", "right"), True),
    "expr.Pow": (("base", "exponent"), True),
    "expr.Sqrt": (("arg",), True),
    "expr.Exp": (("arg",), True),
    "expr.Log": (("arg",), True),
    "expr.Sin": (("arg",), True),
    "expr.Cos": (("arg",), True),
    "expr.Norm": (("args",), True),
    "expr.Guard": (("expr", "kind"), True),
    "expr.Jet": (("value", "jacobian"), True),
    "expr.SmoothMapExpr": (("input_dim", "output_dim", "body", "guards"), True),
    "blowup.Exceptional": (("y", "xi_dir", "dims"), True),
    "blowup.Body": (("x", "dims"), True),
    "blowup.PolarPoint": (("x", "theta", "t"), True),
    "blowup.AlgebraicPoint": (("x", "line"), True),
    "blowup.SphereBody": (("x",), True),
    "blowup.SphereExceptional": (("xi",), True),
    "dnc.DncPoint": (("y", "xi", "t"), True),
    "dnc.NormalSlice": (("y", "xi"), True),
    "dnc.Body": (("x", "t"), True),
    "pairs.PairDims": (("n", "p"), True),
    "pairs.MapOfPairs": (("f", "source", "target"), True),
    "pairs.AdaptedReport": (("ok", "worst_violation", "checked"), True),
    "pairs.RankReport": (
        (
            "rank_f",
            "rank_f_restricted",
            "fiberwise_rank_dN",
            "rank_f_constant",
            "rank_f_restricted_constant",
            "dN_rank_constant",
        ),
        True,
    ),
    "vb.VbPairModel": (("base", "rank_f", "rank_e", "frame"), True),
    "vb.VbBody": (("u", "upsilon"), True),
    "vb.VbExceptional": (("y", "xi", "phi", "eps"), True),
    "vb.LinearityReport": (("max_violation", "ok"), True),
    "euler.VectorField": (("components", "dims"), True),
    "euler.EulerLikeReport": (("vanishes_on_Y", "normal_block_is_identity", "max_violation"), True),
    "groupoid.GroupoidSpec": (
        (
            "arrow_dim",
            "base_dim",
            "source",
            "target",
            "mult",
            "inv",
            "unit",
            "composable_partner",
            "tol",
            "arrow_sampler",
        ),
        True,
    ),
    "groupoid.AxiomReport": (
        ("source_of_product", "target_of_product", "associativity", "unit_laws", "inverse_laws", "samples"),
        False,
    ),
    "groupoid.PolarCheckReport": (("max_structure_violation", "samples"), False),
    "groupoid.IsotropyReport": (("isotropy_dim", "orbit_dim"), False),
    "groupoid.ActionReport": (
        ("identity_violation", "composition_violation", "blowdown_violation", "samples"),
        False,
    ),
    "verify.SuiteResult": (("name", "ok", "max_residual", "tol", "runtime", "details"), False),
}


def _partner(rng, g):
    return g


def _samples() -> dict:
    """Two argument tuples per record class; the second differs from the first."""
    x, y = Var(0), Var(1)
    d21 = PairDims(2, 1)
    a = np.array
    m11 = SmoothMapExpr(1, 1, (x,))
    m22 = SmoothMapExpr(2, 2, (x, y))
    return {
        "expr.Const": ((1.5,), (2.0,)),
        "expr.Var": ((0,), (1,)),
        "expr.Add": ((x, Const(1.0)), (y, Const(1.0))),
        "expr.Sub": ((x, Const(1.0)), (x, y)),
        "expr.Mul": ((x, y), (y, x)),
        "expr.Div": ((x, Const(2.0)), (x, Const(3.0))),
        "expr.Pow": ((x, 2), (x, -1)),
        "expr.Sqrt": ((x,), (y,)),
        "expr.Exp": ((x,), (y,)),
        "expr.Log": ((x,), (y,)),
        "expr.Sin": ((x,), (y,)),
        "expr.Cos": ((x,), (y,)),
        "expr.Norm": (((x, y),), ((x,),)),
        "expr.Guard": ((x, "positive"), (x, "nonzero")),
        "expr.Jet": ((a([1.0]), a([[2.0]])), (a([1.0, 2.0]), np.eye(2))),
        "expr.SmoothMapExpr": ((1, 1, (x,), ()), (1, 1, (Const(2.0),), (Guard(x, "positive"),))),
        "blowup.Exceptional": ((a([0.5]), a([1.0]), d21), (a([0.25]), a([1.0]), d21)),
        "blowup.Body": ((a([1.0, 2.0]), d21), (a([3.0]), PairDims(1, 0))),
        "blowup.PolarPoint": ((a([0.5]), a([0.6, 0.8]), 0.5), (a([0.5]), a([0.6, 0.8]), 1.0)),
        "blowup.AlgebraicPoint": ((a([1.0, 0.0]), a([1.0, 0.0])), (a([0.0]), a([1.0]))),
        "blowup.SphereBody": ((a([0.0, 0.0, -1.0]),), (a([1.0, 0.0, 0.0]),)),
        "blowup.SphereExceptional": ((a([1.0, 0.0]),), (a([0.6, 0.8]),)),
        "dnc.DncPoint": ((a([0.5]), a([1.0]), 0.5), (a([0.5]), a([1.0]), 0.0)),
        "dnc.NormalSlice": ((a([0.5]), a([1.0, 2.0])), (a([0.5]), a([1.0]))),
        "dnc.Body": ((a([0.5, 0.5]), 2.0), (a([0.5, 0.5]), -1.0)),
        "pairs.PairDims": ((2, 1), (3, 0)),
        "pairs.MapOfPairs": ((m22, d21, d21), (m22, d21, PairDims(2, 2))),
        "pairs.AdaptedReport": ((True, 0.0, 128), (False, 0.5, 3)),
        "pairs.RankReport": ((2, 1, 1, True, True, True), (2, 1, 0, True, False, True)),
        "vb.VbPairModel": (
            (d21, 1, 0, SmoothMapExpr(3, 1, (Var(2),))),
            (d21, 1, 1, SmoothMapExpr(4, 2, (Var(2), Var(3)))),
        ),
        "vb.VbBody": ((a([1.0, 0.5]), a([2.0])), (a([1.0, 0.5]), a([2.0, 1.0]))),
        "vb.VbExceptional": (
            (a([0.5]), a([1.0]), a([2.0]), a([3.0])),
            (a([0.5]), a([1.0]), a([2.0]), a([3.0, 4.0])),
        ),
        "vb.LinearityReport": ((0.0, True), (1.0, False)),
        "euler.VectorField": ((SmoothMapExpr(2, 2, (x * 0.0, y)), d21), (m22, d21)),
        "euler.EulerLikeReport": ((True, True, 0.0), (True, False, 1e-3)),
        "groupoid.GroupoidSpec": (
            (2, 1, m22, m22, m22, m22, m11, _partner, 1e-10, None),
            (2, 1, m22, m22, m22, m22, m11, _partner, 1e-9, _partner),
        ),
        "groupoid.AxiomReport": ((0.1, 0.2, 0.3, 0.4, 0.5, 7), (0.0, 0.0, 0.0, 0.0, 0.0, 0)),
        "groupoid.PolarCheckReport": ((1e-12, 50), (0.0, 50)),
        "groupoid.IsotropyReport": ((1, 1), (0, 2)),
        "groupoid.ActionReport": ((0.0, 0.0, 0.0, 10), (0.0, 1e-3, 0.0, 10)),
        "verify.SuiteResult": (
            ("ring", True, 0.0, 1e-12, 0.5, {"samples": 3}),
            ("ring", False, 1.0, 1e-12, 0.5, {}),
        ),
    }


def _class(name: str):
    module, cls = name.split(".")
    return getattr(importlib.import_module(f"conecut.{module}"), cls)


def _oracle(name: str):
    fields, frozen = DECLARED[name]
    return dataclasses.make_dataclass(name.split(".")[1], fields, frozen=frozen)


def _outcome(fn):
    """What calling fn gives: ("value", v) or ("raises", exception type)."""
    try:
        return ("value", fn())
    except Exception as exc:  # the oracle's exception is the expected value
        return ("raises", type(exc))


def _all_records() -> set:
    for module in MODULES:
        importlib.import_module(f"conecut.{module}")
    found, todo = set(), list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        found.add(f"{cls.__module__.removeprefix('conecut.')}.{cls.__qualname__}")
        todo += cls.__subclasses__()
    return found


def test_every_record_is_declared_with_its_fields():
    assert _all_records() == set(DECLARED)
    for name, (fields, _) in DECLARED.items():
        assert _class(name)._fields == fields, name


@pytest.mark.parametrize("name", list(DECLARED))
def test_record_matches_its_dataclass_oracle(name):
    cls, oracle = _class(name), _oracle(name)
    first, second = _samples()[name]
    cases = [(first, first), (first, copy.deepcopy(first)), (first, second), (second, first)]
    for left, right in cases:
        got = _outcome(lambda: cls(*left) == cls(*right))
        assert got == _outcome(lambda: oracle(*left) == oracle(*right)), (left, right)
        got = _outcome(lambda: cls(*left) != cls(*right))
        assert got == _outcome(lambda: oracle(*left) != oracle(*right)), (left, right)
    for args in (first, second):
        record, twin = cls(*args), oracle(*args)
        assert repr(record) == repr(twin)
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(twin))
        assert record != twin and twin != record
        assert record != object() and not record == None  # noqa: E711


@pytest.mark.parametrize("name", [n for n, (_, frozen) in DECLARED.items() if frozen])
def test_frozen_records_refuse_assignment_and_deletion(name):
    record = _class(name)(*_samples()[name][0])
    before = repr(record)
    for field in DECLARED[name][0] + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == before


@pytest.mark.parametrize("name", [n for n, (_, frozen) in DECLARED.items() if not frozen])
def test_mutable_records_take_assignment_and_have_no_hash(name):
    record = _class(name)(*_samples()[name][0])
    field = DECLARED[name][0][0]
    setattr(record, field, "changed")
    assert getattr(record, field) == "changed"
    assert f"{field}='changed'" in repr(record)
    with pytest.raises(TypeError):
        hash(record)


def test_defaults_are_kept():
    from conecut.groupoid import COMPOSABILITY_TOL, AxiomReport, GroupoidSpec
    from conecut.verify import SuiteResult

    first, second = SuiteResult("a", True, 0.0, 1.0, 0.0), SuiteResult("a", True, 0.0, 1.0, 0.0)
    assert first.details == {} and first.details is not second.details
    assert AxiomReport() == AxiomReport(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    m = SmoothMapExpr(1, 1, (Var(0),))
    spec = GroupoidSpec(1, 1, m, m, m, m, m, _partner)
    assert (spec.tol, spec.arrow_sampler) == (COMPOSABILITY_TOL, None)
    assert m.guards == ()


def _kernel_points() -> dict:
    """Each point record and Jet as its own kernel builds it: a function
    that makes a fresh instance on each call, and one of another value."""
    from conecut import blowup as bl
    from conecut import dnc
    from conecut.expr import Sin, from_components, jet_eval
    from conecut.vb import section_blowup, trivial_model

    d31, d20 = PairDims(3, 1), PairDims(2, 0)
    model = trivial_model(d31, 1, 2)
    section = from_components(3, (Var(0), Var(1), Var(2)))

    def body():
        return bl.from_ambient([0.5, 1.0, 2.0], d31)

    def exceptional():
        return bl.canonicalize([0.5], [1.0, 2.0], 0.0, d31)

    def dnc_point(t):
        return dnc.DncPoint.of(np.array([0.5, 0.25]), [1.0, -2.0], t)

    return {
        "blowup.Exceptional": (exceptional, lambda: bl.canonicalize([0.5], [2.0, 1.0], 0.0, d31)),
        "blowup.Body": (body, lambda: bl.from_ambient([0.5, 1.0, 3.0], d31)),
        "blowup.PolarPoint": (lambda: bl.to_polar(body()), lambda: bl.to_polar(exceptional())),
        "blowup.AlgebraicPoint": (
            lambda: bl.to_algebraic(bl.from_ambient([1.0, 2.0], d20)),
            lambda: bl.to_algebraic(bl.canonicalize([], [1.0, 2.0], 0.0, d20)),
        ),
        "blowup.SphereBody": (
            lambda: bl.sphere_chart_inv(1, [0.5, 0.25]),
            lambda: bl.sphere_chart_inv(3, [0.5, 0.25]),
        ),
        "blowup.SphereExceptional": (
            lambda: bl.sphere_chart_inv(1, [0.0, 0.5]),
            lambda: bl.sphere_chart_inv(2, [0.5, 0.0]),
        ),
        "dnc.DncPoint": (
            lambda: dnc.DncMap(_swap_pair())(dnc_point(0.5)),
            lambda: dnc.rx_action(2.0, dnc_point(0.5)),
        ),
        "dnc.NormalSlice": (
            lambda: dnc.psi(dnc_point(0.0)),
            lambda: dnc.psi(dnc.rx_action(2.0, dnc_point(0.0))),
        ),
        "dnc.Body": (lambda: dnc.psi(dnc_point(0.5)), lambda: dnc.psi(dnc_point(-0.5))),
        "vb.VbBody": (
            lambda: section_blowup(model, section, body()),
            lambda: section_blowup(model, section, bl.from_ambient([1.0, 1.0, 2.0], d31)),
        ),
        "vb.VbExceptional": (
            lambda: section_blowup(model, section, exceptional()),
            lambda: section_blowup(model, section, bl.canonicalize([0.25], [1.0, 2.0], 0.0, d31)),
        ),
        "expr.Jet": (
            lambda: jet_eval(from_components(2, (Var(0) * Var(1), Sin(Var(1)))), np.array([0.5, 2.0])),
            lambda: jet_eval(from_components(2, (Var(0) * Var(1), Sin(Var(1)))), [0.5, 3.0]),
        ),
    }


def _swap_pair():
    from conecut.expr import from_components
    from conecut.pairs import MapOfPairs

    dims = PairDims(4, 2)
    return MapOfPairs(from_components(4, (Var(1), Var(0), Var(3), Var(2))), dims, dims)


def _vectors(value):
    """The tuples of floats in a field value, rows of a Jacobian included."""
    if isinstance(value, tuple):
        return [value] + [row for row in value if isinstance(row, tuple)]
    return []


@pytest.mark.parametrize("name", list(_kernel_points()))
def test_point_records_compare_hash_and_stay_frozen(name):
    make, make_other = _kernel_points()[name]
    point, twin, other = make(), make(), make_other()
    assert type(point) is type(twin) is type(other) is _class(name)
    assert point == twin and hash(point) == hash(twin) and not point != twin
    assert point != other and other != point
    assert len({point, twin, other}) == 2
    for field in DECLARED[name][0]:
        value = getattr(point, field)
        assert isinstance(value, (tuple, float, PairDims)), (field, value)
        for vector in _vectors(value):
            assert all(type(c) in (float, tuple) for c in vector), (field, vector)
            with pytest.raises(TypeError):
                vector[0] = 0.0
    assert point == make()
