"""Semantics of the ten record types: construction, equality and hash,
immutability, repr and the validation messages.  Written against the
records' behaviour, not their implementation."""

from __future__ import annotations

import pytest

from appell_kit.bundles import FactorOfAutomorphy, GaugeMatrix, SectionCandidate
from appell_kit.identities import DomainSpec, IdentityDef
from appell_kit.modular import GammaElement, ThetaZeroIndex, divisibility_residual
from appell_kit.numeric import DomainError, EvalPoint, Nome, ResidualReport


def _matrix(z):
    return ((z,),)


def _vector(z):
    return (z,)


def _pairs(point, nome):
    return [(1.0, 1.0)]


def _guard(bindings, u):
    return False


NOME = Nome(0.25 + 0.5j)
POINT = EvalPoint({"z": 2})
FACTOR = FactorOfAutomorphy(1, "L", NOME, _matrix)

#: (record type, positional args, keyword args) that construct equal records.
RECORDS = [
    (Nome, (0.3,), {"u": 0.3}),
    (EvalPoint, ({"z": 1.5, "a": -2j},), {"bindings": {"z": 1.5, "a": -2j}}),
    (
        ResidualReport,
        ("DEF", POINT, NOME, 1j, 1j, 0.0, 1.0, 0.0),
        dict(
            identity_id="DEF", point=POINT, nome=NOME, lhs=1j, rhs=1j,
            abs_residual=0.0, scale=1.0, rel_residual=0.0,
        ),
    ),
    (
        DomainSpec,
        (("z",), (("v", "u"),), _guard),
        dict(symbols=("z",), derived_sqrt=(("v", "u"),), guard=_guard),
    ),
    (
        IdentityDef,
        ("X", "text", DomainSpec(), _pairs),
        dict(identity_id="X", description="text", domain=DomainSpec(), pairs=_pairs),
    ),
    (GammaElement, (1, 2, 0, 1), dict(a=1, b=2, c=0, d=1)),
    (ThetaZeroIndex, (3, -4), dict(m=3, n=-4)),
    (FactorOfAutomorphy, (1, "L", NOME, _matrix), dict(rank=1, label="L", nome=NOME, evaluator=_matrix)),
    (SectionCandidate, (1, "s", _vector), dict(rank=1, label="s", evaluator=_vector)),
    (
        GaugeMatrix,
        ("G", NOME, FACTOR, FACTOR, 2j, _matrix),
        dict(label="G", nome=NOME, source=FACTOR, target=FACTOR, constant=2j, evaluator=_matrix),
    ),
]


@pytest.mark.parametrize("record_type, args, kwargs", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_positional_and_keyword_construction_agree(record_type, args, kwargs):
    by_position, by_keyword = record_type(*args), record_type(**kwargs)
    assert by_position == by_keyword
    assert repr(by_position) == repr(by_keyword)
    for name, value in kwargs.items():
        expected = {k: complex(v) for k, v in value.items()} if name == "bindings" else value
        assert getattr(by_keyword, name) == expected


@pytest.mark.parametrize("record_type, args, kwargs", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable(record_type, args, kwargs):
    record = record_type(*args)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == record_type(**kwargs)


def test_domain_spec_defaults():
    spec = DomainSpec()
    assert spec.symbols == ()
    assert spec.derived_sqrt == ()
    assert spec.guard({}, 0.5) is True
    assert DomainSpec._fields == ("symbols", "derived_sqrt", "guard")
    assert DomainSpec(("a",)) == DomainSpec(symbols=("a",), guard=spec.guard)


@pytest.mark.parametrize(
    "make, same, other",
    [
        (lambda: Nome(0.3 - 0.1j), lambda: Nome(u=0.3 - 0.1j), lambda: Nome(0.3 + 0.1j)),
        (lambda: GammaElement(3, 2, 4, 3), lambda: GammaElement(a=3, b=2, c=4, d=3), lambda: GammaElement(1, 2, 0, 1)),
        (lambda: ThetaZeroIndex(1, -2), lambda: ThetaZeroIndex(m=1, n=-2), lambda: ThetaZeroIndex(-2, 1)),
    ],
)
def test_value_records_compare_and_hash_by_fields(make, same, other):
    a, b, c = make(), same(), other()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert {a: "first"}[b] == "first"


def test_gamma_group_law_stays_in_the_type():
    g = GammaElement(1, 2, 0, 1) @ GammaElement(0, -1, 1, 0)
    assert g == GammaElement(2, -1, 1, 0)
    assert type(g) is GammaElement


def test_reprs_name_every_field():
    assert repr(Nome(0.5)) == "Nome(u=0.5)"
    assert repr(EvalPoint({"z": 2})) == "EvalPoint(bindings={'z': (2+0j)})"
    assert repr(GammaElement(1, 2, 4, 9)) == "GammaElement(a=1, b=2, c=4, d=9)"
    assert repr(ThetaZeroIndex(0, -1)) == "ThetaZeroIndex(m=0, n=-1)"
    assert repr(ResidualReport("DEF", POINT, Nome(0.5), 1j, 2j, 1.0, 2.0, 0.5)) == (
        "ResidualReport(identity_id='DEF', point=EvalPoint(bindings={'z': (2+0j)}), "
        "nome=Nome(u=0.5), lhs=1j, rhs=2j, abs_residual=1.0, scale=2.0, rel_residual=0.5)"
    )


def test_divisibility_domain_error_quotes_the_gamma_repr():
    with pytest.raises(DomainError) as info:
        divisibility_residual(GammaElement(1, 2, 4, 9), 1.5j)
    assert "for gamma = GammaElement(a=1, b=2, c=4, d=9); pick tau" in str(info.value)


@pytest.mark.parametrize(
    "u, message",
    [
        (1.5, "half-nome u must satisfy 0 < |u| < 1, got |u| = 1.5"),
        (0, "half-nome u must satisfy 0 < |u| < 1, got |u| = 0"),
        (-1, "half-nome u must satisfy 0 < |u| < 1, got |u| = 1"),
        (0.6 + 0.8j, "half-nome u must satisfy 0 < |u| < 1, got |u| = 1.0"),
        (float("nan"), "half-nome u must satisfy 0 < |u| < 1, got |u| = nan"),
    ],
)
def test_nome_validation_message(u, message):
    with pytest.raises(DomainError) as info:
        Nome(u)
    assert str(info.value) == message


def test_nome_q_is_the_square():
    assert Nome(0.5j).q == -0.25


def test_eval_point_validation_and_lookup():
    with pytest.raises(DomainError) as info:
        EvalPoint({"z": 1.0, "a": 0})
    assert str(info.value) == "binding 'a' must be nonzero"
    source = {"z": 2, "a": 1j}
    point = EvalPoint(source)
    source["z"] = 5
    assert point.bindings["z"] == 2 and type(point.bindings["z"]) is complex
    assert "a" in point.bindings and "b" not in point.bindings
    assert list(point.bindings.items()) == [("z", 2 + 0j), ("a", 1j)]
    assert EvalPoint({}) == EvalPoint({}) and point != EvalPoint({"z": 2})
    with pytest.raises(TypeError):
        hash(point)  # its dict is unhashable


@pytest.mark.parametrize(
    "entries, message",
    [
        ((1.0, 0, 0, 1), "entry a must be an integer"),
        ((1, 0, 0, True + 0.5), "entry d must be an integer"),
        ((2, 0, 0, 2), "determinant must be 1, got 4"),
        ((1, 1, 0, 1), "not in Gamma_{1,2}: need a*c and b*d both even, got a*c = 0, b*d = 1"),
    ],
)
def test_gamma_validation_message(entries, message):
    with pytest.raises(DomainError) as info:
        GammaElement(*entries)
    assert str(info.value) == message
