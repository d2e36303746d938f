"""The package's records and public names: the records are tuples with
the equality, hash, repr and truth of the frozen records they replace,
and every exported name resolves."""

from importlib import import_module

import pytest

import nablamu
from nablamu import (
    OMEGA,
    ONE,
    ZERO,
    BoundEstimate,
    HypothesisUnmet,
    NotOptimal,
    PairFound,
    PossiblyOptimal,
    RepetitionPair,
    TranslationReport,
    Var,
    Violation,
    parse_system,
)

SYSTEM = parse_system("system\ninit: x\nx = or{p, nab{x}}\n")
PAIR = RepetitionPair("t0", "t2", frozenset({Var("x")}), OMEGA + 1, OMEGA)

# each record with its fields in order, as the frozen records had them
RECORDS = [
    (Violation("s0", "D3.1-2", Var("x"), ONE, "why"),
     ("state", "clause", "formula", "ordinal", "detail")),
    (TranslationReport(SYSTEM, SYSTEM, (("_y0", "role"),), 3, (), (("E1#0", 1, 1),)),
     ("input", "output", "fresh", "frames_checked", "mismatches", "closure_ordinals")),
    (PAIR, ("companion", "bud", "gamma", "alpha", "beta")),
    (PairFound(PAIR), ("pair",)),
    (HypothesisUnmet("no limit state"), ("reason",)),
    (BoundEstimate(ZERO, False, None), ("value", "witnessed", "witness")),
    (NotOptimal(2, OMEGA), ("witness", "annotation")),
    (PossiblyOptimal(), ()),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_value_contract(record, fields):
    cls = type(record)
    values = tuple(getattr(record, f) for f in fields)
    assert cls._fields == fields
    same = cls(*values)
    assert same == record and not same != record and hash(same) == hash(record)
    assert hash(record) == hash(values)
    assert repr(record) == cls.__name__ + "(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    assert record
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_records_differ_when_a_field_differs():
    assert Violation("s0", "c", None, None, "a") != Violation("s0", "c", None, None, "b")
    assert NotOptimal(1, OMEGA) != NotOptimal(1, OMEGA + 1)
    assert len({BoundEstimate(ZERO, False, None), BoundEstimate(ZERO, True, 0)}) == 2


def test_every_exported_name_resolves():
    assert len(nablamu.__all__) == len(set(nablamu.__all__))
    for name in nablamu.__all__:
        assert getattr(nablamu, name) is not None, name
    namespace = {}
    exec("from nablamu import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nablamu.__all__)
    # the package re-exports exactly the public names of its modules
    modules = ("ordinal", "syntax", "frame", "semantics", "annotation", "pump", "normalform")
    public = {name for m in modules for name in import_module(f"nablamu.{m}").__all__}
    assert set(nablamu.__all__) == public and len(public) == 123
    # the package attribute is the function, not the submodule
    assert nablamu.pump is import_module("nablamu.pump").pump
    assert {"Ordinal", "Violation", "TranslationReport", "PossiblyOptimal",
            "to_conjunctive", "conservative"} <= set(nablamu.__all__)
