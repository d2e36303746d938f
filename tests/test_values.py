"""The package's records, values and public names: the records are
tuples with the equality, hash, repr and truth of the frozen records
they replace; frames, systems, annotations and annotated trees share
one value contract (immutable, equal and hashed by key, pickled and
copied to equal values); and every exported name resolves."""

import copy
import pickle
from importlib import import_module

import pytest

import nablamu
from nablamu import (
    OMEGA,
    ONE,
    ZERO,
    AnnotatedTree,
    Annotation,
    BoundEstimate,
    EquationalFormula,
    EquationSystem,
    Frame,
    HypothesisUnmet,
    NotOptimal,
    PairFound,
    PossiblyOptimal,
    RepetitionPair,
    TranslationReport,
    TreeFrame,
    Var,
    Violation,
    conservative,
    extract_relevant,
    parse_frame,
    parse_system,
)
from nablamu.syntax import _Value

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


# ---------------------------------------------------------------- values

FRAME = parse_frame("states: s0 s1 s2\nedges: s0->s1 s1->s2 s2->s2\nlabels: p: s2 ; q: s0 s2\n")
TREE = parse_frame("states: s0 s1 s2\nedges: s0->s1 s1->s2\nlabels: p: s2\nroot: s0\n")
_RELEVANT = extract_relevant(conservative(SYSTEM.system, TREE), SYSTEM.system, "x")

# each value with its public fields
VALUES = [
    (FRAME, ("states", "edges", "labels")),
    (TREE, ("states", "edges", "labels", "root")),
    (SYSTEM.system, ("vars", "equations")),
    (SYSTEM, ("system", "init")),
    (conservative(SYSTEM.system, FRAME), ("frame",)),
    (AnnotatedTree(*_RELEVANT), ("tree", "theta", "phi")),
]
VALUE_IDS = [type(v).__name__ for v, _ in VALUES]


def _copies(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle {protocol}", pickle.loads(pickle.dumps(value, protocol))
    yield "copy", copy.copy(value)
    yield "deepcopy", copy.deepcopy(value)


@pytest.mark.parametrize("value, fields", VALUES, ids=VALUE_IDS)
def test_value_pickles_and_copies_to_an_equal_value(value, fields):
    for how, other in _copies(value):
        assert type(other) is type(value), how
        assert other == value and not other != value and hash(other) == hash(value), how
        assert all(getattr(other, f) == getattr(value, f) for f in fields), how


@pytest.mark.parametrize("value, fields", VALUES, ids=VALUE_IDS)
def test_value_fields_cannot_be_set_or_deleted(value, fields):
    for name in fields + ("extra",):
        with pytest.raises(AttributeError, match=f"{type(value).__name__} objects are immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_value_contract_is_said_once():
    for cls in (Frame, TreeFrame, EquationSystem, EquationalFormula, Annotation, AnnotatedTree):
        assert issubclass(cls, _Value)
        for name in ("__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__"):
            assert getattr(cls, name) is getattr(_Value, name), (cls, name)
    assert "_Value" not in nablamu.__all__


def test_frame_labels_are_read_only():
    frame = Frame(FRAME.states, FRAME.edges, FRAME.labels)
    before = dict(frame.labels)
    with pytest.raises(TypeError):
        frame.labels["p"] = frozenset({"s0"})
    with pytest.raises(AttributeError):
        frame.labels.clear()
    assert frame.labels == before and isinstance(frame.labels["p"], frozenset)


def test_frame_hash_is_computed_once_on_first_use():
    frame = Frame(FRAME.states, FRAME.edges, FRAME.labels)
    assert not hasattr(frame, "_hash")
    first = hash(frame)
    assert frame._hash == first == hash(frame)
    # the same value from labels given in another order, as plain lists
    same = Frame(frame.states, reversed(sorted(frame.edges)),
                 {p: sorted(ms) for p, ms in reversed(frame.labels.items())})
    assert same == frame and hash(same) == first


def test_frame_and_tree_frame_stay_unequal():
    flat = Frame(TREE.states, TREE.edges, TREE.labels)
    assert flat != TREE and not flat == TREE and TREE != flat
    assert len({flat, TREE}) == 2


def test_annotation_pickles_its_table_not_its_view():
    theta = conservative(SYSTEM.system, FRAME)
    list(theta.items())
    assert theta._view is not None
    back = pickle.loads(pickle.dumps(theta))
    assert back._view is None and back._table == theta._table
    assert list(back.items()) == list(theta.items())
