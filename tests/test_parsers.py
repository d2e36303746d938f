"""The parsers' error contract: on any text each parser returns a value
or raises one of its documented ``ValueError`` subclasses, and those
errors survive pickling."""

import os
import pickle
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nablamu import (
    AnnotationParseError,
    EquationSystem,
    FrameParseError,
    Mu,
    Nabla,
    NegatedVariable,
    OpenQuantifier,
    Ordinal,
    ParseError,
    TranslationFailure,
    UnboundVariable,
    UnguardedVariable,
    Var,
    disj,
    parse_annotation,
    parse_formula,
    parse_frame,
    parse_system,
)
from nablamu.ordinal import OrdinalParseError

# Fixed examples, no example database: the run is the same every time.
CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=100)

FORMULA_TOKENS = ("mu", "nu", "x", "y", "p", "q", ".", "{", "}", ",", "or", "and",
                  "nab", "box", "dia", "!", "(", ")", "tt", "ff", "system", " ", "\n")
SYSTEM_TOKENS = FORMULA_TOKENS + ("system\n", "init: x\n", "init:", "\nx = ", "\ny = ",
                                  "=", "#", "\n")
FRAME_TOKENS = ("states:", "edges:", "labels:", "root:", "s0", "s1", "s2", "->", "-",
                ">", ";", ":", "p", "q", " ", "\n", "#")
ORDINAL_TOKENS = ("w", "^", ".", "+", "0", "1", "2", "10", " ", "w^2", "w.3", "²", "١")
ANNOTATION_TOKENS = ("s0", "s1", "s9", ":", ";", "@", "x", "p", "!", "nab{", "or{", "}",
                     ",", "mu", ".", "w", "0", "1", "+", " ", "\n", "#")


# Printable ASCII, control characters, line breaks that str.splitlines
# honours, and non-ASCII letters and digits.
ALPHABET = string.printable + "\x00\x0b\x1c\x85\u2028²١éλ"


def texts(tokens):
    """Arbitrary text, and text built from the format's tokens with
    arbitrary characters between them."""
    chars = st.text(ALPHABET, max_size=2)
    pieces = st.one_of(st.sampled_from(tokens), chars)
    return st.one_of(st.text(ALPHABET, max_size=30), st.lists(pieces, max_size=25).map("".join))


def returns_or_raises(call, errors):
    try:
        call()
    except errors:
        pass


@CONTRACT
@given(texts(FORMULA_TOKENS), st.sampled_from([(), ("x",), ("x", "y")]), st.booleans())
def test_parse_formula_raises_only_its_errors(text, names, keep_sugar):
    returns_or_raises(lambda: parse_formula(text, vars=names, keep_sugar=keep_sugar),
                      (ParseError, NegatedVariable))


def _system_text(equations):
    return "system\ninit: x\n" + "".join(f"{name} = {body}\n" for name, body in equations)


@CONTRACT
@given(st.one_of(texts(SYSTEM_TOKENS), st.lists(
    st.tuples(st.sampled_from(("x", "y", "mu")), st.one_of(
        st.sampled_from(("p", "nab{x}", "or{p, nab{y}}", "dia x", "x", "!x", "mu z. nab{z}",
                         "mu z. nab{x}")),
        texts(FORMULA_TOKENS))),
    max_size=3).map(_system_text)))
def test_parse_system_raises_only_its_errors(text):
    returns_or_raises(lambda: parse_system(text),
                      (ParseError, NegatedVariable, UnboundVariable, UnguardedVariable,
                       OpenQuantifier))


@CONTRACT
@given(texts(FRAME_TOKENS))
def test_parse_frame_raises_only_its_errors(text):
    returns_or_raises(lambda: parse_frame(text), FrameParseError)


ORDINAL_TERMS = st.lists(st.sampled_from(ORDINAL_TOKENS), min_size=1, max_size=4).map("".join)


@CONTRACT
@given(st.one_of(texts(ORDINAL_TOKENS), st.lists(ORDINAL_TERMS, min_size=1, max_size=3).map("+".join)))
def test_ordinal_parse_raises_only_its_errors(text):
    returns_or_raises(lambda: Ordinal.parse(text), OrdinalParseError)


ANN_FRAME = parse_frame("states: s0 s1\nedges: s0->s1\nlabels: p: s1\n")


ANNOTATION_LINES = st.tuples(
    st.sampled_from(("s0", "s1", "s9")),
    st.one_of(st.sampled_from(("!x", "p", "x", "!p", "nab{x}", "or{p, x}")), texts(FORMULA_TOKENS)),
    st.one_of(st.sampled_from(("0", "1", "w", "w+1")), texts(ORDINAL_TOKENS)),
).map(lambda line: "{}: {} @ {}".format(*line))


@CONTRACT
@given(st.one_of(texts(ANNOTATION_TOKENS), st.lists(ANNOTATION_LINES, max_size=3).map("\n".join)))
def test_parse_annotation_raises_only_its_errors(text):
    returns_or_raises(lambda: parse_annotation(text, ANN_FRAME, variables=("x",)),
                      AnnotationParseError)


@pytest.mark.parametrize("call, error", [
    (lambda: Ordinal.parse("²"), OrdinalParseError),
    (lambda: Ordinal.parse("w^" + "1" * 5000), OrdinalParseError),
    (lambda: Ordinal.parse("1" * 5000), OrdinalParseError),
    (lambda: parse_annotation("s0: !x @ 1", ANN_FRAME, variables=("x",)),
     AnnotationParseError),
], ids=["superscript digit", "long exponent", "long natural", "negated variable"])
def test_inputs_that_raised_undocumented_errors(call, error):
    with pytest.raises(error):
        call()


def test_duplicate_equation_is_a_parse_error_at_its_line():
    with pytest.raises(ParseError) as info:
        parse_system("system\ninit: x\nx = nab{x}\n  x = p\n")
    assert info.value.line == 4
    assert "duplicate equation for 'x'" in str(info.value)


def _raised(call):
    try:
        call()
    except ValueError as exc:
        return exc
    raise AssertionError("no error raised")


@pytest.mark.parametrize("exc", [
    ParseError("m", 1, 2),
    _raised(lambda: parse_system("system\ninit: x\n  x = or{p, $}\n")),
    _raised(lambda: parse_frame("states: s0\nedges: s0->s9\n")),
    _raised(lambda: parse_annotation("s0: p", ANN_FRAME)),
    _raised(lambda: Ordinal.parse("w^")),
    TranslationFailure("disagrees", mismatches=(("E1#0", ("s0",), ()),)),
], ids=["ParseError", "parse_system", "FrameParseError", "AnnotationParseError",
        "OrdinalParseError", "TranslationFailure"])
def test_errors_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    for attr in ("message", "line", "col", "mismatches"):
        assert getattr(back, attr, None) == getattr(exc, attr, None)


# Inputs with several faults of one kind (or of several kinds), and the
# one message each must give: the first kind in a fixed precedence, and
# the least offender of that kind.
OFFENDERS = {
    "states: s0 s1\nedges: s0->a s0->b s1->c s1->d\n": "edge s0->a: unknown state 'a'",
    "states: s0\nlabels: p: w u v\n": "label p: unknown state 'u'",
    "states: r a b\nedges: r->b a->b a->r\nroot: r\n": "edge into the root 'r'",
    "states: r a b c d\nedges: r->a r->b a->d b->d a->c b->c\nroot: r\n": "state 'c' has two parents",
    "system\ninit: x\nx = or{x, y, z, w}\ny = nab{y}\nz = nab{z}\nw = nab{w}\n":
        "variable 'w' unguarded in equation for 'x'",
    "system\ninit: x\nx = or{mu c. nab{c, x}, mu a. nab{a, x}, mu b. nab{b, x}}\n":
        "quantified subformula 'mu a. nab{a, x}' in equation for 'x' has free variables ['x']",
    "system\ninit: x\nx = or{mu a. nab{a, x}, x, nab{x}}\n": "variable 'x' unguarded in equation for 'x'",
}

OFFENDER_PROBE = """
import sys
from nablamu import parse_formula, parse_frame, parse_system
for i in range(int(sys.argv[1])):
    parse_formula(f"and{{p{i}, nab{{q{i}, r}}}}")
for text in sys.argv[2:]:
    try:
        (parse_system if text.startswith("system") else parse_frame)(text)
    except ValueError as exc:
        print(str(exc).replace(chr(10), " "))
"""


def test_errors_name_one_offender_under_any_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    procs = [subprocess.Popen([sys.executable, "-c", OFFENDER_PROBE, str(1000 * seed), *OFFENDERS],
                              stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed)))
             for seed in range(4)]
    outs = {proc.communicate()[0] for proc in procs}
    assert [proc.returncode for proc in procs] == [0] * 4
    assert outs == {"".join(m + "\n" for m in OFFENDERS.values())}


def test_unbound_variable_comes_before_the_other_faults():
    body = disj(Var("x"), Var("z"), Var("y"), Mu("a", Nabla((Var("a"), Var("x")))))
    with pytest.raises(UnboundVariable, match="variable 'y' in equation for 'x' has no equation"):
        EquationSystem([("x", body)])
