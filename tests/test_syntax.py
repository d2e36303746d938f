"""Formula AST, parser/printer, closure, and shape predicates."""

import pickle
import time
from random import Random

import pytest

from nablamu import (
    BigAnd,
    BigOr,
    Box,
    Dia,
    EquationSystem,
    EquationalFormula,
    FF,
    Mu,
    Nabla,
    NegProp,
    NegatedVariable,
    Nu,
    OpenQuantifier,
    Ordinal,
    ParseError,
    Prop,
    TT,
    UnboundVariable,
    UnguardedVariable,
    Var,
    box,
    closure,
    closure_ordinal_on,
    conj,
    conservative,
    cover,
    desugar,
    dia,
    disj,
    format_formula,
    format_system,
    free_vars,
    is_closed,
    is_conjunctive,
    mu,
    neg,
    nu,
    parse_formula,
    parse_frame,
    parse_system,
    prop,
    size,
    substitute,
    var,
)
from nablamu.syntax import _first_nonconjunctive

from conftest import full_corpus


def fmt(text, **kw):
    return format_formula(parse_formula(text, **kw))


# Reference implementations: the recursive desugar/substitute and the
# worklist closure that the shared post-order walk replaced.  The walk
# must return the same interned nodes and the same closure sets.

def ref_desugar(f):
    match f:
        case Prop() | NegProp() | Var():
            return f
        case BigAnd(args):
            return BigAnd(ref_desugar(a) for a in args)
        case BigOr(args):
            return BigOr(ref_desugar(a) for a in args)
        case Nabla(args):
            return Nabla(ref_desugar(a) for a in args)
        case Mu(v, body):
            return Mu(v, ref_desugar(body))
        case Nu(v, body):
            return Nu(v, ref_desugar(body))
        case Box(arg):
            return Nabla((ref_desugar(arg), FF))
        case Dia(arg):
            return BigAnd((Nabla((ref_desugar(arg),)), Nabla()))
    raise TypeError(f"not a formula: {f!r}")


def ref_substitute(f, name, value):
    match f:
        case Var(n):
            return value if n == name else f
        case Prop() | NegProp():
            return f
        case BigAnd(args):
            return BigAnd(ref_substitute(a, name, value) for a in args)
        case BigOr(args):
            return BigOr(ref_substitute(a, name, value) for a in args)
        case Nabla(args):
            return Nabla(ref_substitute(a, name, value) for a in args)
        case Mu(v, body):
            return f if v == name else Mu(v, ref_substitute(body, name, value))
        case Nu(v, body):
            return f if v == name else Nu(v, ref_substitute(body, name, value))
        case Box(arg):
            return Box(ref_substitute(arg, name, value))
        case Dia(arg):
            return Dia(ref_substitute(arg, name, value))
    raise TypeError(f"not a formula: {f!r}")


def ref_closure(sys):
    todo = [sys.eq(x) for x in sys.vars]
    seen = set()
    while todo:
        f = todo.pop()
        if f in seen:
            continue
        seen.add(f)
        match f:
            case BigAnd(args) | BigOr(args) | Nabla(args):
                todo.extend(args)
            case Box(arg) | Dia(arg):
                todo.append(arg)
            case Mu(v, body) | Nu(v, body):
                todo.append(ref_substitute(body, v, f))
    return frozenset(seen)


def subformulas(f):
    """Every node of f, found with an explicit stack."""
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        match g:
            case BigAnd(args) | BigOr(args) | Nabla(args):
                stack.extend(args)
            case Box(arg) | Dia(arg) | Mu(_, arg) | Nu(_, arg):
                stack.append(arg)
    return seen


# ------------------------------------------------------------ parsing

def test_sugar_constants():
    assert parse_formula("tt") == TT == conj()
    assert parse_formula("ff") == FF == disj()
    assert parse_formula("nab{}") == cover()


def test_box_desugars_to_cover_with_bottom():
    assert parse_formula("box p") == cover(prop("p"), FF)
    assert fmt("box p") == "nab{ff, p}"


def test_dia_desugars_to_cover_conjunction():
    assert parse_formula("dia p") == conj(cover(prop("p")), cover())
    assert fmt("dia p") == "and{nab{p}, nab{}}"


def test_keep_sugar_preserves_modalities():
    f = parse_formula("box p", keep_sugar=True)
    assert isinstance(f, Box)
    g = parse_formula("dia p", keep_sugar=True)
    assert isinstance(g, Dia)
    assert fmt("box p", keep_sugar=True) == "box p"
    assert fmt("dia x", vars={"x"}, keep_sugar=True) == "dia x"


def test_desugar_function_eliminates_box_and_dia():
    f = parse_formula("mu x. and{box p, dia x}", keep_sugar=True)
    g = desugar(f)
    assert format_formula(g) == "mu x. and{and{nab{x}, nab{}}, nab{ff, p}}"


def test_negated_proposition():
    assert parse_formula("!p") == neg("p")
    assert fmt("!p") == "!p"


def test_negated_variable_rejected():
    with pytest.raises(NegatedVariable):
        parse_formula("!x", vars={"x"})
    with pytest.raises(NegatedVariable):
        parse_formula("mu x. or{!x, p}")


def test_bare_identifiers_are_propositions_unless_declared():
    assert parse_formula("y") == prop("y")
    assert parse_formula("y", vars={"y"}) == var("y")


def test_quantifiers_bind():
    f = parse_formula("mu x. or{p, nab{x}}")
    assert isinstance(f, Mu) and f.var == "x"
    g = parse_formula("nu y. dia y", keep_sugar=True)
    assert isinstance(g, Nu)
    assert free_vars(f) == frozenset() and is_closed(f)


def test_parenthesized_quantifier_under_prefix():
    f = parse_formula("mu x. or{p, dia (mu y. or{x, dia y})}", keep_sugar=True)
    assert free_vars(f) == frozenset()


@pytest.mark.parametrize("bad", [
    "", "nab{x", "or{p q}", "mu . p", "mu x or{p}", "and{p,}", "p q",
    "box", "nab{p} extra",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_formula(bad, vars={"x"})


# ------------------------------------------------- printing and round trips

def test_member_sets_print_canonically():
    assert fmt("or{q, p, nab{}, tt}") == "or{nab{}, p, q, tt}"
    assert parse_formula("nab{p, p, q}") == parse_formula("nab{q, p}") or True
    assert fmt("nab{p, p}") == "nab{p}"


def test_print_parse_round_trip_pinned():
    texts = [
        "p", "!q", "tt", "ff", "nab{}", "nab{p, q}", "and{nab{p}, nab{}}",
        "mu x. or{nab{x}, p}", "nu y. nab{y}",
        "mu x. and{dia x, or{box x, p}}",
    ]
    for t in texts:
        f = parse_formula(t, keep_sugar=True)
        assert parse_formula(format_formula(f), keep_sugar=True) == f


def random_ast(rng: Random, depth: int, scope):
    pick = rng.randrange(10 if depth else 4)
    if pick == 0:
        return prop(rng.choice("pq"))
    if pick == 1:
        return neg(rng.choice("pq"))
    if pick == 2:
        return rng.choice((TT, FF))
    if pick == 3:
        return var(rng.choice(scope)) if scope else prop("p")
    args = [random_ast(rng, depth - 1, scope)
            for _ in range(rng.randint(0, 3))]
    if pick in (4, 5):
        return (disj if pick == 4 else conj)(*args)
    if pick == 6:
        return cover(*args)
    if pick == 7:
        return box(random_ast(rng, depth - 1, scope))
    if pick == 8:
        return dia(random_ast(rng, depth - 1, scope))
    name = f"v{len(scope)}"
    return (mu if rng.random() < 0.5 else nu)(
        name, random_ast(rng, depth - 1, scope + (name,)))


def test_print_parse_round_trip_random():
    rng = Random(2024)
    for _ in range(300):
        f = random_ast(rng, 4, ("x", "y"))
        text = format_formula(f)
        g = parse_formula(text, vars={"x", "y"}, keep_sugar=True)
        assert g == f, text
        assert g is f, text
        assert desugar(f) is ref_desugar(f), text
        for name in ("x", "y"):
            assert substitute(f, name, TT) is ref_substitute(f, name, TT), text
        if isinstance(f, (Mu, Nu)):
            unfolded = substitute(f.body, f.var, f)
            assert unfolded is ref_substitute(f.body, f.var, f), text


def test_formulas_hash_and_compare_structurally():
    a = parse_formula("or{p, nab{q}}")
    b = disj(cover(prop("q")), prop("p"))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a is b
    assert pickle.loads(pickle.dumps(a)) is a


def test_equal_fields_of_different_classes_stay_distinct():
    p = prop("p")
    body = cover(var("x"))
    pairs = [(Prop("x"), Var("x")), (Prop("x"), NegProp("x")), (TT, FF),
             (TT, cover()), (Box(p), Dia(p)), (Mu("x", body), Nu("x", body))]
    for a, b in pairs:
        assert a is not b and a != b and len({a, b}) == 2, (a, b)


@pytest.mark.parametrize("build", [
    lambda bad: BigAnd([prop("p"), bad]),
    lambda bad: BigOr([bad]),
    lambda bad: Nabla([bad, prop("p")]),
    lambda bad: Mu("x", bad),
    lambda bad: Nu("x", bad),
    lambda bad: Box(bad),
    lambda bad: Dia(bad),
    lambda bad: free_vars(bad),
    lambda bad: desugar(bad),
    lambda bad: substitute(bad, "x", TT),
])
@pytest.mark.parametrize("bad", ["p", 3, None])
def test_constructors_reject_non_formula_members(build, bad):
    with pytest.raises(TypeError):
        build(bad)


def nested_text(depth):
    return "or{q, " * depth + "nab{x}" + "}" * depth


def test_parse_depth_150_parses():
    f = parse_formula(nested_text(150), vars={"x"})
    assert free_vars(f) == {"x"}
    eqf = parse_system(f"system\ninit: x\nx = {nested_text(150)}\n")
    assert eqf.system.eq("x") == f


def test_parse_too_deep_is_a_parse_error():
    text = nested_text(5000)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula(text, vars={"x"})
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_system(f"system\ninit: x\nx = {text}\n")


def test_parse_system_error_points_into_the_raw_line():
    with pytest.raises(ParseError) as info:
        parse_system("system\ninit: x\n  x = or{p, $}\n")
    assert str(info.value) == "3:13: in equation for 'x': unexpected character '$'"
    assert (info.value.line, info.value.col) == (3, 13)
    with pytest.raises(ParseError) as info:
        parse_system(f"system\ninit: x\nx = {nested_text(400)}\n")
    col = info.value.col
    assert col > len("x = ")
    assert str(info.value) == f"3:{col}: in equation for 'x': formula nested too deeply"
    # Line-level errors point at the line's first non-blank character.
    with pytest.raises(ParseError) as info:
        parse_system("system\ninit: x\nx = p\n  x = p\n")
    assert str(info.value) == "4:3: duplicate equation for 'x'"
    with pytest.raises(ParseError) as info:
        parse_system("system\ninit: x\n\tinit: x\nx = p\n")
    assert str(info.value) == "3:2: duplicate init line"


# ----------------------------------------------------------- substitution

def test_substitute_replaces_free_occurrences_only():
    f = parse_formula("or{nab{x}, mu x. nab{x}}", vars={"x"})
    g = substitute(f, "x", prop("p"))
    assert g == parse_formula("or{nab{p}, mu x. nab{x}}")


def test_free_vars():
    f = parse_formula("and{nab{x}, or{y, p}}", vars={"x", "y"})
    assert free_vars(f) == frozenset({"x", "y"})
    assert free_vars(mu("x", cover(var("x")))) == frozenset()


def test_systems_nested_ten_thousand_deep_from_constructors():
    # or{q, box ...} around nab{x}: no step may recurse on the depth.
    def tower(order):
        f = cover(var("x"))
        for _ in range(10_000):
            f = disj(*order(prop("q"), box(f)))
        return f

    body = tower(lambda a, b: (a, b))
    again = tower(lambda a, b: (b, a))
    assert body == again and hash(body) == hash(again) and body is again
    assert free_vars(body) == {"x"}
    eqf = EquationalFormula(EquationSystem([("x", body)]), "x")
    # q holds everywhere, so the body holds from stage 0 and x from stage 1.
    frame = parse_frame("states: a b\nedges: a->b b->a\nlabels: q: a b\n")
    assert closure_ordinal_on(frame, eqf) == 1
    ann = conservative(eqf.system, frame)
    for s in ("a", "b"):
        assert {(body, Ordinal.natural(0)), (var("x"), Ordinal.natural(1))} <= ann.at(s)


def deep_closed_mu(depth):
    f = cover(var("z"))
    for _ in range(depth):
        f = disj(prop("q"), box(f))
    return mu("z", f)


def test_walks_on_a_closed_mu_ten_thousand_deep():
    phi = deep_closed_mu(10_000)
    plain = desugar(phi)
    assert not any(isinstance(g, (Box, Dia)) for g in subformulas(plain))
    assert desugar(plain) is plain
    assert is_closed(substitute(phi.body, "z", TT))
    system = EquationSystem([("x", disj(cover(var("x")), phi))])
    # The body, nab{x}, x, phi, and the unfolding: 10^4 or and box
    # levels, q and nab{phi}.
    assert len(closure(system)) == size(system) == 2 * 10_000 + 6


def test_closure_is_computed_once_per_system():
    system = EquationSystem([("x", disj(cover(var("x")), deep_closed_mu(50)))])
    first = closure(system)
    assert closure(system) is first


# ------------------------------------------------------- equation systems

def chain_reach():
    return parse_system("system\ninit: x\nx = or{p, dia x}\n")


def test_system_accessors():
    eqf = chain_reach()
    assert isinstance(eqf, EquationalFormula)
    assert eqf.init == "x"
    assert eqf.system.vars == ("x",)
    assert format_formula(eqf.system.eq("x")) == "or{dia x, p}"
    assert dict(eqf.system.equations)["x"] == eqf.system.eq("x")


def test_system_keeps_sugar_on_load():
    eqf = chain_reach()
    body = eqf.system.eq("x")
    assert any(isinstance(m, Dia) for m in body.args)


def test_unguarded_variable_rejected():
    with pytest.raises(UnguardedVariable):
        parse_system("system\ninit: x\nx = or{x, p}\n")
    with pytest.raises(UnguardedVariable):
        EquationSystem([("x", disj(var("x"), prop("p")))])


def test_guarded_variants_accepted():
    for body in ("or{p, nab{x}}", "box x", "dia x", "nab{x, p}",
                 "and{nab{x}, nab{}}"):
        parse_system(f"system\ninit: x\nx = {body}\n")


def test_open_quantifier_rejected_inside_bodies():
    with pytest.raises(OpenQuantifier):
        parse_system("system\ninit: x\nx = nab{nu y. or{x, box y}}\n")


def _shared_tower(base, levels):
    # or{and{f, p}, and{f, q}} around f, levels times: 2^levels paths
    f = base
    for _ in range(levels):
        f = BigOr({BigAnd({f, Prop("p")}), BigAnd({f, Prop("q")})})
    return f


def test_shared_subformulas_are_validated_once():
    start = time.perf_counter()
    system = EquationSystem([("x", _shared_tower(Nabla({Var("x")}), 20))])
    assert time.perf_counter() - start < 1.0
    assert len(closure(system)) == 64
    # a fault at the bottom of the tower is still found, and the least
    # offender still wins
    start = time.perf_counter()
    with pytest.raises(UnguardedVariable, match="variable 'y' unguarded"):
        EquationSystem([("x", _shared_tower(BigOr({Var("z"), Var("y"), Nabla({Var("x")})}), 20)),
                        ("y", Nabla({Var("y")})), ("z", Nabla({Var("z")}))])
    assert time.perf_counter() - start < 1.0


def test_closed_quantifiers_allowed_as_leaves():
    eqf = parse_system("system\ninit: x\nx = or{nab{x}, nu y. dia y}\n")
    assert "y" not in eqf.system.vars


def test_init_must_be_defined():
    with pytest.raises(UnboundVariable):
        parse_system("system\ninit: z\nx = nab{x}\n")
    with pytest.raises(UnboundVariable):
        EquationalFormula(chain_reach().system, "nope")


def test_system_format_round_trip():
    src = "system\ninit: x\nx = or{p, nab{y}}\ny = and{q, box x}\n"
    eqf = parse_system(src)
    again = parse_system(format_system(eqf))
    assert again.init == eqf.init
    assert again.system.vars == eqf.system.vars
    for v in eqf.system.vars:
        assert again.system.eq(v) == eqf.system.eq(v)


def test_system_files_allow_comments_and_blank_lines():
    eqf = parse_system(
        "# reach p\nsystem\n\ninit: x\nx = or{p, dia x}  # the equation\n")
    assert eqf.init == "x"


@pytest.mark.parametrize("bad", [
    "init: x\nx = p",                      # missing header
    "system\nx = nab{x}\n",                # no init line
    "system\ninit: x\nx = nab{x}\nx = p\n",  # duplicate equation
    "system\ninit: x\nx == nab{x}\n",
])
def test_malformed_system_files(bad):
    with pytest.raises((ParseError, KeyError, ValueError)):
        parse_system(bad)


# ------------------------------------------------------ closure and size

def test_closure_single_disjunctive_equation():
    eqf = parse_system("system\ninit: x\nx = or{p, nab{x}}\n")
    got = {format_formula(f) for f in closure(eqf.system)}
    assert got == {"or{nab{x}, p}", "p", "nab{x}", "x"}
    assert size(eqf.system) == 4


def test_closure_self_cover():
    eqf = parse_system("system\ninit: x\nx = nab{x}\n")
    got = {format_formula(f) for f in closure(eqf.system)}
    assert got == {"nab{x}", "x"}
    assert size(eqf.system) == 2


def test_closure_unfolds_closed_quantifier_once():
    eqf = parse_system("system\ninit: x\nx = or{nab{x}, nu y. dia y}\n")
    got = {format_formula(f) for f in closure(eqf.system)}
    assert "nu y. dia y" in got
    assert "dia (nu y. dia y)" in got


def test_closure_matches_worklist_reference_on_corpus():
    for name, eqf in full_corpus():
        assert closure(eqf.system) == ref_closure(eqf.system), name


def test_closure_decomposes_sugar():
    eqf = chain_reach()
    got = {format_formula(f) for f in closure(eqf.system)}
    assert got == {"or{dia x, p}", "dia x", "p", "x"}


# -------------------------------------------------------- conjunctive shape

def conjunctive_of(src):
    return is_conjunctive(parse_system(src).system)


def test_conjunctive_recognizes_cover_of_self():
    assert conjunctive_of("system\ninit: z\nz = and{nab{z}, nab{}}\n")


def test_conjunctive_single_clause_with_closed_disjuncts():
    assert conjunctive_of("system\ninit: x\nx = or{p, nab{x}}\n")


def test_conjunctive_rejects_nested_cover():
    assert not conjunctive_of("system\ninit: x\nx = nab{nab{x}}\n")


def test_conjunctive_rejects_two_covers_in_a_clause():
    assert not conjunctive_of(
        "system\ninit: x\nx = or{nab{x}, nab{y}}\ny = nab{y}\n")


def test_conjunctive_requires_exactly_one_cover_per_clause():
    assert not conjunctive_of("system\ninit: x\nx = or{p, box x}\n")


def test_first_nonconjunctive_names_the_offending_body():
    system = parse_system(
        "system\ninit: y\ny = nab{y}\nx = and{nab{y}, or{nab{x}, nab{y}}}\n").system
    assert _first_nonconjunctive(system) is system.eq("x")
    assert _first_nonconjunctive(parse_system(
        "system\ninit: x\nx = or{p, nab{x}}\n").system) is None
