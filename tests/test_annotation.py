"""Well-annotations: checker clauses, the conservative construction,
the refinement order, relevant parts, and the serializations."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from nablamu import (
    Annotation,
    AnnotationParseError,
    ExtractionFailure,
    ForeignFormula,
    FrameIndex,
    NegProp,
    OMEGA,
    Ordinal,
    Prop,
    UnknownState,
    annotation_from_json,
    annotation_to_json,
    box_set,
    check_relevant,
    check_well_annotation,
    closure,
    conservative,
    czarnecki,
    czarnecki_formula,
    denotation,
    desugar,
    dia_set,
    enumerate_frames,
    eval_formula,
    extract_relevant,
    format_annotation,
    format_formula,
    iterate_stages,
    parse_annotation,
    parse_formula,
    parse_frame,
    parse_system,
    preceq,
    preceq_annotation,
    random_frame,
    sort_key,
    stabilize,
    to_equational,
    unravel,
    verify_conservative,
)
from nablamu.frame import TreeFrame

from nablamu.annotation import _entry_key

from conftest import (CORPUS_DIR, full_corpus, random_instance, random_system,
                      ref_check_relevant, ref_check_well_annotation, ref_eval,
                      ref_extract_relevant, ref_verify_conservative, SPINE_SYSTEM)

CHAIN = parse_frame("states: s0 s1 s2\nedges: s0->s1 s1->s2\nlabels: p: s2\n")
TREE = parse_frame(
    "states: s0 s1 s2\nedges: s0->s1 s1->s2\nlabels: p: s2\nroot: s0\n")
SYS = parse_system("system\ninit: x\nx = or{p, nab{x}}\n")
X = parse_formula("x", vars={"x"})
NAB_X = parse_formula("nab{x}", vars={"x"})
P = parse_formula("p")
BODY = SYS.system.eq("x")


def entries_of(ann, state):
    return {f: a for f, a in ann.at(state)}


# ------------------------------------------------------------- container

def test_annotation_accessors():
    ann = Annotation(CHAIN, {"s2": [(P, 0), (X, Ordinal.natural(1))]})
    assert ann.at("s2") == frozenset({(P, Ordinal()), (X, Ordinal.natural(1))})
    assert ann.at("s0") == frozenset()
    assert ann.stripped("s2") == frozenset({P, X})
    assert dict(ann.items())["s2"] == ann.at("s2")


def test_annotation_accepts_mappings_and_ints():
    a = Annotation(CHAIN, {"s0": {P: 2}})
    b = Annotation(CHAIN, {"s0": [(P, Ordinal.natural(2))]})
    assert a.at("s0") == b.at("s0")


def test_annotation_rejects_unknown_state():
    with pytest.raises(UnknownState):
        Annotation(CHAIN, {"zz": {P: 0}})
    ann = Annotation(CHAIN, {})
    with pytest.raises(UnknownState):
        ann.at("zz")


def test_annotation_is_immutable_with_entry_copies():
    ann = Annotation(CHAIN, {"s0": {P: 0}})
    with pytest.raises(AttributeError):
        ann.frame = CHAIN
    grown = ann.with_entry("s1", P, 4)
    assert ann.at("s1") == frozenset()
    assert (P, Ordinal.natural(4)) in grown.at("s1")


def test_annotation_value_contract():
    # Mappings, pairs, int or Ordinal stages and with_entry give one
    # value; a state may carry a formula at several stages.
    per_state = {
        "s0": frozenset({(P, Ordinal()), (P, Ordinal.natural(2)), (X, OMEGA)}),
        "s2": frozenset({(X, Ordinal.natural(1)), (NAB_X, Ordinal())}),
    }
    built = [
        Annotation(CHAIN, {s: list(ann) for s, ann in per_state.items()}),
        Annotation(CHAIN, {"s0": [(P, 0), (P, 2), (X, OMEGA)], "s1": [],
                           "s2": {X: 1, NAB_X: Ordinal()}}),
        Annotation(CHAIN, {}).with_entry("s2", X, 1).with_entry("s0", P, 2)
        .with_entry("s0", X, OMEGA).with_entry("s2", NAB_X, 0).with_entry("s0", P, 0),
    ]
    for ann in built:
        assert ann == built[0] and hash(ann) == hash(built[0])
        assert list(ann.items()) == [
            ("s0", per_state["s0"]), ("s1", frozenset()), ("s2", per_state["s2"])]
        assert all(ann.at(s) == dict(ann.items())[s] for s in CHAIN.states)
        assert ann.stripped("s0") == frozenset({P, X})
        assert ann.stripped("s1") == frozenset()
        assert repr(ann) == "<Annotation 5 entries over 3 states>"
    assert built[0] != built[0].with_entry("s1", P, 0)
    assert Annotation(CHAIN, {"s1": {}}) == Annotation(CHAIN, {})


# ------------------------------------------------------ refinement order

def test_preceq_on_entry_sets():
    a = frozenset({(P, Ordinal.natural(1))})
    b = frozenset({(P, Ordinal.natural(3))})
    assert preceq(a, b) and not preceq(b, a)
    # right side smaller set: left must still match every right entry
    assert preceq(a, frozenset())
    assert not preceq(frozenset(), a)


def test_preceq_annotation_pointwise():
    theta = conservative(SYS.system, CHAIN)
    bumped = Annotation(CHAIN, {
        s: {f: Ordinal.natural(2) + a for f, a in theta.at(s)}
        for s in CHAIN.states})
    assert preceq_annotation(theta, bumped)
    assert not preceq_annotation(bumped, theta)
    assert preceq_annotation(theta, theta)


# ------------------------------------------------------------ conservative

def test_conservative_pinned_chain_values():
    theta = conservative(SYS.system, CHAIN)
    assert entries_of(theta, "s2") == {
        P: Ordinal(),
        BODY: Ordinal(),
        NAB_X: Ordinal(),
        X: Ordinal.natural(1),
    }
    assert entries_of(theta, "s1")[X] == Ordinal.natural(2)
    assert entries_of(theta, "s1")[NAB_X] == Ordinal.natural(1)
    assert entries_of(theta, "s0")[X] == Ordinal.natural(3)


def test_conservative_on_sugared_system():
    sugared = parse_system("system\ninit: x\nx = or{p, dia x}\n")
    theta = conservative(sugared.system, CHAIN)
    diax = parse_formula("dia x", vars={"x"}, keep_sugar=True)
    assert entries_of(theta, "s1")[diax] == Ordinal.natural(1)
    assert check_well_annotation(theta, sugared.system, frame=CHAIN) == []
    assert verify_conservative(theta, sugared.system) == []


def test_conservative_annotates_only_held_formulas():
    theta = conservative(SYS.system, CHAIN)
    values, _ = stabilize(SYS.system, CHAIN)
    for s, entries in theta.items():
        for f, _a in entries:
            assert s in eval_formula(f, CHAIN, values)


def test_conservative_is_valid_and_minimal_on_random_instances():
    for i in range(30):
        eqf, frame = random_instance(i)
        theta = conservative(eqf.system, frame)
        assert check_well_annotation(theta, eqf.system, frame=frame) == []
        assert verify_conservative(theta, eqf.system) == []


def _least_stage_annotation(system, frame):
    """The conservative annotation from its definition: every closure
    formula evaluated under every stage, with the least stage per state."""
    index = FrameIndex(frame)
    stages = iterate_stages(system, index)
    entries = {s: set() for s in frame.states}
    for f in closure(system):
        least = {}
        for a, env in enumerate(stages):
            m = ref_eval(index, f, env)
            for s, i in index.position.items():
                if m >> i & 1 and s not in least:
                    least[s] = a
        for s, a in least.items():
            entries[s].add((f, Ordinal.natural(a)))
    return Annotation(frame, entries)


def test_conservative_read_out_matches_definition():
    # The first-stage read-out against the definition on every corpus
    # system; closed_mu_leaf/closed_nu_leaf give closure formulas that
    # sit inside constant leaves: the unfoldings of those leaves.
    for name, eqf in full_corpus():
        system = eqf.system
        props = sorted({f.name for f in closure(system)
                        if isinstance(f, (Prop, NegProp))})
        frames = list(enumerate_frames(2, props))
        rng = Random(name)
        frames += [random_frame(rng.randint(1, 8),
                                edge_prob=rng.choice((0.15, 0.3, 0.5, 0.7)),
                                props=props, seed=rng.randrange(1 << 30))
                   for _ in range(40)]
        for fr in frames:
            want = _least_stage_annotation(system, fr)
            assert conservative(system, fr) == want, (name, fr)


# ----------------------------------------------------------- checker clauses

def check(ann, system=SYS.system, frame=CHAIN):
    return [(v.state, v.clause) for v in
            check_well_annotation(ann, system, frame=frame)]


def test_clause_closed_formula_must_hold():
    ann = conservative(SYS.system, CHAIN).with_entry("s0", P, 0)
    assert ("s0", "D3.1-1") in check(ann)


def test_clause_variable_strictly_above_body():
    ann = conservative(SYS.system, CHAIN).with_entry("s2", X, 0)
    assert ("s2", "D3.1-2") in check(ann)


def test_clause_disjunction_needs_a_disjunct():
    ann = Annotation(CHAIN, {"s2": {BODY: 0, X: 1}})
    assert check(ann) == [("s2", "D3.1-3")]


def test_clause_conjunction_needs_all_conjuncts():
    sys2 = parse_system("system\ninit: x\nx = and{nab{x, p}, q}\n")
    frame = parse_frame("states: a\nlabels: p: a ; q: a\n")
    body = sys2.system.eq("x")
    ann = Annotation(frame, {"a": {body: 0, parse_formula("x", vars={"x"}): 1}})
    got = check(ann, sys2.system, frame)
    assert ("a", "D3.1-4") in got


def test_clause_cover_failure_reports_both_directions():
    ann = Annotation(CHAIN, {"s0": {NAB_X: 0}})
    assert set(check(ann)) == {("s0", "D3.1-5a"), ("s0", "D3.1-5b")}


def test_clause_cover_at_deadlock():
    deadlock = parse_frame("states: d\n")
    sys2 = parse_system("system\ninit: x\nx = or{nab{x}, nab{}}\n")
    # a nonempty cover holds vacuously at a deadlock; the empty cover never
    nonempty = Annotation(
        deadlock, {"d": {parse_formula("nab{x}", vars={"x"}): 0}})
    assert check(nonempty, sys2.system, deadlock) == []
    empty = Annotation(deadlock, {"d": {parse_formula("nab{}"): 0}})
    got = {c for _, c in check(empty, sys2.system, deadlock)}
    # the failed closed-formula clause and both cover directions
    assert got == {"D3.1-1", "D3.1-5a", "D3.1-5b"}


def test_clause_sugared_diamond():
    sugared = parse_system("system\ninit: x\nx = or{p, dia x}\n")
    diax = parse_formula("dia x", vars={"x"}, keep_sugar=True)
    ann = Annotation(CHAIN, {"s0": {diax: 0}})
    got = check(ann, sugared.system)
    assert got == [("s0", "D3.1-dia")]


def test_clause_sugared_box():
    boxsys = parse_system("system\ninit: x\nx = or{p, box x}\n")
    boxx = parse_formula("box x", vars={"x"}, keep_sugar=True)
    theta = conservative(boxsys.system, CHAIN)
    ann = theta.with_entry("s0", boxx, 0)
    assert ("s0", "D3.1-box") in check(ann, boxsys.system)


def test_checker_full_output_pinned():
    # Every clause fails at least once; several states carry a formula
    # at two stages, one at or below the stage asked for and one above
    # (y and x at b, p at c, the disjunction at a), so only the least
    # stage may decide a clause.
    system = parse_system(
        "system\ninit: x\nx = or{p, and{q, nab{x, p}}, box y}\n"
        "y = and{dia x, q}\n").system
    frame = parse_frame(
        "states: a b c\nedges: a->b a->c b->c\nlabels: p: c ; q: b\n")

    def f(text):
        return parse_formula(text, vars={"x", "y"}, keep_sugar=True)

    body = "or{p, and{q, nab{x, p}}, box y}"
    ann = Annotation(frame, {
        "a": [(f("x"), 3), (f(body), 3), (f(body), 1), (f("box y"), 2),
              (f("dia x"), 2), (f("and{dia x, q}"), 2), (f("p"), 0),
              (f("nab{x, p}"), 1), (f("y"), 4), (f("q"), 5)],
        "b": [(f("y"), 1), (f("y"), 4), (f("x"), 1), (f("x"), 6),
              (f("q"), 0), (f("and{dia x, q}"), 0), (f("dia x"), 0),
              (f("nab{x, p}"), 2), (f("p"), 2), (f(body), 0)],
        "c": [(f("y"), 3), (f("x"), 5), (f("p"), 0), (f("p"), 4),
              (f("dia x"), 1), (f("box y"), 0)],
    })
    got = [(v.state, v.clause, format_formula(v.formula), str(v.ordinal),
            v.detail) for v in check_well_annotation(ann, system)]
    assert got == [
        ("a", "D3.1-4", "and{dia x, q}", "2",
         "conjuncts not annotated at or below the conjunction: q"),
        ("a", "D3.1-box", "box y", "2",
         "successors missing the argument at or below the stage: c"),
        ("a", "D3.1-5a", "nab{p, x}", "1",
         "no successor carries the whole member set at or below the stage"),
        ("a", "D3.1-5b", "nab{p, x}", "1",
         "no single member is carried by every successor at or below the"
         " stage"),
        ("a", "D3.1-1", "p", "0", "closed formula does not hold here"),
        ("a", "D3.1-1", "q", "5", "closed formula does not hold here"),
        ("b", "D3.1-dia", "dia x", "0",
         "no successor carries the argument at or below the stage"),
        ("b", "D3.1-3", "or{and{nab{p, x}, q}, box y, p}", "0",
         "no disjunct is annotated at or below the disjunction"),
        ("b", "D3.1-1", "p", "2", "closed formula does not hold here"),
        ("c", "D3.1-dia", "dia x", "1",
         "no successor carries the argument at or below the stage"),
        ("c", "D3.1-2", "x", "5",
         "right-hand side is not annotated strictly below the variable"),
        ("c", "D3.1-2", "y", "3",
         "right-hand side is not annotated strictly below the variable"),
    ]


def test_checker_rejects_foreign_formulas():
    ann = conservative(SYS.system, CHAIN).with_entry("s0",
                                                     parse_formula("q"), 0)
    with pytest.raises(ForeignFormula):
        check_well_annotation(ann, SYS.system, frame=CHAIN)


def test_checker_names_the_least_foreign_formula_at_the_lowest_state():
    # the least formula text at s0 wins over a lesser one at s1, whatever
    # order the entries are hashed in
    foreign = ["or{q, r}", "nab{q}", "r", "box r", "and{q, r}", "q"]
    entries = {s: dict(theta) for s, theta in conservative(SYS.system, CHAIN).items()}
    entries["s0"].update((parse_formula(text), 0) for text in foreign)
    entries["s1"][parse_formula("and{p, q}")] = 0
    with pytest.raises(ForeignFormula, match=r"^and\{q, r\} at s0 is not in the closure"):
        check_well_annotation(Annotation(CHAIN, entries), SYS.system, frame=CHAIN)


def test_uniform_left_bump_preserves_validity():
    theta = conservative(SYS.system, CHAIN)
    for delta in (Ordinal.natural(1), Ordinal.natural(7), OMEGA,
                  OMEGA + 3, Ordinal.single(2)):
        bumped = Annotation(CHAIN, {
            s: {f: delta + a for f, a in theta.at(s)}
            for s in CHAIN.states})
        assert check_well_annotation(bumped, SYS.system, frame=CHAIN) == []


def _sorted_entries(theta):
    return [(s, f, a) for s, ann in theta.items()
            for f, a in sorted(ann, key=lambda e: (sort_key(e[0]), e[1]))]


def _variants(theta, system, rng):
    """The annotation, bumped, with an entry dropped, with a stage
    shifted by one either way or to w, with a duplicated stage, with
    transfinite stages, and random, for the parity tests."""
    frame = theta.frame
    entries = _sorted_entries(theta)

    def rebuild(pick):
        out = {}
        for s, f, a in entries:
            for e in pick(s, f, a):
                out.setdefault(s, []).append(e)
        return Annotation(frame, out)

    out = [theta, rebuild(lambda s, f, a: [(f, rng.choice((1, 3, OMEGA)) + a)])]
    if entries:
        hit = rng.randrange(len(entries))
        out.append(rebuild(lambda s, f, a: [] if (s, f, a) == entries[hit] else [(f, a)]))
        for shift in (lambda a: a + 1, lambda a: a.pred() if a.is_successor else a + 2,
                      lambda a: OMEGA):
            out.append(rebuild(lambda s, f, a: [(f, shift(a)) if (s, f, a) == entries[hit]
                                                else (f, a)]))
        s, f, a = entries[rng.randrange(len(entries))]
        out.append(theta.with_entry(s, f, a + rng.randint(1, 2)))
    out.append(rebuild(lambda s, f, a: [(f, rng.choice(
        (a, OMEGA + a, Ordinal.omega_times(2) + a, Ordinal.single(2) + a)))]))
    formulas = sorted(closure(system), key=sort_key)
    out.append(Annotation(frame, {
        s: [(rng.choice(formulas), rng.choice((0, 1, 2, 3, OMEGA, OMEGA + 1)))
            for _ in range(rng.randint(0, 2 * len(formulas)))]
        for s in frame.states}))
    return out


def _assert_checkers_match_reference(theta, system, rng):
    for ann in _variants(theta, system, rng):
        assert check_well_annotation(ann, system) == ref_check_well_annotation(ann, system)
        assert verify_conservative(ann, system) == ref_verify_conservative(ann, system)
        for a, b in ((theta, ann), (ann, theta)):
            assert preceq_annotation(a, b) == all(
                preceq(a.at(s), b.at(s)) for s in a.frame.states)


def test_checkers_match_per_state_reference_on_corpus():
    for name, eqf in full_corpus():
        system = eqf.system
        props = sorted({f.name for f in closure(system)
                        if isinstance(f, (Prop, NegProp))})
        rng = Random(name)
        for _ in range(12):
            fr = random_frame(rng.randint(1, 8),
                              edge_prob=rng.choice((0.15, 0.3, 0.5, 0.7)),
                              props=props, seed=rng.randrange(1 << 30))
            _assert_checkers_match_reference(conservative(system, fr), system, rng)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 6), st.integers(0, 1 << 30))
def test_checkers_match_per_state_reference_on_random_instances(seed, pick):
    eqf, frame = random_instance(seed)
    _assert_checkers_match_reference(conservative(eqf.system, frame), eqf.system,
                                     Random(pick))


def test_preceq_annotation_across_state_orders():
    theta = conservative(SYS.system, CHAIN)
    flipped = parse_frame("states: s2 s1 s0\nedges: s0->s1 s1->s2\nlabels: p: s2\n")
    bumped = Annotation(flipped, {s: {f: 1 + a for f, a in ann} for s, ann in theta.items()})
    assert preceq_annotation(theta, bumped)
    assert not preceq_annotation(bumped, theta)


# ------------------------------------------------------ conservativeness

def test_duplicate_stages_flagged():
    ann = conservative(SYS.system, CHAIN).with_entry("s2", X, 5)
    clauses = {v.clause for v in verify_conservative(ann, SYS.system)}
    assert "D3.2-1" in clauses


def test_non_minimal_stage_flagged():
    theta = conservative(SYS.system, CHAIN)
    bumped = Annotation(CHAIN, {
        s: {f: Ordinal.natural(1) + a for f, a in theta.at(s)}
        for s in CHAIN.states})
    assert check_well_annotation(bumped, SYS.system, frame=CHAIN) == []
    clauses = {v.clause for v in verify_conservative(bumped, SYS.system)}
    assert clauses == {"D3.2-2"}


def test_missing_held_formula_flagged():
    theta = conservative(SYS.system, CHAIN)
    thinned = Annotation(CHAIN, {
        s: {f: a for f, a in theta.at(s) if f != P}
        for s in CHAIN.states})
    assert verify_conservative(thinned, SYS.system)


# ------------------------------------------------------- cover projections

def test_box_set_keeps_members_common_to_all_successors():
    theta = conservative(SYS.system, CHAIN)
    assert box_set([X], "s1", theta) == frozenset({X})
    # p is not annotated at s1, so it drops out one level up
    assert box_set([X, P], "s0", theta) == frozenset({X})
    # at a deadlock every member survives vacuously
    assert box_set([X, P], "s2", theta) == frozenset({X, P})


def test_dia_set_keeps_successors_carrying_all_members():
    theta = conservative(SYS.system, CHAIN)
    assert dia_set([X], "s1", theta) == frozenset({"s2"})
    assert dia_set([X, P], "s0", theta) == frozenset()


# ----------------------------------------------------------- relevant part

def test_extract_relevant_traces_the_chain():
    theta = conservative(SYS.system, TREE)
    tree, th, phi = extract_relevant(theta, SYS.system, "x")
    assert tree.states == TREE.states
    for s in TREE.states:
        assert phi.at(s) <= th.at(s)
    assert entries_of(phi, "s0")[X] == Ordinal.natural(3)
    assert entries_of(phi, "s1")[X] == Ordinal.natural(2)
    assert entries_of(phi, "s2")[P] == Ordinal()
    assert check_relevant(phi, th, SYS.system) == []


def test_extract_relevant_on_unravelled_frame():
    loop = parse_frame("states: a b\nedges: a->b b->a\nlabels: p: b\n")
    tree = unravel(loop, "a", 4)
    theta = conservative(SYS.system, tree)
    _, th, phi = extract_relevant(theta, SYS.system, "x")
    assert check_relevant(phi, th, SYS.system) == []


def test_extract_relevant_on_the_1200_tower():
    # 1200 tree levels: the extraction walks the tree without recursion
    eqf = to_equational(desugar(czarnecki_formula(1)))
    tower = czarnecki(1, 1200)
    theta = conservative(eqf.system, tower)
    tree, th, phi = extract_relevant(theta, eqf.system, eqf.init)
    assert tree.states == tower.states
    root = entries_of(phi, tower.root)
    assert root[parse_formula(eqf.init, vars={eqf.init})] == Ordinal.natural(1201)
    assert check_relevant(phi, th, eqf.system) == []


def test_extract_relevant_at_explicit_stage():
    theta = conservative(SYS.system, TREE)
    _, _, phi = extract_relevant(theta, SYS.system, "x", alpha=3)
    assert entries_of(phi, "s0")[X] == Ordinal.natural(3)
    with pytest.raises(ExtractionFailure):
        extract_relevant(theta, SYS.system, "x", alpha=9)


def test_extract_relevant_rejects_sugar_on_the_trace():
    sugared = parse_system("system\ninit: x\nx = or{p, dia x}\n")
    theta = conservative(sugared.system, TREE)
    with pytest.raises(ExtractionFailure):
        extract_relevant(theta, sugared.system, "x")


def test_relevant_checker_clause_variable_step():
    theta = conservative(SYS.system, TREE)
    _, th, phi = extract_relevant(theta, SYS.system, "x")
    ents = {s: entries_of(phi, s) for s in TREE.states}
    del ents["s1"][BODY]
    broken = Annotation(TREE, ents)
    got = [(v.state, v.clause) for v in check_relevant(broken, th, SYS.system)]
    assert ("s1", "D3.5-2") in got


def test_relevant_checker_requires_marks_inside_theta():
    theta = conservative(SYS.system, TREE)
    _, th, phi = extract_relevant(theta, SYS.system, "x")
    ents = {s: entries_of(phi, s) for s in TREE.states}
    ents["s0"][NAB_X] = Ordinal.natural(1)
    broken = Annotation(TREE, ents)
    clauses = {v.clause for v in check_relevant(broken, th, SYS.system)}
    assert "D3.5-1" in clauses


def test_relevant_checker_marks_stage_sharing_disjuncts():
    theta = conservative(SYS.system, TREE)
    _, th, phi = extract_relevant(theta, SYS.system, "x")
    ents = {s: entries_of(phi, s) for s in TREE.states}
    del ents["s0"][NAB_X]
    broken = Annotation(TREE, ents)
    clauses = {v.clause for v in check_relevant(broken, th, SYS.system)}
    assert "D3.5-3" in clauses


def test_relevant_checker_allows_unmarked_stage_zero_disjuncts():
    theta = conservative(SYS.system, TREE)
    _, th, phi = extract_relevant(theta, SYS.system, "x")
    ents = {s: entries_of(phi, s) for s in TREE.states}
    # at stage 0 the stage-sharing requirement does not bite
    del ents["s2"][NAB_X]
    assert all(v.clause != "D3.5-3"
               for v in check_relevant(Annotation(TREE, ents), th, SYS.system))


def test_relevant_checker_needs_a_member_marked_up_to_the_stage():
    # below the limit w, u marks x only at 1: above the floor 0, short of w
    tree = parse_frame("states: r u\nedges: r->u\nroot: r\n")
    ann = parse_annotation("r: x @ w+1; nab{x} @ w;\nu: x @ 1; nab{x} @ 0;\n", tree, ("x",))
    got = [(v.state, v.clause) for v in check_relevant(ann, ann, SPINE_SYSTEM.system)]
    assert got == [("r", "D3.5-5a")]


def test_relevant_checker_needs_each_matching_successor_to_mark_a_member():
    tree = parse_frame("states: r u v w\nedges: r->u u->w r->v\nroot: r\n")
    phi_text = "r: x @ 3; nab{x} @ 2;\nu: x @ 2; nab{x} @ 1;\nw: x @ 1; nab{x} @ 0;\n"
    theta = parse_annotation(phi_text + "v: x @ 1; nab{x} @ 0;\n", tree, ("x",))
    phi = parse_annotation(phi_text, tree, ("x",))
    got = [(v.state, v.clause) for v in check_relevant(phi, theta, SPINE_SYSTEM.system)]
    assert got == [("r", "D3.5-5b")]


def test_relevant_checker_needs_marking_successors_above_the_floor():
    tree = parse_frame("states: r u v w\nedges: r->u u->w r->v\nroot: r\n")
    ann = parse_annotation("r: x @ 3; nab{x} @ 2;\nu: x @ 2; nab{x} @ 1;\n"
                           "w: x @ 1; nab{x} @ 0;\nv: x @ 1; nab{x} @ 0;\n", tree, ("x",))
    got = [(v.state, v.clause) for v in check_relevant(ann, ann, SPINE_SYSTEM.system)]
    assert got == [("r", "D3.5-5c")]


def test_extraction_refuses_two_covers_at_one_state():
    # an or of two covers sharing stage 0 marks both at the single state
    eqf = parse_system((CORPUS_DIR / "two_nablas.mes").read_text())
    tree = parse_frame("states: r\nroot: r\n")
    theta = parse_annotation("r: x @ 1; or{nab{x}, nab{y}} @ 0; nab{x} @ 0; nab{y} @ 0;\n",
                             tree, eqf.system.vars)
    with pytest.raises(ExtractionFailure) as exc:
        extract_relevant(theta, eqf.system, "x")
    assert str(exc.value) == ("extraction produced an invalid relevant part: r: one-cover"
                              " -- more than one cover formula marked at a single state")


@pytest.mark.parametrize("seed", range(4))
def test_two_nablas_extraction_fails_cleanly(seed):
    eqf = parse_system((CORPUS_DIR / "two_nablas.mes").read_text())
    frame = random_frame(3 + seed, edge_prob=0.5, props=("p", "q"), seed=seed)
    tree = unravel(frame, frame.states[0], 3)
    with pytest.raises(ExtractionFailure):
        extract_relevant(conservative(eqf.system, tree), eqf.system, eqf.init)


# ------------------------------------- relevant parts against the reference

def _relevant_outcome(extract, theta, eqf):
    """The extraction's tree, both annotations as text and the parts
    themselves, or the failure text."""
    try:
        tree, th, phi = extract(theta, eqf.system, eqf.init)
    except ExtractionFailure as exc:
        return ("failure", str(exc)), None
    return (tree.states, tree.edges, tree.labels, tree.root,
            format_annotation(th), format_annotation(phi)), (th, phi)


def _mutated_parts(th, phi, seed):
    """phi, phi with one marked entry dropped, and phi with one entry of
    th added, each drawn from the entries in state and ``_entry_key``
    order."""
    rng = Random(seed)
    marked = [(s, e) for s, ann in phi.items() for e in sorted(ann, key=_entry_key)]
    unmarked = [(s, e) for s, ann in th.items()
                for e in sorted(ann - phi.at(s), key=_entry_key)]
    parts = [phi]
    for pool, drop in ((marked, True), (unmarked, False)):
        if pool:
            s, e = rng.choice(pool)
            entries = {t: set(ann) for t, ann in phi.items()}
            (entries[s].discard if drop else entries[s].add)(e)
            parts.append(Annotation(phi.frame, entries))
    return parts


def _assert_relevant_matches_reference(theta, eqf, seed):
    want, _ = _relevant_outcome(ref_extract_relevant, theta, eqf)
    got, parts = _relevant_outcome(extract_relevant, theta, eqf)
    assert got == want
    if parts is not None:
        th, phi = parts
        for part in _mutated_parts(th, phi, seed):
            expected = ref_check_relevant(part, th, eqf.system)
            found = check_relevant(part, th, eqf.system)
            assert found == expected
            assert [str(v) for v in found] == [str(v) for v in expected]
    return got


def _unravelled(seed):
    frame = random_frame(3 + seed % 4, edge_prob=0.5, props=("p", "q"), seed=seed)
    return unravel(frame, frame.states[0], 3 + seed % 3)


@pytest.mark.parametrize("n,k", [(1, 1200), (2, 24), (3, 7), (4, 4)])
def test_relevant_parts_of_towers_match_the_reference(n, k):
    eqf = to_equational(desugar(czarnecki_formula(n)))
    theta = conservative(eqf.system, czarnecki(n, k))
    assert _assert_relevant_matches_reference(theta, eqf, n)[0] != "failure"
    # a one-proposition tower is walked in frame order with no copy, so
    # its tree and annotation come back as they are; (2, 24) is walked
    # out of frame order and rebuilt
    tree, th, _ = extract_relevant(theta, eqf.system, eqf.init)
    if n == 1:
        assert tree is theta.frame and th is theta
    elif (n, k) == (2, 24):
        assert tree is not theta.frame and tree.states != theta.frame.states
        assert th is not theta and th.frame is tree


def test_relevant_parts_of_the_corpus_match_the_reference():
    for _, eqf in full_corpus():
        for s in range(12):
            _assert_relevant_matches_reference(conservative(eqf.system, _unravelled(s)), eqf, s)


@pytest.mark.parametrize("seed,kind", [(25, "copies"), (6, "invalid"), (19, "invalid"),
                                       (38, "invalid")])
def test_relevant_parts_of_random_systems_match_the_reference(seed, kind):
    eqf = random_system(seed)
    outcomes = [_assert_relevant_matches_reference(conservative(eqf.system, _unravelled(s)),
                                                   eqf, s) for s in range(12)]
    if kind == "copies":
        assert any(o[0] != "failure" and any("~" in t for t in o[0]) for o in outcomes)
    else:
        assert any(o[0] == "failure" and "invalid relevant part" in o[1] for o in outcomes)


def _renamed(tree, old, new):
    """The tree with its state ``old`` named ``new``."""
    def name(s):
        return new if s == old else s
    return TreeFrame([name(s) for s in tree.states], [(name(a), name(b)) for a, b in tree.edges],
                     {p: [name(s) for s in states] for p, states in tree.labels.items()},
                     name(tree.root))


def _by_position(tree, th, phi):
    """An extraction's tree and annotations with each state named by its
    position in the tree's state order."""
    at = {s: i for i, s in enumerate(tree.states)}
    return (sorted((at[a], at[b]) for a, b in tree.edges),
            {p: sorted(at[s] for s in states) for p, states in tree.labels.items()},
            [th.at(s) for s in tree.states], [phi.at(s) for s in tree.states])


def test_relevant_copies_skip_the_names_the_tree_holds():
    # the part of this system on this tree copies u16 four times, as
    # u16~1 .. u16~4; with u1 named u16~1, the first copy skips that name
    eqf = random_system(25)
    frame = random_frame(4, 0.5, seed=1)
    tree = unravel(frame, frame.states[0], 4)
    theta = conservative(eqf.system, tree)
    _assert_relevant_matches_reference(theta, eqf, 1)
    plain = extract_relevant(theta, eqf.system, eqf.init)
    assert [s for s in plain[0].states if s.startswith("u16~")] == [f"u16~{n}" for n in range(1, 5)]
    clash = _renamed(tree, "u1", "u16~1")
    got = extract_relevant(conservative(eqf.system, clash), eqf.system, eqf.init)
    assert [s for s in got[0].states if s.startswith("u16~")] == [f"u16~{n}" for n in range(1, 6)]
    assert [s for s in got[0].states if s != "u16~1"] == [
        {"u16~1": "u16~2", "u16~2": "u16~3", "u16~3": "u16~4", "u16~4": "u16~5"}.get(s, s)
        for s in plain[0].states if s != "u1"]
    # the renaming keeps u1's place among its siblings, so the walk is the
    # same and the parts agree state by state
    assert _by_position(*got) == _by_position(*plain)


# ---------------------------------------------------------- serialization

def test_text_round_trip():
    theta = conservative(SYS.system, CHAIN)
    text = format_annotation(theta)
    back = parse_annotation(text, CHAIN, SYS.system.vars)
    assert all(back.at(s) == theta.at(s) for s in CHAIN.states)


def test_text_round_trip_with_sugar():
    sugared = parse_system("system\ninit: x\nx = or{p, dia x}\n")
    theta = conservative(sugared.system, CHAIN)
    back = parse_annotation(format_annotation(theta), CHAIN,
                            sugared.system.vars)
    assert all(back.at(s) == theta.at(s) for s in CHAIN.states)


def test_json_round_trip():
    theta = conservative(SYS.system, CHAIN)
    back = annotation_from_json(annotation_to_json(theta), CHAIN,
                                SYS.system.vars)
    assert all(back.at(s) == theta.at(s) for s in CHAIN.states)


@pytest.mark.parametrize("bad", [
    [], "x", 3, {"s0": [{"formula": "p", "ordinal": 1}]},
])
def test_annotation_json_raises_only_annotation_parse_errors(bad):
    with pytest.raises(AnnotationParseError):
        annotation_from_json(bad, CHAIN, SYS.system.vars)


def test_parse_annotation_transfinite_stages():
    ann = parse_annotation("s0: nab{x} @ w.2; x @ w.2+1;\n", CHAIN, ("x",))
    assert entries_of(ann, "s0")[NAB_X] == Ordinal.omega_times(2)


@pytest.mark.parametrize("bad", [
    "s0 nab{x} @ 1;",
    "s0: nab{x} 1;",
    "s0: nab{x} @ bogus;",
    "zz: p @ 0;",
])
def test_parse_annotation_rejects_malformed(bad):
    with pytest.raises((AnnotationParseError, UnknownState)):
        parse_annotation(bad, CHAIN, ("x",))
