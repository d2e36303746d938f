"""Evaluation, ordinal-stage approximations, and per-frame closure ordinals."""

from itertools import groupby, product
from random import Random

import pytest

from nablamu import (
    OMEGA,
    EquationSystem,
    EquationalFormula,
    Frame,
    FrameIndex,
    NegProp,
    Ordinal,
    ParseError,
    Prop,
    approx,
    box,
    chain,
    check_well_annotation,
    closure,
    closure_ordinal_on,
    conservative,
    cover,
    czarnecki,
    czarnecki_formula,
    denotation,
    desugar,
    disj,
    enumerate_frames,
    eval_formula,
    frame_index,
    iterate_stages,
    parse_formula,
    parse_frame,
    parse_system,
    prop,
    random_frame,
    sig_approx,
    stabilize,
    to_equational,
    var,
    verify_conservative,
)
from nablamu.normalform import _prop_names
from nablamu.semantics import FrameBatch, _run, first_stages, lane_closure_ordinals, least_stable_stage
from nablamu.syntax import Var, _postorder

from conftest import FORMULA_CORPUS, full_corpus, random_instance, ref_eval, two_variable_corpus
from test_acceptance import GAMMA_FAMILIES, _law_sides
from test_normalform import _lane_frame
from test_syntax import deep_closed_mu


CHAIN3 = parse_frame("states: s0 s1 s2\nedges: s0->s1 s1->s2\nlabels: p: s2\n")
REACH = parse_system("system\ninit: x\nx = or{p, dia x}\n")


# ------------------------------------------------------------- evaluation

def test_empty_cover_holds_exactly_at_states_with_successors():
    assert eval_formula(parse_formula("nab{}"), chain(2)) == frozenset({"s0"})


def test_cover_at_deadlock_iff_nonempty():
    deadlock = parse_frame("states: d\nlabels: p: d\n")
    assert eval_formula(parse_formula("nab{p}"), deadlock) == frozenset({"d"})
    assert eval_formula(parse_formula("nab{ff}"), deadlock) == frozenset({"d"})
    assert eval_formula(parse_formula("nab{}"), deadlock) == frozenset()


def test_box_is_vacuous_at_deadlocks():
    f = parse_frame("states: s0 s1\nedges: s0->s1\n")
    assert "s1" in eval_formula(parse_formula("box p"), f)
    assert "s0" not in eval_formula(parse_formula("box p"), f)


def test_closed_least_fixpoint_reachability():
    phi = parse_formula("mu x. or{p, dia x}")
    assert eval_formula(phi, CHAIN3) == frozenset({"s0", "s1", "s2"})


def test_boolean_clauses():
    assert eval_formula(parse_formula("tt"), CHAIN3) == frozenset(CHAIN3.states)
    assert eval_formula(parse_formula("ff"), CHAIN3) == frozenset()
    assert eval_formula(parse_formula("!p"), CHAIN3) == frozenset({"s0", "s1"})
    assert eval_formula(parse_formula("and{p, nab{}}"), CHAIN3) == frozenset()
    assert eval_formula(parse_formula("or{p, nab{}}"), CHAIN3) == frozenset(
        {"s0", "s1", "s2"})


def test_missing_valuation_entries_default_to_empty():
    assert eval_formula(var("x"), CHAIN3) == frozenset()
    got = eval_formula(parse_formula("nab{x}", vars={"x"}), CHAIN3,
                       {"x": {"s2"}})
    assert got == frozenset({"s1", "s2"})


def test_sugar_evaluates_like_its_expansion():
    rng = Random(5)
    for i in range(40):
        f = random_frame(rng.randint(1, 6), seed=i)
        for text in ("box p", "dia q", "box or{p, q}", "dia and{p, !q}"):
            sugared = parse_formula(text, keep_sugar=True)
            assert eval_formula(sugared, f) == eval_formula(desugar(sugared), f)


def test_box_dia_extensional_laws():
    rng = Random(11)
    for i in range(40):
        f = random_frame(rng.randint(1, 6), seed=100 + i)
        p = eval_formula(parse_formula("p"), f)
        boxed = eval_formula(parse_formula("box p"), f)
        diad = eval_formula(parse_formula("dia p"), f)
        assert boxed == frozenset(s for s in f.states if f.successors(s) <= p)
        assert diad == frozenset(s for s in f.states if f.successors(s) & p)


def test_cover_law_spot_check():
    gamma = [parse_formula("p"), parse_formula("q")]
    nab = parse_formula("nab{p, q}")
    expansion = parse_formula("or{box p, box q, dia and{p, q}}")
    for f in enumerate_frames(2, ("p", "q")):
        assert eval_formula(nab, f) == eval_formula(expansion, f)


# ---------------------------------------------------------- approximations

def test_stage_zero_is_empty():
    assert approx(var("x"), 0, REACH.system, CHAIN3) == frozenset()


def test_stage_two_pinned():
    assert approx(var("x"), 2, REACH.system, CHAIN3) == frozenset({"s1", "s2"})


def test_stages_are_cumulative():
    prev = frozenset()
    for a in range(5):
        cur = approx(var("x"), a, REACH.system, CHAIN3)
        assert prev <= cur
        prev = cur
    assert prev == frozenset({"s0", "s1", "s2"})


def test_limit_stage_is_union():
    assert approx(var("x"), OMEGA, REACH.system, CHAIN3) == frozenset(
        {"s0", "s1", "s2"})
    assert approx(var("x"), OMEGA + 5, REACH.system, CHAIN3) == approx(
        var("x"), OMEGA, REACH.system, CHAIN3)


def test_approx_of_compound_formula():
    body = REACH.system.eq("x")
    assert approx(body, 0, REACH.system, CHAIN3) == frozenset({"s2"})
    assert approx(body, 1, REACH.system, CHAIN3) == frozenset({"s1", "s2"})


def test_stabilize_respects_state_times_variable_bound():
    rng = Random(3)
    for i in range(60):
        eqf, frame = random_instance(i)
        values, stage = stabilize(eqf.system, frame)
        assert stage <= len(frame.states) * len(eqf.system.vars)
        for v in eqf.system.vars:
            assert values[v] == approx(var(v), stage, eqf.system, frame)


def test_denotation_is_stabilized_init():
    values, _ = stabilize(REACH.system, CHAIN3)
    assert denotation(REACH, CHAIN3) == values["x"]


def test_iterate_stages_masks_are_cumulative():
    idx = frame_index(CHAIN3)
    stages = iterate_stages(REACH.system, idx)
    assert stages[0] == {"x": 0}
    for earlier, later in zip(stages, stages[1:]):
        for v in earlier:
            assert earlier[v] & ~later[v] == 0
    assert stages[-1]["x"] == (1 << len(CHAIN3.states)) - 1


def _jacobi_stages(system, index):
    """Stage iteration on the recursive evaluator: stage a+1 evaluates
    every body under stage a."""
    stages = [{x: 0 for x in system.vars}]
    while True:
        cur = stages[-1]
        nxt = {x: cur[x] | ref_eval(index, system.eq(x), cur) for x in system.vars}
        if nxt == cur:
            return stages
        stages.append(nxt)


def _corpus_frames(name, props):
    """The exhaustive frames of at most 2 states over ``props`` and 40
    random ones of at most 8 states, seeded by ``name``."""
    frames = list(enumerate_frames(2, props))
    rng = Random(name)
    frames += [random_frame(rng.randint(1, 8),
                            edge_prob=rng.choice((0.15, 0.3, 0.5, 0.7)),
                            props=props, seed=rng.randrange(1 << 30))
               for _ in range(40)]
    return frames


def _corpus_cases():
    """Each corpus system with its frames, over the propositions of its
    closure."""
    for name, eqf in full_corpus():
        system = eqf.system
        props = sorted({f.name for f in closure(system)
                        if isinstance(f, (Prop, NegProp))})
        yield name, system, _corpus_frames(name, props)


def test_stage_program_matches_recursive_evaluation():
    # The compiled stage program against ref_eval, stage by stage,
    # on every corpus system (closed mu/nu leaves and box/dia included).
    for name, system, frames in _corpus_cases():
        for fr in frames:
            got = iterate_stages(system, FrameIndex(fr))
            assert got == _jacobi_stages(system, FrameIndex(fr)), (name, fr)


def _slot_formulas(system):
    """The variables and the closure formulas: the formulas the stage
    program gives a slot."""
    return {Var(x) for x in system.vars} | closure(system)


def _first_stage_definition(system, index):
    """For each slot formula, the pairs (a, m) where m holds the states
    at which ``ref_eval`` first holds the formula at stage a."""
    stages = _jacobi_stages(system, index)
    table = {}
    for f in _slot_formulas(system):
        seen, pairs = 0, []
        for a, env in enumerate(stages):
            new = ref_eval(index, f, env) & ~seen
            if new:
                pairs.append((a, new))
                seen |= new
        table[f] = tuple(pairs)
    return table


def _scale_cases():
    """The deep towers and the two-variable systems on 32/64/96-state
    random frames of expected out-degree 2.5."""
    for n, k in ((1, 300), (2, 24), (3, 7), (4, 4)):
        yield f"czarnecki({n},{k})", to_equational(czarnecki_formula(n)), czarnecki(n, k)
    rng = Random(9)
    for name, eqf in two_variable_corpus():
        for size in (32, 64, 96):
            yield (f"{name}@{size}", eqf,
                   random_frame(size, edge_prob=2.5 / size, props=("p", "q"),
                                seed=rng.randrange(1 << 30)))


def test_stage_run_matches_recursive_evaluation_at_scale():
    # Frames where many states enter over many stages, so that the
    # semi-naive run differs from a full step per stage.
    for label, eqf, fr in _scale_cases():
        system = eqf.system
        assert iterate_stages(system, FrameIndex(fr)) == \
            _jacobi_stages(system, FrameIndex(fr)), label
        if label.startswith("czarnecki(1,"):
            assert len(iterate_stages(system, FrameIndex(fr))) == 302


def test_first_stage_table_matches_definition():
    for label, eqf, fr in _scale_cases():
        want = _first_stage_definition(eqf.system, FrameIndex(fr))
        assert first_stages(eqf.system, FrameIndex(fr)) == want, label
    for name, system, frames in _corpus_cases():
        for fr in frames:
            want = _first_stage_definition(system, FrameIndex(fr))
            assert first_stages(system, FrameIndex(fr)) == want, (name, fr)


# ------------------------------------- one evaluator against the reference

def _envs(index, names, rng):
    """Every valuation of ``names`` on a frame of at most 2 states, three
    random ones on a larger frame."""
    if index.n <= 2:
        return [dict(zip(names, ms))
                for ms in product(range(index.full + 1), repeat=len(names))]
    return [{x: rng.getrandbits(index.n) for x in names} for _ in range(3)]


def test_eval_matches_reference_evaluator():
    # FrameIndex.eval on the stage program against ref_eval: every
    # subformula of the formula corpus, open binders such as
    # mu y. or{x, dia y} included, under every or random valuation;
    # every closure formula of the system corpus under every stage.
    checks = 0
    for text in FORMULA_CORPUS:
        f = parse_formula(text, keep_sugar=True)
        subs = set(_postorder([f, desugar(f)]))
        rng = Random(text)
        for fr in _corpus_frames(text, ["p"]):
            index = FrameIndex(fr)
            for g in subs:
                for env in _envs(index, sorted(g.fv), rng):
                    assert index.eval(g, env) == ref_eval(index, g, env), (text, g, fr)
                    checks += 1
    for name, system, frames in _corpus_cases():
        clos = closure(system)
        for fr in frames:
            index = FrameIndex(fr)
            for env in iterate_stages(system, index):
                for g in clos:
                    assert index.eval(g, env) == ref_eval(index, g, env), (name, g, fr)
                    checks += 1
    assert checks > 50_000


def test_eval_matches_reference_on_cover_law_frames():
    # The formulas and frames of acceptance test 1.
    sides = [g for members in GAMMA_FAMILIES for g in _law_sides(members)]
    frames = list(enumerate_frames(3, ("p", "q")))
    frames += [random_frame(1 + i % 8, edge_prob=(0.15, 0.3, 0.5, 0.7)[i % 4],
                            props=("p", "q"), seed=9000 + i) for i in range(500)]
    for fr in frames:
        index = FrameIndex(fr)
        for g in sides:
            assert index.eval(g) == ref_eval(index, g), (g, fr)


def test_eval_without_recursion_on_a_ten_thousand_deep_box():
    f = prop("p")
    for _ in range(10_000):
        f = box(f)
    # p holds at c only; 10^4 steps from b reach c on the 3-cycle.
    cycle = parse_frame("states: a b c\nedges: a->b b->c c->a\nlabels: p: c\n")
    assert eval_formula(f, cycle) == frozenset({"b"})
    chain = parse_frame("states: a b\nedges: a->b\nlabels: p: b\n")
    assert eval_formula(f, chain) == frozenset({"a", "b"})


def test_ten_thousand_deep_closed_mu_system_evaluates_and_annotates():
    phi = deep_closed_mu(10_000)
    system = EquationSystem([("x", disj(cover(var("x")), phi))])
    eqf = EquationalFormula(system, "x")
    # q holds at a only; from b and c, q is reached within two box levels.
    cycle = parse_frame("states: a b c\nedges: a->b b->c c->a\nlabels: q: a\n")
    assert eval_formula(phi, cycle) == frozenset(cycle.states)
    assert closure_ordinal_on(cycle, eqf) == 1
    # So every closure formula but q holds at every state.
    ann = conservative(system, cycle)
    clos = closure(system)
    assert ann.stripped("a") == clos
    assert ann.stripped("b") == ann.stripped("c") == clos - {prop("q")}
    assert sum(len(entries) for _, entries in ann.items()) == 3 * len(clos) - 2


def test_ten_thousand_deep_closed_mu_system_checks_its_annotation():
    # The checkers print only failing entries, so the 10^4-level closure
    # formulas of a valid annotation are never formatted.
    system = EquationSystem([("x", disj(cover(var("x")), deep_closed_mu(10_000)))])
    cycle = parse_frame("states: a b c\nedges: a->b b->c c->a\nlabels: q: a\n")
    ann = conservative(system, cycle)
    assert check_well_annotation(ann, system) == []
    assert verify_conservative(ann, system) == []


def test_deepest_parsable_binder_nesting_evaluates():
    # Only nested binders recurse in the evaluator, and the parser caps
    # their nesting; evaluate the deepest nest of
    # (mu xi. or{q, dia (...)}) that parse_formula accepts.
    def nest(depth):
        text = "x0"
        for i in range(depth):
            text = f"(mu x{i}. or{{q, dia {text}}})"
        return text

    depth = 1
    while True:
        try:
            parse_formula(nest(depth + 1))
        except ParseError:
            break
        depth += 1
    assert depth > 50
    f = parse_formula(nest(depth))
    # q holds at c only, and every state reaches c.
    cycle = parse_frame("states: a b c\nedges: a->b b->c c->a\nlabels: q: c\n")
    assert eval_formula(f, cycle) == frozenset(cycle.states)
    assert FrameIndex(cycle).eval(f) == ref_eval(FrameIndex(cycle), f)


def _counted_eval(monkeypatch, index, f):
    """The mask of f on the index and the number of ``FrameIndex.eval``
    calls it took, nested ones included."""
    calls = []
    real = FrameIndex.eval

    def counted(self, g, env=None):
        calls.append(g)
        return real(self, g, env)

    with monkeypatch.context() as m:
        m.setattr(FrameIndex, "eval", counted)
        mask = index.eval(f)
    return mask, len(calls)


def test_nested_closed_binders_are_evaluated_once_each(monkeypatch):
    # mu x11. or{q, dia x11, mu x10. or{..., mu x0. or{q, dia x0, p}}}:
    # no binder reads an enclosing one, so each is evaluated once,
    # although the outer ones step 31 times on the 30-state chain.
    text = "p"
    for i in range(12):
        text = f"(mu x{i}. or{{q, dia x{i}, {text}}})"
    f = parse_formula(text)
    index = FrameIndex(_labelled_chain(30, [29]))
    mask, calls = _counted_eval(monkeypatch, index, f)
    assert mask == ref_eval(index, f) == index.full
    assert calls == 12


def test_binder_evaluates_a_leaf_of_outer_variables_once(monkeypatch):
    # the inner binder reads only the free z, not x, so it stays constant
    # over x's 31 steps and is evaluated once
    f = parse_formula("mu x. or{p, dia x, mu y. and{z, dia y}}", vars=("z",))
    assert f.fv == {"z"}
    index = FrameIndex(_labelled_chain(30, [29]))
    mask, calls = _counted_eval(monkeypatch, index, f)
    assert mask == ref_eval(index, f) == index.full
    assert calls == 2


# ------------------------------------------------- the frame index's steps

def _random_index(seed):
    """The generator and index of a seeded frame of 1-24 states with
    self-loops and deadlocks."""
    rng = Random(seed)
    n = rng.randint(1, 24)
    states = [f"s{i}" for i in range(n)]
    dead = set(rng.sample(states, rng.randint(0, n // 3)))
    edges = [(a, b) for a in states if a not in dead for b in states
             if rng.random() < (0.5 if a == b else 2.0 / n)]
    return rng, FrameIndex(Frame(states, edges))


def test_pred_is_the_transpose_of_succ():
    loops = deadlocks = 0
    for seed in range(60):
        _, idx = _random_index(seed)
        for i in range(idx.n):
            for j in range(idx.n):
                assert (idx.succ[i] >> j & 1) == (idx.pred[j] >> i & 1), (seed, i, j)
            loops += idx.succ[i] >> i & 1
            deadlocks += not idx.succ[i]
    assert loops and deadlocks


def test_unmask_gives_the_states_of_the_set_bits():
    for seed in range(60):
        rng, idx = _random_index(seed)
        for m in (0, idx.full, *(rng.getrandbits(idx.n) for _ in range(10))):
            want = frozenset(s for s, i in idx.position.items() if m >> i & 1)
            assert idx.unmask(m) == want, (seed, m)
    # state counts at and around the byte and word boundaries of the mask
    rng = Random(7)
    for n in (1, 7, 8, 9, 63, 64, 65, 96):
        idx = FrameIndex(Frame([f"s{i}" for i in range(n)]))
        bits = (0, n // 2, n - 1)
        for m in (0, idx.full, *(1 << i for i in bits), *(rng.getrandbits(n) for _ in range(10))):
            want = frozenset(s for s, i in idx.position.items() if m >> i & 1)
            assert idx.unmask(m) == want, (n, m)


def test_box_and_nab_on_candidates_are_the_full_step_restricted():
    for seed in range(60):
        rng, idx = _random_index(seed)
        for _ in range(10):
            at = rng.getrandbits(idx.n)
            m = rng.getrandbits(idx.n)
            assert idx.box(m, at) == idx.box(m) & at
            members = [rng.getrandbits(idx.n) for _ in range(rng.randint(0, 3))]
            assert idx.nab(members, at) == idx.nab(members) & at
            assert idx.nab([], at) == idx.nab([]) & at
        assert idx.box(0, idx.full) == idx.box(0)
        assert idx.nab([], 0) == 0 and idx.box(idx.full, 0) == 0


# ------------------------------------------------------ the lane batch's steps

def _pack(masks, n):
    """Per-lane n-bit masks as one batch mask: bit i * lanes + f is
    state i of lane f."""
    lanes = len(masks)
    return sum(1 << i * lanes + f for f, m in enumerate(masks) for i in range(n) if m >> i & 1)


def _lane(m, n, lanes, f):
    """Lane f's slice of a batch mask as an n-bit mask."""
    return sum(1 << i for i in range(n) if m >> i * lanes + f & 1)


def _edge_batch(n, draws):
    """The unlabelled batch whose lane f has the edges at the row-major
    positions draws[f]."""
    words = [sum(1 << f for f, edges in enumerate(draws) if k in edges) for k in range(n * n)]
    return FrameBatch((), [(n, len(draws), words, [])])


def test_lanes_of_gives_the_lanes_with_a_state():
    rng = Random(5)
    for lanes in (1, 8, 9, 64, 100):
        for n in (1, 3):
            batch = FrameBatch((), [(n, lanes, [0] * (n * n), [])])
            for m in (0, batch.full, 1 << (n * lanes - 1),
                      *(rng.getrandbits(n * lanes) for _ in range(10)),
                      *(rng.getrandbits(lanes) << rng.randrange(n) * lanes for _ in range(5))):
                want = [f for f in range(lanes) if any(m >> i * lanes + f & 1 for i in range(n))]
                assert batch.lanes_of(m) == want, (lanes, n, m)


def test_batch_modal_steps_match_the_frame_index_per_lane():
    rng = Random(12)
    for n in range(1, 9):
        cells = range(n * n)
        # all edges, no edges (every state a deadlock), self-loops only,
        # then random frames with both
        draws = [list(cells), [], [i * n + i for i in cells[:n]]]
        draws += [[k for k in cells if rng.random() < p] for p in (0.15, 0.3, 0.5, 0.7) for _ in range(3)]
        batch = _edge_batch(n, draws)
        states = [f"s{i}" for i in range(n)]
        indexes = [FrameIndex(Frame(states, [(states[k // n], states[k % n]) for k in edges]))
                   for edges in draws]
        lanes = len(draws)
        assert (batch.n, batch.lanes, batch.full) == (n, lanes, _pack([(1 << n) - 1] * lanes, n))
        for _ in range(12):
            masks = [[rng.getrandbits(n) for _ in draws] for _ in range(3)]
            at = [rng.getrandbits(n) for _ in draws]
            packed = [_pack(ms, n) for ms in masks]
            for f, index in enumerate(indexes):
                def lane(m):
                    return _lane(m, n, lanes, f)
                assert lane(batch.dia(packed[0])) == index.dia(masks[0][f])
                for whole, own in ((None, None), (_pack(at, n), at[f])):
                    assert lane(batch.box(packed[0], whole)) == index.box(masks[0][f], own)
                    for k in range(4):  # nab{} up to three members
                        got = batch.nab(packed[:k], whole)
                        assert lane(got) == index.nab([ms[f] for ms in masks[:k]], own), (n, f, k)


@pytest.mark.parametrize("lanes", [1, 2, 31, 64, 100])
def test_batch_modal_steps_on_wide_and_odd_lane_counts(lanes):
    # dia copies each position's slice to every position by doubling
    # shifts, which here cross big-int digit boundaries; the copies past
    # the last position must not reach the result
    rng = Random(lanes)
    for n in range(1, 9):
        cells = range(n * n)
        draws = [[k for k in cells if rng.random() < p] for p in rng.choices((0.15, 0.5, 0.7, 1.0), k=lanes)]
        batch = _edge_batch(n, draws)
        states = [f"s{i}" for i in range(n)]
        indexes = [FrameIndex(Frame(states, [(states[k // n], states[k % n]) for k in edges]))
                   for edges in draws]
        full = (1 << n) - 1
        for t in range(4):
            # the first round takes every state in every lane
            masks = [[full if t == 0 else rng.getrandbits(n) for _ in draws] for _ in range(3)]
            at = [rng.getrandbits(n) for _ in draws]
            packed = [_pack(ms, n) for ms in masks]
            got = batch.dia(packed[0])
            assert got & ~batch.full == 0, (n, lanes)
            boxes = batch.box(packed[0]), batch.box(packed[0], _pack(at, n))
            nabs = [batch.nab(packed[:k]) for k in range(4)]
            for f, index in enumerate(indexes):
                assert _lane(got, n, lanes, f) == index.dia(masks[0][f]), (n, lanes, f)
                assert _lane(boxes[0], n, lanes, f) == index.box(masks[0][f])
                assert _lane(boxes[1], n, lanes, f) == index.box(masks[0][f], at[f])
                for k, nab in enumerate(nabs):
                    assert _lane(nab, n, lanes, f) == index.nab([ms[f] for ms in masks[:k]]), (n, lanes, f, k)


def _group(props, frames):
    """The group (m, count, edge words, label words) of frames of m
    states s0 .. s(m-1), in that order: bit f of each word is frames[f]."""
    m = len(frames[0].states)
    edge_words, label_words = [0] * (m * m), [0] * (len(props) * m)
    for f, fr in enumerate(frames):
        assert fr.states == tuple(f"s{i}" for i in range(m))
        for a, b in fr.edges:
            edge_words[int(a[1:]) * m + int(b[1:])] |= 1 << f
        for k, p in enumerate(props):
            for s in fr.labels.get(p, ()):
                label_words[k * m + int(s[1:])] |= 1 << f
    return m, len(frames), edge_words, label_words


def _frame_batch(frames, runs=False):
    """The batch whose lane f is frames[f], with as many positions as the
    largest frame has states: one group per frame, or with ``runs`` one
    group per run of consecutive frames with equal state counts."""
    props = sorted({p for fr in frames for p in fr.labels})
    parts = ([list(run) for _, run in groupby(frames, key=lambda fr: len(fr.states))] if runs
             else [[fr] for fr in frames])
    return FrameBatch(props, [_group(props, part) for part in parts])


def _labelled_chain(n, at):
    """A chain s0 -> ... -> s(n-1) with p at the states ``at``."""
    states = [f"s{i}" for i in range(n)]
    return Frame(states, list(zip(states, states[1:])), {"p": [states[i] for i in at]})


def _check_lane_ordinals(eqf, frames):
    batch = _frame_batch(frames, runs=True)
    # the runs lay out their frames as one group per frame would
    single = _frame_batch(frames)
    for field in FrameBatch.__slots__:
        assert getattr(batch, field) == getattr(single, field), field
    # a frame of m states is present at positions 0 .. m - 1 of its lane,
    # and its padding has no label and no edge
    lanes = len(frames)
    assert batch.present == sum(1 << i * lanes + f for f, fr in enumerate(frames)
                                for i in range(len(fr.states)))
    assert all(m & ~batch.present == 0 for m in batch.prop_mask.values())
    assert batch.dia(batch.full) & ~batch.present == 0
    stable, ordinals = lane_closure_ordinals(eqf, batch)
    assert ordinals == [closure_ordinal_on(fr, eqf) for fr in frames]
    assert stable & ~batch.present == 0
    assert [batch.states(stable, f) for f in range(len(frames))] == [
        tuple(sorted(denotation(eqf, fr))) for fr in frames]
    return ordinals


def test_lane_closure_ordinals_match_each_lanes_frame():
    # lanes whose slice never changes (no p) have ordinal 0
    frames = [_labelled_chain(6, at) for at in ([5], [], [2], [0, 3], [], [0, 1, 2, 3, 4, 5])]
    assert _check_lane_ordinals(REACH, frames) == [6, 0, 3, 3, 0, 1]
    assert _check_lane_ordinals(REACH, [_labelled_chain(6, [])]) == [0]
    assert _check_lane_ordinals(REACH, [_labelled_chain(6, [4])]) == [5]  # one lane
    for _, eqf in full_corpus():
        props = sorted(_prop_names(body for _, body in eqf.system.equations))
        for n in (1, 3, 5):
            _check_lane_ordinals(eqf, [random_frame(n, 0.3, props, seed) for seed in range(9)])


# In a guarded system a deadlock's value is fixed from stage 1 on, since
# every cover step there is constant: here x holds at each deadlock (nab{x}
# is box x there) and nowhere on a frame whose every state has a successor.
# So on such a frame x's ordinal is 0, while its lane's padding states,
# which are deadlocks, enter x at stage 1, later than any present state.
DEADLOCK_ONLY = parse_system("system\ninit: x\nx = or{and{p, dia x}, nab{x}}\n")


def test_lane_closure_ordinals_on_mixed_state_counts():
    # frames of 1-8 states in one batch: each lane's ordinal and stable
    # slice are its own frame's, whatever its padding does
    cycles = [Frame([f"s{i}" for i in range(n)], [(f"s{i}", f"s{(i + 1) % n}") for i in range(n)],
                    {"p": ["s0"]}) for n in (1, 3, 7)]
    assert [closure_ordinal_on(fr, DEADLOCK_ONLY) for fr in cycles] == [0, 0, 0]
    for _, eqf in [*full_corpus(), ("deadlock only", DEADLOCK_ONLY)]:
        props = sorted(_prop_names(body for _, body in eqf.system.equations))
        frames = [random_frame(n, p, props, 9 * n + k)
                  for n in range(1, 9) for k, p in enumerate((0.15, 0.3, 0.5, 0.7))]
        _check_lane_ordinals(eqf, [*cycles, *Random(27).sample(frames, len(frames))])
        # runs of 5, 1, 8 and 3 states, the second crossing lane 64
        runs = [random_frame(n, (0.15, 0.3, 0.5, 0.7)[f % 4], props, 100 * n + f)
                for n, count in ((5, 3), (1, 70), (8, 1), (3, 12)) for f in range(count)]
        _check_lane_ordinals(eqf, runs)
        batch = _frame_batch(runs, runs=True)
        assert [_lane_frame(batch, lane) for lane in range(batch.lanes)] == runs
    # x walks back down a chain from its deadlock, one state per stage
    assert _check_lane_ordinals(DEADLOCK_ONLY, [*cycles, _labelled_chain(5, [])]) == [0, 0, 0, 5]


def test_lane_closure_ordinals_past_one_byte():
    # chains of 300 states with p at a different depth in each lane, so
    # the run has more than 256 stages and the ordinals take two bytes
    depths = [299, 0, 255, 256, 17, None, 298]
    frames = [_labelled_chain(300, [] if d is None else [d]) for d in depths]
    assert _check_lane_ordinals(REACH, frames) == [0 if d is None else d + 1 for d in depths]


# -------------------------------------------------------- closure ordinals

def test_closure_ordinal_pinned_chain():
    assert closure_ordinal_on(CHAIN3, REACH) == 3


def test_closure_ordinal_zero_when_empty():
    unlabeled = chain(3)
    assert denotation(REACH, unlabeled) == frozenset()
    assert closure_ordinal_on(unlabeled, REACH) == 0


def test_closure_ordinal_tracks_staircase_depth():
    eqf = to_equational(czarnecki_formula(1))
    for k in (1, 2, 3, 6):
        assert closure_ordinal_on(czarnecki(1, k), eqf) == k + 1


def test_closure_ordinal_not_above_stabilization():
    for i in range(40):
        eqf, frame = random_instance(1000 + i)
        _, stage = stabilize(eqf.system, frame)
        assert closure_ordinal_on(frame, eqf) <= stage


# --------------------------------------------------------------- signatures

def test_signature_approximation_pinned():
    assert sig_approx(var("x"), (Ordinal.natural(2),), REACH.system,
                      CHAIN3) == frozenset({"s1", "s2"})
    assert sig_approx(var("x"), (Ordinal.natural(0),), REACH.system,
                      CHAIN3) == frozenset()


def test_signature_sandwich_spot_check():
    two = parse_system(
        "system\ninit: x\nx = or{p, nab{y}}\ny = or{q, nab{x}}\n")
    frame = random_frame(4, seed=77)
    sigs = [(Ordinal.natural(a), Ordinal.natural(b))
            for a in range(4) for b in range(4)]
    for psi in closure(two.system):
        for sig in sigs:
            total = sum(sig, Ordinal())
            lo = sig_approx(psi, sig, two.system, frame)
            mid = approx(psi, total, two.system, frame)
            hi = sig_approx(psi, (total, total), two.system, frame)
            assert lo <= mid <= hi


def test_signature_length_must_match_variables():
    with pytest.raises(ValueError):
        sig_approx(var("x"), (Ordinal.natural(1), Ordinal.natural(1)),
                   REACH.system, CHAIN3)


def test_finite_ordinal_signature_entries_are_capped():
    two = parse_system(
        "system\ninit: x\nx = or{p, nab{y}}\ny = or{q, nab{x}}\n")
    cap = len(CHAIN3.states) * 2 + 1
    for psi in (var("x"), var("y")):
        want = sig_approx(psi, (10 ** 4, 2), two.system, CHAIN3)
        assert sig_approx(psi, (Ordinal.natural(10 ** 4), 2), two.system, CHAIN3) == want
        assert sig_approx(psi, (Ordinal.natural(cap), 2), two.system, CHAIN3) == want
    run = _run(two.system, frame_index(CHAIN3))
    assert len(run.sig) <= (cap + 1) ** 2


def _recursive_sig_approx(psi, sig, system, frame):
    """The signature approximant from its definition, on ``ref_eval``:
    variable i under s is the union over b < s_i of body i under s with
    entry i lowered to b."""
    index = FrameIndex(frame)
    names = system.vars

    def var_val(i, s):
        acc = 0
        for b in range(s[i]):
            low = s[:i] + (b,) + s[i + 1:]
            env = {x: var_val(j, low) for j, x in enumerate(names)}
            acc |= ref_eval(index, system.eq(names[i]), env)
        return acc

    env = {x: var_val(j, sig) for j, x in enumerate(names)}
    return index.unmask(ref_eval(index, psi, env))


def test_sig_approx_matches_definition():
    for name, eqf in two_variable_corpus():
        system = eqf.system
        for seed in range(3):
            frame = random_frame(5, edge_prob=0.4, props=("p", "q"), seed=seed)
            frame_index.cache_clear()
            for sig in [(i, j) for i in range(4) for j in range(4)]:
                for psi in closure(system):
                    want = _recursive_sig_approx(psi, sig, system, frame)
                    assert sig_approx(psi, sig, system, frame) == want, (name, sig)


# ------------------------------------------------------- the cached stage run

def test_stage_results_are_fresh_copies():
    idx = frame_index(CHAIN3)
    stages = iterate_stages(REACH.system, idx)
    want = [dict(st) for st in stages]
    stages[1]["x"] = 7
    stages.append({"x": 0})
    assert iterate_stages(REACH.system, idx) == want
    final, _ = least_stable_stage(REACH.system, idx)
    final["x"] = 0
    assert least_stable_stage(REACH.system, idx)[0] == want[-1]
    table = first_stages(REACH.system, idx)
    table.clear()
    assert first_stages(REACH.system, idx)


def test_systems_on_one_frame_keep_separate_runs():
    # same variable names and shapes, different bodies
    a = parse_system("system\ninit: x\nx = or{p, nab{y}}\ny = or{q, nab{x}}\n").system
    b = parse_system("system\ninit: x\nx = or{q, nab{y}}\ny = or{p, nab{x}}\n").system
    frame = random_frame(6, edge_prob=0.4, props=("p", "q"), seed=5)
    sigs = [(i, j) for i in range(4) for j in range(4)]
    both = [(sig_approx(var(v), sig, s, frame), approx(var(v), sum(sig), s, frame))
            for s in (a, b) for v in ("x", "y") for sig in sigs]
    assert len(frame_index(frame)._runs) == 2
    frame_index.cache_clear()
    alone = []
    for s in (a, b):
        alone += [(sig_approx(var(v), sig, s, frame), approx(var(v), sum(sig), s, frame))
                  for v in ("x", "y") for sig in sigs]
        frame_index.cache_clear()
    assert both == alone
    assert both[:len(sigs) * 2] != both[len(sigs) * 2:]


def test_sig_approx_ignores_call_order_and_cache_clears():
    _, eqf = two_variable_corpus()[0]
    system = eqf.system
    frame = random_frame(8, edge_prob=0.3, props=("p", "q"), seed=11)
    calls = [(var(v), (i, j)) for v in system.vars for i in range(5) for j in range(5)]
    frame_index.cache_clear()
    forward = {c: sig_approx(c[0], c[1], system, frame) for c in calls}
    frame_index.cache_clear()
    backward = {c: sig_approx(c[0], c[1], system, frame) for c in reversed(calls)}
    assert forward == backward
    cleared = {}
    for c in Random(3).sample(calls, len(calls)):
        cleared[c] = sig_approx(c[0], c[1], system, frame)
        frame_index.cache_clear()
    assert cleared == forward


def test_omega_signature_is_omega_stage():
    for name, eqf in two_variable_corpus():
        system = eqf.system
        for seed in range(4):
            frame = random_frame(10, edge_prob=0.25, props=("p", "q"), seed=seed)
            for v in system.vars:
                got = sig_approx(var(v), (OMEGA, OMEGA), system, frame)
                assert got == approx(var(v), OMEGA, system, frame), (name, seed, v)
