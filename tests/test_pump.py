"""Annotated trees, repetition pairs, descent hypotheses, pumping,
and the family bound estimates."""

import pytest

from nablamu import (
    Annotation,
    Frame,
    AnnotatedTree,
    HypothesisUnmet,
    NotATreeState,
    NotOptimal,
    OMEGA,
    Ordinal,
    PairFound,
    PossiblyOptimal,
    RootSetMismatch,
    TreeFrame,
    annotated_subtree,
    chain,
    check_descent_hypothesis,
    check_well_annotation,
    closure_ordinal_on,
    conservative,
    family_root_bound,
    find_repetition_pairs,
    limit_states,
    optimality,
    pair_to_json,
    parse_formula,
    parse_system,
    pump,
    repetition_bound,
    tree_canonical_form,
)

from conftest import NAB_X, SPINE_SYSTEM, X, descent_spine


def annotations_fingerprint(t: AnnotatedTree):
    """Canonical form of the tree decorated with both annotation sets,
    independent of state names."""
    def decorate(s: str) -> str:
        th = sorted(f"{f}@{a}" for f, a in t.theta.at(s))
        ph = sorted(f"{f}@{a}" for f, a in t.phi.at(s))
        return ";".join(th) + "|" + ";".join(ph)
    return tree_canonical_form(t.tree, decorate)


# --------------------------------------------------------------- validation

def test_annotated_tree_requires_tree_frame():
    flat = Frame(["a"], [("a", "a")], {})
    empty = Annotation(flat, {})
    with pytest.raises(ValueError):
        AnnotatedTree(flat, empty, empty)


def test_annotated_tree_requires_phi_inside_theta():
    t = descent_spine(3)
    with pytest.raises(ValueError):
        AnnotatedTree(t.tree, t.theta, t.theta.with_entry("t0", X, 99))


def test_annotated_tree_names_the_least_extra_entry_at_the_lowest_state():
    t = descent_spine(3)
    extra = {s: dict(t.theta.at(s)) for s in t.tree.states}
    for text in ("or{q, r}", "nab{q}", "r", "box r", "and{q, r}", "q"):
        extra["t1"][parse_formula(text)] = 7
    extra["t2"][parse_formula("and{p, q}")] = 0
    phi = Annotation(t.tree, extra).with_entry("t1", parse_formula("and{q, r}"), 5)
    with pytest.raises(ValueError, match=r"^relevant entry and\{q, r\} @ 5 at t1 is not"):
        AnnotatedTree(t.tree, t.theta, phi)


def test_annotated_tree_requires_matching_frames():
    t = descent_spine(3)
    other = descent_spine(4)
    with pytest.raises(ValueError):
        AnnotatedTree(t.tree, other.theta, other.phi)


# ------------------------------------------------------------- limit states

def test_limit_states_of_spine():
    t = descent_spine(4)
    assert limit_states(t) == frozenset({"t0", "t1", "t2", "t3"})


def test_limit_states_ignore_successor_stages():
    tree = TreeFrame(["r", "c"], [("r", "c")], {}, root="r")
    ann = Annotation(tree, {"r": {NAB_X: Ordinal.omega_times(1) + 1},
                            "c": {X: 1}})
    t = AnnotatedTree(tree, ann, ann)
    assert limit_states(t) == frozenset()


def test_limit_states_require_a_cover_formula():
    tree = TreeFrame(["r", "c"], [("r", "c")], {}, root="r")
    ann = Annotation(tree, {"r": {X: OMEGA}, "c": {X: 1}})
    t = AnnotatedTree(tree, ann, ann)
    assert limit_states(t) == frozenset()


# --------------------------------------------------------- repetition pairs

def test_spine_pairs_every_ancestor_descendant_combination():
    t = descent_spine(4)
    pairs = find_repetition_pairs(t)
    assert len(pairs) == 6
    combos = {(p.companion, p.bud) for p in pairs}
    assert combos == {("t0", "t1"), ("t0", "t2"), ("t0", "t3"),
                      ("t1", "t2"), ("t1", "t3"), ("t2", "t3")}
    for p in pairs:
        assert p.gamma == frozenset({X})
        assert p.alpha.is_limit and p.beta.is_limit
        assert p.beta < p.alpha
        assert p.companion in t.tree.ancestors(p.bud)


def test_pair_stages_match_the_annotation():
    t = descent_spine(4)
    for p in find_repetition_pairs(t):
        assert (parse_formula("nab{x}", vars={"x"}), p.alpha) in t.theta.at(
            p.companion)
        assert (parse_formula("nab{x}", vars={"x"}), p.beta) in t.theta.at(
            p.bud)


def test_pairs_require_matching_theta_profiles():
    def alternating(i, stage):
        if i % 2:
            return {NAB_X: stage}
        return {X: stage + 1, NAB_X: stage}
    t = descent_spine(4, entry_fn=alternating)
    combos = {(p.companion, p.bud) for p in find_repetition_pairs(t)}
    assert combos == {("t0", "t2"), ("t1", "t3")}


def test_pairs_require_matching_phi_profiles():
    base = descent_spine(4)
    ents = {s: dict(base.phi.at(s)) for s in base.tree.states}
    del ents["t1"][NAB_X]
    t = AnnotatedTree(base.tree, base.theta, Annotation(base.tree, ents))
    combos = {(p.companion, p.bud) for p in find_repetition_pairs(t)}
    assert combos == {("t0", "t2"), ("t0", "t3"), ("t2", "t3")}


def test_pairs_ordered_by_bud_position():
    t = descent_spine(4)
    buds = [p.bud for p in find_repetition_pairs(t)]
    assert buds == sorted(buds, key=t.tree.states.index)


def test_pair_rendering():
    t = descent_spine(4)
    first = find_repetition_pairs(t)[0]
    assert str(first) == "companion t0 @ w.4 -> bud t1 @ w.3 over nab{x}"
    j = pair_to_json(first)
    assert j == {"companion": "t0", "bud": "t1", "gamma": ["x"],
                 "alpha": "w.4", "beta": "w.3"}


def test_repetition_bound_values():
    assert repetition_bound(SPINE_SYSTEM.system) == 17
    four = parse_system("system\ninit: x\nx = or{p, nab{x}}\n")
    assert repetition_bound(four.system) == 2 ** 8 + 1


# -------------------------------------------------------- descent hypothesis

FULL_PATH = [f"t{i}" for i in range(17)] + ["leaf"]


def test_descent_finds_the_guaranteed_pair():
    t = descent_spine(17, side_children=True)
    res = check_descent_hypothesis(t, FULL_PATH, SPINE_SYSTEM.system)
    assert isinstance(res, PairFound)
    assert res.pair.companion == "t0" and res.pair.bud == "t1"
    assert res.pair.alpha == Ordinal.omega_times(17)
    assert res.pair.beta == Ordinal.omega_times(16)


def test_descent_requires_top_annotation_at_the_bound():
    t = descent_spine(4)
    res = check_descent_hypothesis(
        t, [f"t{i}" for i in range(4)] + ["leaf"], SPINE_SYSTEM.system)
    assert isinstance(res, HypothesisUnmet)
    assert "below w.17" in res.reason


def test_descent_requires_reaching_zero():
    t = descent_spine(17)
    res = check_descent_hypothesis(t, FULL_PATH[:3], SPINE_SYSTEM.system)
    assert isinstance(res, HypothesisUnmet)
    assert "does not reach 0" in res.reason


def test_descent_requires_nonempty_relevant_part():
    base = descent_spine(17)
    ents = {s: dict(base.phi.at(s)) for s in base.tree.states}
    ents["t1"] = {}
    t = AnnotatedTree(base.tree, base.theta, Annotation(base.tree, ents))
    res = check_descent_hypothesis(t, FULL_PATH, SPINE_SYSTEM.system)
    assert isinstance(res, HypothesisUnmet)
    assert "empty at t1" in res.reason


def test_descent_validates_the_path():
    t = descent_spine(17)
    with pytest.raises(ValueError):
        check_descent_hypothesis(t, ["t1", "t2"], SPINE_SYSTEM.system)
    with pytest.raises(ValueError):
        check_descent_hypothesis(t, ["t0", "t5"], SPINE_SYSTEM.system)


# ------------------------------------------------------------------ pumping

def test_annotated_subtree_restricts_everything():
    t = descent_spine(4, side_children=True)
    sub = annotated_subtree(t, "t2")
    assert sub.tree.root == "t2"
    assert set(sub.tree.states) == {"t2", "t3", "leaf", "d2", "d3"}
    for s in sub.tree.states:
        assert sub.theta.at(s) == t.theta.at(s)
        assert sub.phi.at(s) == t.phi.at(s)
    with pytest.raises(NotATreeState):
        annotated_subtree(t, "zz")


def test_identity_pump_is_isomorphic():
    t = descent_spine(4, side_children=True)
    for state in ("t2", "t0", "leaf"):
        donor = annotated_subtree(t, state)
        pumped = pump(t, state, donor)
        assert annotations_fingerprint(pumped) == annotations_fingerprint(t)


def test_pump_splices_the_companion_subtree_at_the_bud():
    t = descent_spine(4, side_children=True)
    for pair in find_repetition_pairs(t):
        donor = annotated_subtree(t, pair.companion)
        pumped = pump(t, pair.bud, donor)
        expected = (len(t.tree.states)
                    - len(t.tree.subtree_states(pair.bud))
                    + len(donor.tree.states))
        assert len(pumped.tree.states) == expected
        # the donor root (renamed on collision with the surviving
        # companion) must sit where the bud was
        parent = t.tree.parent(pair.bud)
        new_children = set(pumped.tree.children(parent))
        root_copy = f"{pair.companion}~1"
        assert root_copy in new_children
        assert pumped.theta.at(root_copy) == t.theta.at(pair.companion)


def test_pump_renames_colliding_donor_states():
    t = descent_spine(4, side_children=True)
    donor = annotated_subtree(t, "t0")
    pumped = pump(t, "t2", donor)
    assert len(set(pumped.tree.states)) == len(pumped.tree.states)
    assert "t0~1" in pumped.tree.states
    assert pumped.theta.at("t0~1") == t.theta.at("t0")


def test_pump_rejects_mismatched_root_profile():
    t = descent_spine(4)
    donor = annotated_subtree(t, "t2")
    ents = {s: dict(donor.theta.at(s)) for s in donor.tree.states}
    del ents["t2"][X]
    smaller = Annotation(donor.tree, ents)
    bad = AnnotatedTree(donor.tree, smaller, smaller)
    with pytest.raises(RootSetMismatch):
        pump(t, "t2", bad)


def test_pump_accepts_same_profile_with_larger_stages():
    t = descent_spine(4, side_children=True)
    donor = annotated_subtree(t, "t2")
    bump = Ordinal.omega_times(10)
    bumped_ann = Annotation(donor.tree, {
        s: {f: bump + a for f, a in donor.theta.at(s)}
        for s in donor.tree.states})
    bumped = AnnotatedTree(donor.tree, bumped_ann, bumped_ann)
    pumped = pump(t, "t2", bumped)
    # accepted on the stripped profile, but the parent's cover clause
    # now fails the full checker
    violations = check_well_annotation(pumped.theta, SPINE_SYSTEM.system,
                                       frame=pumped.tree)
    assert any(v.state == "t1" and v.clause.startswith("D3.1-5")
               for v in violations)


def test_pump_at_root_replaces_the_whole_tree():
    t = descent_spine(4)
    donor = descent_spine(4, side_children=True)
    pumped = pump(t, "t0", donor)
    assert annotations_fingerprint(pumped) == annotations_fingerprint(donor)


def test_pump_unknown_state():
    t = descent_spine(3)
    with pytest.raises(NotATreeState):
        pump(t, "zz", annotated_subtree(t, "t1"))


# ----------------------------------------------------------- family bounds

def p_chain_tree(k: int) -> AnnotatedTree:
    """A rooted k-state chain with p at the far end, conservatively
    annotated for reachability."""
    states = [f"s{i}" for i in range(k)]
    edges = [(states[i], states[i + 1]) for i in range(k - 1)]
    tree = TreeFrame(states, edges, {"p": [states[-1]]}, root=states[0])
    system = parse_system("system\ninit: x\nx = or{p, dia x}\n")
    theta = conservative(system.system, tree)
    return AnnotatedTree(tree, theta, theta)


def test_family_root_bound_tracks_chain_depth():
    system = parse_system("system\ninit: x\nx = or{p, dia x}\n")
    trees = [p_chain_tree(k) for k in range(2, 9)]
    gamma = trees[0].theta.stripped(trees[0].tree.root)
    for prefix in range(1, len(trees) + 1):
        est = family_root_bound("x", gamma, trees[:prefix])
        k = prefix + 1
        assert est.witnessed
        assert est.value == Ordinal.natural(
            closure_ordinal_on(trees[prefix - 1].tree, system))
        assert est.witness == prefix - 1
        assert est.value == Ordinal.natural(k)


def test_family_root_bound_without_matching_profile():
    trees = [p_chain_tree(3)]
    est = family_root_bound("x", [X], trees)
    assert not est.witnessed and est.value == Ordinal() and est.witness is None


def test_optimality_refuted_by_distant_family_member():
    family = [descent_spine(2), descent_spine(4), descent_spine(6)]
    t = family[0]
    alpha = Ordinal.omega_times(2) + 1
    res = optimality(t, "t0", X, alpha, family)
    assert isinstance(res, NotOptimal)
    assert res.witness in (1, 2)
    assert res.annotation >= alpha + OMEGA


def test_optimality_unrefuted_within_finite_family():
    trees = [p_chain_tree(k) for k in (2, 3, 4)]
    res = optimality(trees[0], "s0", X, Ordinal.natural(2), trees)
    assert isinstance(res, PossiblyOptimal)


def test_optimality_argument_validation():
    t = descent_spine(3)
    with pytest.raises(NotATreeState):
        optimality(t, "zz", X, OMEGA, [t])
    with pytest.raises(ValueError):
        optimality(t, "t0", X, Ordinal.natural(5), [t])
