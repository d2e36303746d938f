"""Kripke frames, tree frames, the generator zoo, and the file formats."""

import itertools
from random import Random

import pytest

from nablamu import (
    Frame,
    FrameParseError,
    InvalidParameter,
    NotATree,
    TreeFrame,
    UnknownState,
    chain,
    closure_ordinal_on,
    czarnecki,
    czarnecki_formula,
    enumerate_frames,
    eval_formula,
    format_frame,
    frame_from_json,
    frame_to_dot,
    frame_to_json,
    parse_formula,
    parse_frame,
    random_frame,
    to_equational,
    tree_canonical_form,
    unravel,
)
from nablamu.frame import _random_draws

from conftest import ref_enumerate_frames


# ---------------------------------------------------------------- basics

def test_frame_accessors():
    f = Frame(["a", "b"], [("a", "b"), ("b", "b")], {"p": ["b"]})
    assert f.states == ("a", "b")
    assert f.successors("a") == frozenset({"b"})
    assert f.successors("b") == frozenset({"b"})
    assert f.has_label("b", "p") and not f.has_label("a", "p")
    assert f.label_states("p") == frozenset({"b"})
    assert f.label_states("unknown") == frozenset()


def test_unknown_state_rejected():
    with pytest.raises(UnknownState):
        Frame(["a"], [("a", "b")], {})
    with pytest.raises(UnknownState):
        Frame(["a"], [], {"p": ["zz"]})
    # a KeyError whose first argument is the least unknown state
    with pytest.raises(KeyError) as err:
        Frame(["a"], [("a", "c"), ("b", "a"), ("a", "b")], {})
    assert err.value.args[0] == "b" and str(err.value) == "edge a->b: unknown state 'b'"
    f = Frame(["a"], [], {})
    with pytest.raises(UnknownState):
        f.successors("nope")


def test_duplicate_states_rejected():
    with pytest.raises(InvalidParameter):
        Frame(["a", "a"], [], {})


def test_tree_frame_structure():
    t = TreeFrame(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "d")],
                  {}, root="a")
    assert t.root == "a"
    assert t.parent("b") == "a" and t.parent("a") is None
    assert list(t.ancestors("c")) == ["b", "a"]
    assert t.children("a") == ("b", "d") or set(t.children("a")) == {"b", "d"}
    assert t.subtree_states("b") == frozenset({"b", "c"})
    assert t.depth("c") == 2 and t.depth("a") == 0
    assert t.path_from_root("c") == ("a", "b", "c")


def test_non_tree_shapes_rejected():
    with pytest.raises(NotATree):  # cycle
        TreeFrame(["a", "b"], [("a", "b"), ("b", "a")], {}, root="a")
    with pytest.raises(NotATree):  # two parents
        TreeFrame(["a", "b", "c"], [("a", "c"), ("b", "c"), ("a", "b")],
                  {}, root="a")
    with pytest.raises(NotATree):  # unreachable state
        TreeFrame(["a", "b"], [], {}, root="a")


# --------------------------------------------------------------- generators

def test_chain_shape():
    c = chain(4)
    assert c.states == ("s0", "s1", "s2", "s3")
    assert sorted(c.edges) == [("s0", "s1"), ("s1", "s2"), ("s2", "s3")]
    assert chain(1).states == ("s0",)
    with pytest.raises(InvalidParameter):
        chain(0)


def test_czarnecki_single_proposition_chain():
    z = czarnecki(1, 3)
    assert len(z.states) == 4
    assert all(z.has_label(s, "p") for s in z.states)
    assert sorted(z.edges) == [("c0", "c1"), ("c1", "c2"), ("c2", "c3")]


def test_czarnecki_formula_matches_frame_family():
    phi = czarnecki_formula(1)
    eqf = to_equational(phi)
    values = [closure_ordinal_on(czarnecki(1, k), eqf) for k in (1, 2, 3)]
    assert values == [2, 3, 4]


def test_random_frame_is_seed_deterministic():
    a = random_frame(6, seed=42)
    b = random_frame(6, seed=42)
    c = random_frame(6, seed=43)
    assert a.states == b.states and a.edges == b.edges and a.labels == b.labels
    assert (a.edges, a.labels) != (c.edges, c.labels)
    assert len(a.states) == 6


def test_random_frame_is_rebuilt_from_its_position_draws():
    for size in range(1, 9):
        for prob in (0.15, 0.3, 0.5, 0.7):
            for props in ((), ("p",), ("p", "q"), ("p", "q", "r")):
                seed = 1000 * size + int(100 * prob) + len(props)
                frame = random_frame(size, edge_prob=prob, props=props, seed=seed)
                # the draws by state name, one edge pair after the other,
                # then one label draw per proposition and state
                rng = Random(seed)
                states = [f"s{i}" for i in range(size)]
                edges = [(a, b) for a in states for b in states if rng.random() < prob]
                labels = {p: [s for s in states if rng.random() < 0.5] for p in props}
                assert frame == Frame(states, edges, labels)
                cells, members = _random_draws(size, prob, len(props), Random(seed).random)
                assert frame == Frame(states, [(states[k // size], states[k % size]) for k in cells],
                                      {p: [states[i] for i in ms] for p, ms in zip(props, members)})


def test_random_frame_edge_probability_extremes():
    assert not random_frame(3, edge_prob=0.0, seed=1).edges
    assert len(random_frame(3, edge_prob=1.0, seed=1).edges) == 9


def test_generators_refuse_a_duplicate_proposition():
    # enumerate_frames once gave 144 frames over ("p", "p"), 40 of them
    # distinct, and random_frame kept the second draw of p
    for props in (("p", "p"), ("p", "q", "p")):
        with pytest.raises(InvalidParameter, match="^duplicate proposition name 'p'$"):
            list(enumerate_frames(2, props))
        with pytest.raises(InvalidParameter, match="^duplicate proposition name 'p'$"):
            random_frame(3, 0.5, props, 1)


def test_enumerate_frames_counts():
    # one state over no propositions: empty or self-loop edge set
    assert len(list(enumerate_frames(1))) == 2
    # one state over p: times two labelings
    assert len(list(enumerate_frames(1, ("p",)))) == 4
    dedup = list(enumerate_frames(2, ("p",)))
    full = list(enumerate_frames(2, ("p",), dedup=False))
    assert len(full) == 4 + 2 ** 4 * 2 ** 2
    assert len(dedup) < len(full)


def test_enumerate_frames_dedup_is_orbit_representative():
    # every frame on 2 unlabeled states appears, up to swapping names
    frames = list(enumerate_frames(2))
    reps = {frozenset((s == "s1", t == "s1") for s, t in f.edges)
            for f in frames if len(f.states) == 2}
    assert len(frames) == 2 + len(reps)


@pytest.mark.parametrize("max_states, props, dedup", [
    (m, props, dedup)
    for props in ((), ("p",), ("p", "q"), ("p", "q", "r"))
    for m in ((1, 2, 3) if len(props) < 3 else (1, 2))
    for dedup in (True, False)
    if dedup or (m, len(props)) != (3, 2)  # 32 768 frames
])
def test_enumerate_frames_matches_the_reference(max_states, props, dedup):
    got = list(enumerate_frames(max_states, props, dedup=dedup))
    want = list(ref_enumerate_frames(max_states, props, dedup=dedup))
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert a == b, k


def test_unravel_tree_of_cycle():
    f = Frame(["a", "b"], [("a", "b"), ("b", "a"), ("a", "a")], {"p": ["b"]})
    t = unravel(f, "a", 2)
    assert isinstance(t, TreeFrame)
    # depth 2: root a, children {a, b}, grandchildren of each
    assert t.depth(max(t.states, key=t.depth)) == 2
    labels_by_depth = sorted(
        (t.depth(s), t.has_label(s, "p")) for s in t.states)
    assert (1, True) in labels_by_depth


def test_unravel_depth_zero_is_single_root():
    t = unravel(chain(3), "s1", 0)
    assert len(t.states) == 1


# ----------------------------------------------------------- canonical form

def test_tree_canonical_form_invariant_under_renaming():
    t1 = TreeFrame(["a", "b", "c"], [("a", "b"), ("a", "c")], {"p": ["c"]},
                   root="a")
    t2 = TreeFrame(["x", "z", "y"], [("x", "y"), ("x", "z")], {"p": ["y"]},
                   root="x")
    assert tree_canonical_form(t1) == tree_canonical_form(t2)


def test_tree_canonical_form_distinguishes_labels():
    t1 = TreeFrame(["a", "b"], [("a", "b")], {"p": ["b"]}, root="a")
    t2 = TreeFrame(["a", "b"], [("a", "b")], {"p": ["a"]}, root="a")
    assert tree_canonical_form(t1) != tree_canonical_form(t2)


def test_tree_canonical_form_decoration():
    t = TreeFrame(["a", "b"], [("a", "b")], {}, root="a")
    plain = tree_canonical_form(t)
    decorated = tree_canonical_form(t, decorate=lambda s: s)
    assert plain != decorated


def ref_tree_canonical_form(tree, decorate=None):
    """The recursive canonical form that the shared post-order walk replaced."""

    def form(s):
        labs = " ".join(sorted(tree.labels_of(s)))
        dec = decorate(s) if decorate is not None else ""
        kids = sorted(form(c) for c in tree.children(s))
        return "(" + labs + "|" + dec + "|" + ",".join(kids) + ")"

    return form(tree.root)


def renamed(tree):
    name = {s: f"r{i}" for i, s in enumerate(reversed(tree.states))}
    return TreeFrame([name[s] for s in tree.states],
                     [(name[a], name[b]) for a, b in tree.edges],
                     {p: [name[s] for s in ms] for p, ms in tree.labels.items()},
                     root=name[tree.root])


def test_tree_canonical_form_on_the_1200_tower():
    t = czarnecki(1, 1200)
    assert tree_canonical_form(t) == tree_canonical_form(renamed(t))


def test_tree_canonical_form_matches_recursive_reference():
    trees = [czarnecki(n, k) for n in range(1, 4) for k in range(1, 5)]
    for seed in range(20):
        fr = random_frame(1 + seed % 5, edge_prob=0.4, seed=seed)
        trees.append(unravel(fr, fr.states[0], 1 + seed % 4))
    for t in trees:
        assert tree_canonical_form(t) == ref_tree_canonical_form(t)
        depth = lambda s: str(len(t.ancestors(s)))
        assert tree_canonical_form(t, depth) == ref_tree_canonical_form(t, depth)


# ------------------------------------------------------------- text format

def test_frame_text_round_trip():
    f = Frame(["a", "b", "c"], [("a", "b"), ("c", "c")],
              {"p": ["a", "c"], "q": ["b"]})
    g = parse_frame(format_frame(f))
    assert g.states == f.states and g.edges == f.edges and g.labels == f.labels


def test_tree_frame_text_round_trip_keeps_root():
    t = TreeFrame(["a", "b"], [("a", "b")], {}, root="a")
    g = parse_frame(format_frame(t))
    assert isinstance(g, TreeFrame) and g.root == "a"


def test_parse_frame_accepts_spaced_arrows_and_semicolons():
    text = "states: s0 s1 s2\nedges: s0 -> s1 ; s1->s2\nlabels: p: s2\n"
    f = parse_frame(text)
    assert sorted(f.edges) == [("s0", "s1"), ("s1", "s2")]
    assert f.has_label("s2", "p")


def test_parse_frame_comments_and_blanks():
    f = parse_frame("# a chain\nstates: s0 s1\n\nedges: s0->s1  # the hop\n")
    assert f.states == ("s0", "s1")


@pytest.mark.parametrize("bad", [
    "edges: s0->s1\n",                      # edge over undeclared states
    "states: s0\nedges: s0->\n",
    "states: s0\nbogus: 1\n",
    "states: s0\nroot:\n",
    "states: s0 s0\n",
    "states: a b\nroot: a\n",               # root given but b unreachable
])
def test_parse_frame_rejects_malformed(bad):
    with pytest.raises(FrameParseError):
        parse_frame(bad)


# ------------------------------------------------------------- JSON and DOT

def test_frame_json_round_trip():
    f = czarnecki(2, 2)
    g = frame_from_json(frame_to_json(f))
    assert g.states == f.states and g.edges == f.edges and g.labels == f.labels


def test_tree_frame_json_keeps_root():
    t = unravel(chain(2), "s0", 3)
    g = frame_from_json(frame_to_json(t))
    assert isinstance(g, TreeFrame) and g.root == t.root


def test_frame_json_rejects_malformed():
    with pytest.raises(FrameParseError):
        frame_from_json({"edges": []})
    with pytest.raises(FrameParseError):
        frame_from_json({"states": ["a"], "edges": [["a", "b"]]})


@pytest.mark.parametrize("bad", [
    [], "x", 3, {"states": ["a"], "labels": []}, {"states": ["a"], "edges": 3},
])
def test_frame_json_raises_only_frame_parse_errors(bad):
    with pytest.raises(FrameParseError):
        frame_from_json(bad)


def test_dot_output_mentions_every_state_and_edge():
    f = Frame(["a", "b"], [("a", "b")], {"p": ["a"]})
    dot = frame_to_dot(f)
    assert dot.startswith("digraph")
    assert '"a"' in dot and '"b"' in dot and "->" in dot


# -------------------------------------------------- semantics ready frames

def test_eval_runs_on_every_enumerated_frame():
    phi = parse_formula("nab{p, q}")
    seen = 0
    for f in enumerate_frames(2, ("p", "q")):
        eval_formula(phi, f)
        seen += 1
    assert seen > 50
