"""Finite Kripke frames, rooted tree frames, and frame generators.

A frame is a finite set of named states, a binary edge relation, and a
labelling of states with proposition letters.  Tree frames additionally
fix a root and require the edge relation to form a tree (every state
reachable from the root through a unique parent).

The module also provides the generator zoo used throughout the test
suite and the command line tool: linear chains, the tower frames whose
closure stages grow without bound, seeded random frames, bounded
unravellings, and an exhaustive enumerator of small frames up to state
renaming.  The random and the exhaustive generators share one draw
format, states by position, and build a ``Frame`` only for callers that
want one; the semantic oracle packs the exhaustive draws straight into
lanes (it draws its random frames as lane words itself).
Frames can be read and written in a small text format, as JSON, and
(write-only) as DOT.
"""

from __future__ import annotations

import itertools
import re
from random import Random
from types import MappingProxyType
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Tuple)

from .syntax import Formula, Var, Prop, BigAnd, BigOr, Mu, box, dia, FF, _postorder, _Value

__all__ = [
    "Frame",
    "TreeFrame",
    "UnknownState",
    "InvalidParameter",
    "NotATree",
    "FrameParseError",
    "chain",
    "czarnecki",
    "czarnecki_formula",
    "random_frame",
    "unravel",
    "enumerate_frames",
    "tree_canonical_form",
    "parse_frame",
    "format_frame",
    "frame_to_json",
    "frame_from_json",
    "frame_to_dot",
]


class UnknownState(KeyError):
    """A state name that does not belong to the frame: ``args[0]`` is the
    name, and an optional second argument says where it was met."""

    def __str__(self) -> str:
        text = f"unknown state {self.args[0]!r}"
        return f"{self.args[1]}: {text}" if len(self.args) > 1 else text


class InvalidParameter(ValueError):
    """A generator argument outside its admissible range."""


class NotATree(ValueError):
    """Edges that do not form a tree rooted at the requested state."""


class FrameParseError(ValueError):
    """Malformed textual frame description."""


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise InvalidParameter(f"state names must be non-empty strings, got {name!r}")
    return name


class Frame(_Value):
    """A finite Kripke frame with named states; ``labels`` is a read-only
    map from each proposition to its nonempty state set."""

    __slots__ = ("states", "edges", "labels", "_succ", "_state_set")

    def __init__(
        self,
        states: Iterable[str],
        edges: Iterable[Tuple[str, str]] = (),
        labels: Optional[Mapping[str, Iterable[str]]] = None,
    ) -> None:
        sts = tuple(_check_name(s) for s in states)
        if len(set(sts)) != len(sts):
            raise InvalidParameter("duplicate state names")
        state_set = frozenset(sts)
        edge_set = frozenset((a, b) for a, b in edges)
        for a, b in edge_set:
            if a not in state_set or b not in state_set:
                bad = min(s for e in edge_set for s in e if s not in state_set)
                raise UnknownState(bad, "edge {}->{}".format(*min(e for e in edge_set if bad in e)))
        lab: Dict[str, FrozenSet[str]] = {}
        for p, members in (labels or {}).items():
            ms = frozenset(members)
            if not ms <= state_set:
                raise UnknownState(min(ms - state_set), f"label {p}")
            if ms:
                lab[p] = ms
        succ: Dict[str, set] = {s: set() for s in sts}
        for a, b in edge_set:
            succ[a].add(b)
        self._set(states=sts, edges=edge_set,
                  labels=MappingProxyType({p: lab[p] for p in sorted(lab)}),
                  _succ={s: frozenset(ts) for s, ts in succ.items()}, _state_set=state_set)

    def __contains__(self, state: str) -> bool:
        return state in self._state_set

    def require(self, state: str) -> str:
        if state not in self._state_set:
            raise UnknownState(state)
        return state

    def successors(self, state: str) -> FrozenSet[str]:
        self.require(state)
        return self._succ[state]

    def label_states(self, prop: str) -> FrozenSet[str]:
        return self.labels.get(prop, frozenset())

    def labels_of(self, state: str) -> FrozenSet[str]:
        self.require(state)
        return frozenset(p for p, ms in self.labels.items() if state in ms)

    def has_label(self, state: str, prop: str) -> bool:
        return state in self.label_states(prop)

    def _key(self) -> tuple:
        return (self.states, self.edges, tuple(self.labels.items()))

    def _args(self) -> tuple:
        return (self.states, self.edges, dict(self.labels))

    def __repr__(self) -> str:
        return f"<Frame {len(self.states)} states, {len(self.edges)} edges>"


class TreeFrame(Frame):
    """A frame whose edges form a tree below a designated root."""

    __slots__ = ("root", "_parent")

    def __init__(
        self,
        states: Iterable[str],
        edges: Iterable[Tuple[str, str]] = (),
        labels: Optional[Mapping[str, Iterable[str]]] = None,
        root: str = "",
    ) -> None:
        super().__init__(states, edges, labels)
        if root not in self._state_set:
            raise UnknownState(root)
        parent: Dict[str, Optional[str]] = {b: a for a, b in self.edges}
        if root in parent:
            raise NotATree(f"edge into the root {root!r}")
        if len(parent) < len(self.edges):
            heads = sorted(b for _, b in self.edges)
            twice = min(b for b, c in zip(heads, heads[1:]) if b == c)
            raise NotATree(f"state {twice!r} has two parents")
        parent[root] = None
        if len(self.edges) != len(self.states) - 1:
            raise NotATree("a tree on n states has exactly n-1 edges")
        seen = self.subtree_states(root)
        if seen != self._state_set:
            missing = sorted(self._state_set - seen)
            raise NotATree(f"states unreachable from the root: {missing}")
        self._set(root=root, _parent=parent)

    def _args(self) -> tuple:
        return (*super()._args(), self.root)

    def parent(self, state: str) -> Optional[str]:
        self.require(state)
        return self._parent.get(state)

    def children(self, state: str) -> Tuple[str, ...]:
        return tuple(sorted(self.successors(state)))

    def ancestors(self, state: str) -> Tuple[str, ...]:
        """Strict ancestors of the state, nearest first."""
        self.require(state)
        out: List[str] = []
        cur = self._parent.get(state)
        while cur is not None:
            out.append(cur)
            cur = self._parent.get(cur)
        return tuple(out)

    def path_from_root(self, state: str) -> Tuple[str, ...]:
        return tuple(reversed(self.ancestors(state))) + (self.require(state),)

    def depth(self, state: str) -> int:
        return len(self.ancestors(state))

    def subtree_states(self, state: str) -> FrozenSet[str]:
        self.require(state)
        seen = {state}
        queue = [state]
        while queue:
            s = queue.pop()
            for t in self._succ[s]:
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        return frozenset(seen)

    def subtree(self, state: str) -> "TreeFrame":
        keep = self.subtree_states(state)
        return TreeFrame(
            [s for s in self.states if s in keep],
            [(a, b) for a, b in self.edges if a in keep],
            {p: ms & keep for p, ms in self.labels.items()},
            root=state,
        )

    def __repr__(self) -> str:
        return f"<TreeFrame {len(self.states)} states, root {self.root!r}>"


def tree_canonical_form(tree: TreeFrame, decorate: Optional[Callable[[str], str]] = None) -> str:
    """A string invariant under state renaming (child order ignored).

    Two tree frames are isomorphic as labelled (and, via ``decorate``,
    decorated) trees exactly when their canonical forms coincide.
    """
    forms: Dict[str, str] = {}
    for s in _postorder((tree.root,), tree.children):
        labs = " ".join(sorted(tree.labels_of(s)))
        dec = decorate(s) if decorate is not None else ""
        kids = sorted(forms[c] for c in tree.children(s))
        forms[s] = "(" + labs + "|" + dec + "|" + ",".join(kids) + ")"
    return forms[tree.root]


# ---------------------------------------------------------------------------
# generators


def chain(k: int) -> TreeFrame:
    """A linear chain s0 -> s1 -> ... -> s{k-1} with no labels."""
    if k < 1:
        raise InvalidParameter("chain needs at least one state")
    states = [f"s{i}" for i in range(k)]
    edges = [(f"s{i}", f"s{i+1}") for i in range(k - 1)]
    return TreeFrame(states, edges, {}, root="s0")


def czarnecki(n: int, k: int) -> TreeFrame:
    """Tower frames whose stabilisation stage grows without bound in k.

    Level one is a labelled chain of k+1 states; the valuation of the
    matching formula (:func:`czarnecki_formula`) creeps up the chain one
    state per stage, so the root enters at stage k+1.  Each level above
    adds a k-state spine in which every spine state hangs a full copy of
    the previous level, pushing the root entry stage up by k per level.
    The root of the returned tree is the state entering last.
    """
    if n < 1 or k < 1:
        raise InvalidParameter("czarnecki needs n >= 1 and k >= 1")
    if n == 1:
        states = [f"c{i}" for i in range(k + 1)]
        edges = [(f"c{i}", f"c{i+1}") for i in range(k)]
        return TreeFrame(states, edges, {"p": states}, root="c0")

    counter = itertools.count()
    states: List[str] = []
    edges: List[Tuple[str, str]] = []
    labels: Dict[str, List[str]] = {}

    def tag(state: str, level: int) -> None:
        labels.setdefault(f"p{level}", []).append(state)
        for i in range(level, n + 1):
            labels.setdefault(f"q{i}", []).append(state)

    def build(level: int) -> str:
        if level == 1:
            ids = [f"t{next(counter)}" for _ in range(k + 1)]
            states.extend(ids)
            edges.extend(zip(ids, ids[1:]))
            for s in ids:
                tag(s, 1)
            return ids[0]
        spine = [f"t{next(counter)}" for _ in range(k)]
        states.extend(spine)
        for s in spine:
            tag(s, level)
        for j in range(1, k):
            edges.append((spine[j], spine[j - 1]))
        for s in spine:
            edges.append((s, build(level - 1)))
        return spine[-1]

    head = build(n)
    return TreeFrame(states, edges, labels, root=head)


def czarnecki_formula(n: int) -> Formula:
    """The closed formula paired with :func:`czarnecki` frames."""
    if n < 1:
        raise InvalidParameter("czarnecki_formula needs n >= 1")
    x = Var("x")
    if n == 1:
        body = BigOr({BigAnd({Prop("p"), dia(x)}), box(FF)})
        return Mu("x", body)
    disjuncts = [box(FF)]
    for i in range(1, n + 1):
        step = dia(x) if i == 1 else box(x)
        disjuncts.append(BigAnd({Prop(f"p{i}"), box(Prop(f"q{i}")), step}))
    return Mu("x", BigOr(disjuncts))


def random_frame(
    size: int,
    edge_prob: float = 0.35,
    props: Sequence[str] = ("p", "q"),
    seed: int = 0,
) -> Frame:
    """A pseudo-random frame, fully determined by its arguments."""
    if size < 1:
        raise InvalidParameter("random_frame needs at least one state")
    if not 0.0 <= edge_prob <= 1.0:
        raise InvalidParameter("edge_prob must lie in [0, 1]")
    draws = _random_draws(size, edge_prob, len(props), Random(seed).random)
    return _drawn_frame(size, *draws, props)


def _drawn_frame(n: int, edges: Iterable[int], labels: Sequence[Iterable[int]],
                 props: Sequence[str]) -> Frame:
    """The frame on states s0..s{n-1} of one draw: the edges i -> j as
    row-major positions i * n + j and, aligned with ``props``, the
    positions of each proposition's states."""
    states = [f"s{i}" for i in range(n)]
    return Frame(states, [(states[k // n], states[k % n]) for k in edges],
                 {p: [states[i] for i in members] for p, members in zip(props, labels)})


def _random_draws(size: int, edge_prob: float, nprops: int, rand: Callable[[], float]
                  ) -> Tuple[List[int], List[List[int]]]:
    """The draws of ``random_frame`` by state position, taken from
    ``rand`` (a generator's ``random``) one after another: the edges
    i -> j as row-major positions i * size + j, then per proposition the
    labelled positions."""
    edges = [k for k in range(size * size) if rand() < edge_prob]
    labels = [[i for i in range(size) if rand() < 0.5] for _ in range(nprops)]
    return edges, labels


def unravel(frame: Frame, start: str, depth: int) -> TreeFrame:
    """The tree of paths from ``start`` of length at most ``depth``.

    Node names are fresh (``u0`` is the root); labels are inherited from
    the originating states.
    """
    frame.require(start)
    if depth < 0:
        raise InvalidParameter("depth must be non-negative")
    names: List[str] = []
    edges: List[Tuple[str, str]] = []
    labels: Dict[str, List[str]] = {}
    queue: List[Tuple[str, str, int]] = [(start, "u0", 0)]
    counter = itertools.count(1)
    while queue:
        orig, name, d = queue.pop(0)
        names.append(name)
        for p in frame.labels_of(orig):
            labels.setdefault(p, []).append(name)
        if d < depth:
            for t in sorted(frame.successors(orig)):
                child = f"u{next(counter)}"
                edges.append((name, child))
                queue.append((t, child, d + 1))
    return TreeFrame(names, edges, labels, root="u0")


def enumerate_frames(
    max_states: int,
    props: Sequence[str] = (),
    dedup: bool = True,
) -> Iterator[Frame]:
    """All frames with 1..max_states states over the given propositions.

    With ``dedup`` (the default) one representative is produced per
    renaming orbit: frames equal up to a permutation of state names are
    emitted once.
    """
    props = tuple(props)
    for n, edges, labels in _exhaustive_draws(max_states, len(props), dedup):
        yield _drawn_frame(n, edges, labels, props)


def _exhaustive_draws(max_states: int, nprops: int, dedup: bool = True) -> Iterator[tuple]:
    """The draws of ``enumerate_frames``: per frame its state count n, then
    its edges and labels as ``_random_draws`` gives them.

    Per n it visits in (e, l) order the edge bit sets e (i -> j at bit
    i * n + j) and label bit sets l (state i in proposition k at bit
    k * n + i).  With ``dedup`` it keeps (e, l) when no state renaming p
    has p(e) < e, and l <= p(l) for every p with p(e) = e: the least, so
    the first, pair of its orbit.  Without it the identity is the only p.
    """
    if max_states < 1:
        raise InvalidParameter("max_states must be at least 1")
    for n in range(1, max_states + 1):
        perms = itertools.permutations(range(n)) if dedup else [range(n)]
        images = [(_images([p[i] * n + p[j] for i in range(n) for j in range(n)]),
                   _images([k * n + p[i] for k in range(nprops) for i in range(n)]))
                  for p in perms]
        label_sets = [tuple(tuple(i for i in range(n) if l >> k * n + i & 1) for k in range(nprops))
                      for l in range(1 << n * nprops)]
        for e in range(1 << n * n):
            if any(pe[e] < e for pe, _ in images):
                continue
            fixing = [pl for pe, pl in images if pe[e] == e]
            edges = tuple(k for k in range(n * n) if e >> k & 1)
            for l, labels in enumerate(label_sets):
                if all(l <= pl[l] for pl in fixing):
                    yield n, edges, labels


def _images(targets: Sequence[int]) -> List[int]:
    """Per bit set x below 2 ** len(targets), its image when bit k moves
    to bit targets[k]."""
    images = [0]
    for t in targets:
        images += [x | 1 << t for x in images]
    return images


# ---------------------------------------------------------------------------
# textual format

#   states: s0 s1 s2
#   edges: s0->s1 s1->s2
#   labels: p: s0 s2 ; q: s1
#   root: s0          (optional; makes the result a TreeFrame)


def parse_frame(text: str):
    """Parse the textual format above.  Raises FrameParseError on
    malformed text."""
    states: List[str] = []
    edges: List[Tuple[str, str]] = []
    labels: Dict[str, List[str]] = {}
    root: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        if not _:
            raise FrameParseError(f"line {lineno}: expected 'key: value'")
        if key == "states":
            states.extend(rest.split())
        elif key == "edges":
            # Accept both the compact form emitted by format_frame
            # ("a->b c->d") and hand-written variants with spaces
            # around the arrow or semicolon separators.
            normalized = re.sub(r"\s*->\s*", "->", rest.replace(";", " "))
            for tok in normalized.split():
                a, sep, b = tok.partition("->")
                if not sep or not a or not b:
                    raise FrameParseError(f"line {lineno}: bad edge {tok!r}")
                edges.append((a, b))
        elif key == "labels":
            for seg in rest.split(";"):
                seg = seg.strip()
                if not seg:
                    continue
                p, sep, members = seg.partition(":")
                if not sep:
                    raise FrameParseError(f"line {lineno}: bad label group {seg!r}")
                labels.setdefault(p.strip(), []).extend(members.split())
        elif key == "root":
            root = rest.strip()
            if not root:
                raise FrameParseError(f"line {lineno}: empty root")
        else:
            raise FrameParseError(f"line {lineno}: unknown key {key!r}")
    try:
        if root is not None:
            return TreeFrame(states, edges, labels, root=root)
        return Frame(states, edges, labels)
    except (UnknownState, InvalidParameter, NotATree) as exc:
        raise FrameParseError(str(exc)) from exc


def format_frame(frame: Frame) -> str:
    lines = ["states: " + " ".join(frame.states)]
    if frame.edges:
        lines.append("edges: " + " ".join(f"{a}->{b}" for a, b in sorted(frame.edges)))
    if frame.labels:
        groups = [
            f"{p}: " + " ".join(s for s in frame.states if s in frame.labels[p])
            for p in sorted(frame.labels)
        ]
        lines.append("labels: " + " ; ".join(groups))
    if isinstance(frame, TreeFrame):
        lines.append(f"root: {frame.root}")
    return "\n".join(lines) + "\n"


def frame_to_json(frame: Frame) -> dict:
    data = {
        "states": list(frame.states),
        "edges": sorted([a, b] for a, b in frame.edges),
        "labels": {p: sorted(ms) for p, ms in sorted(frame.labels.items())},
    }
    if isinstance(frame, TreeFrame):
        data["root"] = frame.root
    return data


def frame_from_json(data: Mapping) -> Frame:
    try:
        states = list(data["states"])
        edges = [(a, b) for a, b in data.get("edges", [])]
        labels = {p: list(ms) for p, ms in data.get("labels", {}).items()}
        if "root" in data:
            return TreeFrame(states, edges, labels, root=data["root"])
        return Frame(states, edges, labels)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, (UnknownState, InvalidParameter, NotATree)):
            raise FrameParseError(str(exc)) from exc
        raise FrameParseError(f"malformed frame object: {exc}") from exc


def frame_to_dot(frame: Frame) -> str:
    lines = ["digraph frame {"]
    root = frame.root if isinstance(frame, TreeFrame) else None
    for s in frame.states:
        labs = " ".join(sorted(frame.labels_of(s)))
        text = s if not labs else f"{s}\\n{labs}"
        shape = ", shape=doublecircle" if s == root else ""
        lines.append(f'  "{s}" [label="{text}"{shape}];')
    for a, b in sorted(frame.edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
