"""Pumping machinery on ordinal-annotated trees.

An annotated tree couples a tree frame with a full annotation and a
relevant part.  States whose relevant part contains a cover formula at
a limit stage are limit states; two limit states on a common branch
with identical stripped annotation sets and a shared cover formula at
strictly descending limit stages form a repetition pair (the upper
state is the companion, the lower the bud).  A counting argument
guarantees such pairs on any branch whose relevant annotations descend
from w.N to 0, where N depends only on the closure size.  Pumping
replaces the branch rooted at a state by a donor tree with a matching
stripped root profile.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .ordinal import Ordinal, OMEGA, ZERO
from .syntax import EquationSystem, Formula, Nabla, Var, _Value, format_formula, size, sort_key
from .frame import TreeFrame, UnknownState
from .annotation import AnnEntry, Annotation, _entry_key

__all__ = [
    "AnnotatedTree",
    "RepetitionPair",
    "PairFound",
    "HypothesisUnmet",
    "BoundEstimate",
    "NotOptimal",
    "PossiblyOptimal",
    "RootSetMismatch",
    "NotATreeState",
    "limit_states",
    "find_repetition_pairs",
    "repetition_bound",
    "check_descent_hypothesis",
    "pump",
    "annotated_subtree",
    "family_root_bound",
    "optimality",
    "pair_to_json",
]


class RootSetMismatch(ValueError):
    """Donor root profile differs from the replaced state's profile."""


class NotATreeState(UnknownState):
    """The named state does not belong to the annotated tree."""


class AnnotatedTree(_Value):
    """A tree frame with a full annotation and a relevant part on it."""

    __slots__ = ("tree", "theta", "phi")

    def __init__(self, tree: TreeFrame, theta: Annotation, phi: Annotation) -> None:
        if not isinstance(tree, TreeFrame):
            raise ValueError("annotated trees are built over tree frames")
        if theta.frame != tree or phi.frame != tree:
            raise ValueError("annotations must live on the given tree")
        for s in tree.states:
            extra = phi.at(s) - theta.at(s)
            if extra:
                f, a = min(extra, key=_entry_key)
                raise ValueError(
                    f"relevant entry {format_formula(f)} @ {a} at {s} is not"
                    " in the full annotation"
                )
        self._set(tree=tree, theta=theta, phi=phi)

    def _key(self) -> tuple:
        return (self.tree, self.theta, self.phi)

    def __repr__(self) -> str:
        return f"<AnnotatedTree {len(self.tree.states)} states, root {self.tree.root!r}>"


class RepetitionPair(NamedTuple):
    """Two same-profile limit states on a branch, annotation descending."""

    companion: str
    bud: str
    gamma: FrozenSet[Formula]
    alpha: Ordinal
    beta: Ordinal

    def __str__(self) -> str:
        members = ", ".join(sorted(format_formula(g) for g in self.gamma))
        return (
            f"companion {self.companion} @ {self.alpha} -> bud {self.bud}"
            f" @ {self.beta} over nab{{{members}}}"
        )


class PairFound(NamedTuple):
    pair: RepetitionPair


class HypothesisUnmet(NamedTuple):
    reason: str


def limit_states(t: AnnotatedTree) -> FrozenSet[str]:
    """States whose relevant part holds a cover formula at a limit stage."""
    return frozenset(
        s for s in t.tree.states
        if any(isinstance(f, Nabla) and a.is_limit for f, a in t.phi.at(s))
    )


def _descending_cover(
    t: AnnotatedTree, companion: str, bud: str
) -> Optional[Tuple[FrozenSet[Formula], Ordinal, Ordinal]]:
    """A shared cover formula with limit stages descending from companion to bud."""
    upper: Dict[Formula, List[Ordinal]] = {}
    for f, a in t.phi.at(companion):
        if isinstance(f, Nabla) and a.is_limit:
            upper.setdefault(f, []).append(a)
    for f in sorted(upper, key=sort_key):
        for alpha in sorted(upper[f], reverse=True):
            betas = sorted(
                b for g, b in t.phi.at(bud)
                if g == f and b.is_limit and b < alpha
            )
            if betas:
                return f.args, alpha, betas[0]
    return None


def find_repetition_pairs(t: AnnotatedTree) -> List[RepetitionPair]:
    """All companion/bud pairs, in tree order of the bud."""
    limits = limit_states(t)
    out: List[RepetitionPair] = []
    for bud in t.tree.states:
        if bud not in limits:
            continue
        for companion in t.tree.ancestors(bud):
            if companion not in limits:
                continue
            if t.theta.stripped(companion) != t.theta.stripped(bud):
                continue
            if t.phi.stripped(companion) != t.phi.stripped(bud):
                continue
            witness = _descending_cover(t, companion, bud)
            if witness is not None:
                out.append(RepetitionPair(companion, bud, *witness))
    return out


def repetition_bound(system: EquationSystem) -> int:
    """2^(2 * closure size) + 1: more limit states than annotation-set
    profiles forces a repetition pair on a descending branch."""
    return 2 ** (2 * size(system)) + 1


def check_descent_hypothesis(
    t: AnnotatedTree,
    path: Sequence[str],
    system: EquationSystem,
) -> Union[PairFound, HypothesisUnmet]:
    """Check the descent hypotheses along a root-to-node path and hunt
    for the repetition pair they guarantee.

    The hypotheses: the relevant part is non-empty at every node, the
    top annotation starts at or above w.N (N from
    :func:`repetition_bound`), and the path descends to annotation 0.
    """
    path = list(path)
    if not path or path[0] != t.tree.root:
        raise ValueError("path must start at the root")
    for a, b in zip(path, path[1:]):
        if b not in t.tree.successors(a):
            raise ValueError(f"{a!r} -> {b!r} is not an edge of the tree")
    for s in path:
        if not t.phi.at(s):
            return HypothesisUnmet(f"relevant part is empty at {s}")
    bound = repetition_bound(system)
    threshold = Ordinal.single(1, bound)
    top = max(a for _, a in t.phi.at(path[0]))
    if top < threshold:
        return HypothesisUnmet(
            f"initial annotation {top} is below w.{bound}"
        )
    bottom = min(a for _, a in t.phi.at(path[-1]))
    if bottom != ZERO:
        return HypothesisUnmet(
            f"final annotation {bottom} does not reach 0"
        )
    on_path = {s: i for i, s in enumerate(path)}
    candidates = [
        p for p in find_repetition_pairs(t)
        if p.companion in on_path and p.bud in on_path
    ]
    if not candidates:
        return HypothesisUnmet(
            "no repetition pair along the path; some relevance clause must"
            " fail on it"
        )
    best = min(candidates, key=lambda p: (on_path[p.companion], on_path[p.bud]))
    return PairFound(best)


def annotated_subtree(t: AnnotatedTree, state: str) -> AnnotatedTree:
    """The annotated tree rooted at a state, annotations restricted."""
    if state not in t.tree:
        raise NotATreeState(state)
    sub = t.tree.subtree(state)
    keep = frozenset(sub.states)
    theta = Annotation(sub, {s: t.theta.at(s) for s in keep})
    phi = Annotation(sub, {s: t.phi.at(s) for s in keep})
    return AnnotatedTree(sub, theta, phi)


def pump(t: AnnotatedTree, state: str, donor: AnnotatedTree) -> AnnotatedTree:
    """Replace the branch rooted at a state by a donor annotated tree.

    The donor's stripped root profile must equal the replaced state's;
    donor states are renamed when they collide with surviving names.
    """
    if state not in t.tree:
        raise NotATreeState(state)
    droot = donor.tree.root
    if donor.theta.stripped(droot) != t.theta.stripped(state):
        raise RootSetMismatch(
            f"donor root profile differs from the profile at {state}"
        )
    removed = t.tree.subtree_states(state)
    kept = [s for s in t.tree.states if s not in removed]
    used = set(kept)
    rename: Dict[str, str] = {}
    for d in donor.tree.states:
        name = d
        k = 1
        while name in used:
            name = f"{d}~{k}"
            k += 1
        rename[d] = name
        used.add(name)

    states = kept + [rename[d] for d in donor.tree.states]
    edges = [(a, b) for a, b in t.tree.edges if a not in removed and b not in removed]
    parent = t.tree.parent(state)
    if parent is not None:
        edges.append((parent, rename[droot]))
    edges.extend((rename[a], rename[b]) for a, b in donor.tree.edges)
    labels: Dict[str, List[str]] = {}
    for p, ms in t.tree.labels.items():
        labels[p] = [s for s in ms if s not in removed]
    for p, ms in donor.tree.labels.items():
        labels.setdefault(p, []).extend(rename[s] for s in ms)
    root = t.tree.root if parent is not None else rename[droot]
    tree = TreeFrame(states, edges, labels, root=root)

    theta_entries: Dict[str, Iterable[AnnEntry]] = {s: t.theta.at(s) for s in kept}
    phi_entries: Dict[str, Iterable[AnnEntry]] = {s: t.phi.at(s) for s in kept}
    for d in donor.tree.states:
        theta_entries[rename[d]] = donor.theta.at(d)
        phi_entries[rename[d]] = donor.phi.at(d)
    return AnnotatedTree(
        tree,
        Annotation(tree, theta_entries),
        Annotation(tree, phi_entries),
    )


class BoundEstimate(NamedTuple):
    """A family-realized lower bound; ``witnessed`` is False when no
    family member matched the requested profile (the 0 is then a flag,
    not evidence)."""

    value: Ordinal
    witnessed: bool
    witness: Optional[int]


def family_root_bound(
    x: str,
    gamma: Iterable[Formula],
    trees: Sequence[AnnotatedTree],
) -> BoundEstimate:
    """Largest root annotation of the variable over family members whose
    stripped root profile equals gamma."""
    profile = frozenset(gamma)
    target = Var(x)
    best: Optional[Tuple[Ordinal, int]] = None
    for i, member in enumerate(trees):
        root = member.tree.root
        if member.theta.stripped(root) != profile:
            continue
        for f, kappa in member.theta.at(root):
            if f == target and (best is None or kappa > best[0]):
                best = (kappa, i)
    if best is None:
        return BoundEstimate(ZERO, False, None)
    return BoundEstimate(best[0], True, best[1])


class NotOptimal(NamedTuple):
    witness: int
    annotation: Ordinal


class PossiblyOptimal(NamedTuple):
    def __bool__(self) -> bool:
        """A verdict, so truthy although it has no fields."""
        return True


def optimality(
    t: AnnotatedTree,
    state: str,
    formula: Formula,
    alpha: Ordinal,
    trees: Sequence[AnnotatedTree],
) -> Union[NotOptimal, PossiblyOptimal]:
    """Search the family for a same-profile root annotating the formula
    at or above alpha + w; finding one refutes optimality, not finding
    one cannot certify it."""
    if state not in t.tree:
        raise NotATreeState(state)
    if (formula, alpha) not in t.theta.at(state):
        raise ValueError(
            f"{format_formula(formula)} @ {alpha} is not annotated at {state}"
        )
    profile = t.theta.stripped(state)
    threshold = alpha + OMEGA
    for i, member in enumerate(trees):
        root = member.tree.root
        if member.theta.stripped(root) != profile:
            continue
        for f, kappa in member.theta.at(root):
            if f == formula and kappa >= threshold:
                return NotOptimal(i, kappa)
    return PossiblyOptimal()


def pair_to_json(pair: RepetitionPair) -> dict:
    return {
        "companion": pair.companion,
        "bud": pair.bud,
        "gamma": sorted(format_formula(g) for g in pair.gamma),
        "alpha": str(pair.alpha),
        "beta": str(pair.beta),
    }
