"""Ordinal-annotated formula sets over frame states.

An annotation attaches to each state a finite set of pairs (closure
formula, ordinal).  The validity checker enforces the local clauses
that make an annotation a witness for membership in the approximation
stages: closed formulas must hold outright, a variable entry at stage a
needs its right-hand side strictly below a, a disjunction needs one
disjunct at or below its stage, a conjunction needs all conjuncts at or
below its stage, and a cover needs each successor to match the member
set or some single member to cover all successors.  Each clause asks
only whether a formula is annotated at or (strictly) below a stage, so
the checker compares against each state's least stage per formula.

The conservative annotation assigns every satisfied closure formula its
least approximation stage at every state.  It is read off the
first-stage table of the system's cached stage run on the frame
(``semantics.first_stages``), in which every closure formula has a
slot, so ``conservative`` and ``verify_conservative`` share one run of
the stages and one read-out of it, ``_least_stages``.  The checker
reads a closed formula's truth from the same table, as its stage-0
mask; this module evaluates no formula itself.
From a conservative annotation over a tree, ``extract_relevant`` carves
out a relevant part: a sub-annotation recording one reason per state
for the designated variable to hold at the root, duplicating successors
where one copy cannot serve two reasons at once.  It walks the tree
with an explicit stack, so tree depth is not bounded by the recursion
limit.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple, Union)

from .ordinal import Ordinal, ZERO, OrdinalParseError
from .syntax import (BigAnd, BigOr, Box, Dia, EquationSystem, Formula, Nabla,
                     NegatedVariable, ParseError, UnboundVariable, Var, closure,
                     format_formula, free_vars, is_closed, parse_formula, sort_key)
from .frame import Frame, TreeFrame, UnknownState
from .semantics import first_stages, frame_index

__all__ = [
    "AnnEntry",
    "AnnSet",
    "Annotation",
    "Violation",
    "ForeignFormula",
    "ExtractionFailure",
    "AnnotationParseError",
    "preceq",
    "preceq_annotation",
    "check_well_annotation",
    "conservative",
    "verify_conservative",
    "box_set",
    "dia_set",
    "check_relevant",
    "extract_relevant",
    "parse_annotation",
    "format_annotation",
    "annotation_to_json",
    "annotation_from_json",
]

AnnEntry = Tuple[Formula, Ordinal]
AnnSet = FrozenSet[AnnEntry]


class ForeignFormula(ValueError):
    """An annotated formula outside the closure of the equation system."""


class ExtractionFailure(ValueError):
    """No relevant part satisfying all clauses could be carved out."""


class AnnotationParseError(ValueError):
    """Malformed textual annotation."""


def _coerce_entry(entry) -> AnnEntry:
    f, a = entry
    if not isinstance(f, Formula):
        raise TypeError(f"annotation entries pair a formula with an ordinal, got {f!r}")
    if isinstance(a, int):
        a = Ordinal.natural(a)
    if not isinstance(a, Ordinal):
        raise TypeError(f"annotation stage must be an ordinal, got {a!r}")
    return (f, a)


def _entry_key(entry: AnnEntry):
    return (sort_key(entry[0]), entry[1])


class Annotation:
    """A per-state finite set of (formula, ordinal) pairs over a frame."""

    __slots__ = ("frame", "_entries")

    def __init__(self, frame: Frame, entries: Mapping[str, Iterable]) -> None:
        table: Dict[str, AnnSet] = {}
        for s, pairs in entries.items():
            frame.require(s)
            if isinstance(pairs, Mapping):
                pairs = pairs.items()
            ann = frozenset(_coerce_entry(e) for e in pairs)
            if ann:
                table[s] = ann
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_entries", table)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Annotation objects are immutable")

    def at(self, state: str) -> AnnSet:
        self.frame.require(state)
        return self._entries.get(state, frozenset())

    def stripped(self, state: str) -> FrozenSet[Formula]:
        return frozenset(f for f, _ in self.at(state))

    def items(self) -> Iterable[Tuple[str, AnnSet]]:
        for s in self.frame.states:
            yield s, self.at(s)

    def with_entry(self, state: str, f: Formula, a: Union[int, Ordinal]) -> "Annotation":
        new = {s: set(ann) for s, ann in self._entries.items()}
        new.setdefault(state, set()).add(_coerce_entry((f, a)))
        return Annotation(self.frame, new)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Annotation):
            return NotImplemented
        return self.frame == other.frame and self._entries == other._entries

    def __hash__(self) -> int:
        return hash((self.frame, frozenset(self._entries.items())))

    def __repr__(self) -> str:
        count = sum(len(a) for a in self._entries.values())
        return f"<Annotation {count} entries over {len(self.frame.states)} states>"


class Violation(NamedTuple):
    """A single failed clause, located at a state and an entry."""

    state: str
    clause: str
    formula: Optional[Formula]
    ordinal: Optional[Ordinal]
    detail: str

    def __str__(self) -> str:
        subject = ""
        if self.formula is not None:
            subject = f" {format_formula(self.formula)}"
            if self.ordinal is not None:
                subject += f" @ {self.ordinal}"
        return f"{self.state}: {self.clause}{subject} -- {self.detail}"


def _least(ann: AnnSet) -> Dict[Formula, Ordinal]:
    """Each formula of the set with its least stage there."""
    least: Dict[Formula, Ordinal] = {}
    for f, x in ann:
        cur = least.get(f)
        if cur is None or x < cur:
            least[f] = x
    return least


def preceq(a: AnnSet, b: AnnSet) -> bool:
    """Every entry of b is matched in a by the same formula at or below its stage."""
    least = _least(a)
    return all(f in least and least[f] <= x for f, x in b)


def preceq_annotation(a: Annotation, b: Annotation) -> bool:
    """Pointwise comparison over a shared state space."""
    if frozenset(a.frame.states) != frozenset(b.frame.states):
        raise ValueError("annotations compare pointwise over the same states")
    return all(preceq(a.at(s), b.at(s)) for s in a.frame.states)


def _closure_or_raise(theta: Annotation, system: EquationSystem) -> FrozenSet[Formula]:
    clos = closure(system)
    for s, ann in theta.items():
        for f, _ in ann:
            if f not in clos:
                raise ForeignFormula(
                    f"{format_formula(f)} at {s} is not in the closure of the system"
                )
    return clos


def check_well_annotation(
    theta: Annotation,
    system: EquationSystem,
    frame: Optional[Frame] = None,
) -> List[Violation]:
    """All clause failures of the annotation; empty means valid."""
    if frame is not None and frame != theta.frame:
        raise ValueError("annotation belongs to a different frame")
    frame = theta.frame
    _closure_or_raise(theta, system)
    index = frame_index(frame)
    table = first_stages(system, index)
    least = {s: _least(theta.at(s)) for s in frame.states}

    def within(r: str, g: Formula, a: Ordinal) -> bool:
        b = least[r].get(g)
        return b is not None and b <= a

    out: List[Violation] = []
    for s in frame.states:
        succs = sorted(frame.successors(s))
        for f, a in sorted(theta.at(s), key=_entry_key):
            if is_closed(f):
                held = dict(table[f]).get(0, 0)
                if not held >> index.position[s] & 1:
                    out.append(Violation(s, "D3.1-1", f, a, "closed formula does not hold here"))
            if isinstance(f, Var):
                b = least[s].get(system.eq(f.name))
                if b is None or not b < a:
                    out.append(Violation(
                        s, "D3.1-2", f, a,
                        "right-hand side is not annotated strictly below the variable",
                    ))
            elif isinstance(f, BigOr):
                if not any(within(s, d, a) for d in f.args):
                    out.append(Violation(
                        s, "D3.1-3", f, a,
                        "no disjunct is annotated at or below the disjunction",
                    ))
            elif isinstance(f, BigAnd):
                missing = [
                    d for d in sorted(f.args, key=sort_key) if not within(s, d, a)
                ]
                if missing:
                    out.append(Violation(
                        s, "D3.1-4", f, a,
                        "conjuncts not annotated at or below the conjunction: "
                        + ", ".join(format_formula(d) for d in missing),
                    ))
            elif isinstance(f, Nabla):
                cover_match = any(all(within(r, g, a) for g in f.args) for r in succs)
                member_all = any(all(within(r, g, a) for r in succs) for g in f.args)
                if not cover_match and not member_all:
                    out.append(Violation(
                        s, "D3.1-5a", f, a,
                        "no successor carries the whole member set at or below"
                        " the stage",
                    ))
                    out.append(Violation(
                        s, "D3.1-5b", f, a,
                        "no single member is carried by every successor at or"
                        " below the stage",
                    ))
            elif isinstance(f, Box):
                bad = [r for r in succs if not within(r, f.arg, a)]
                if bad:
                    out.append(Violation(
                        s, "D3.1-box", f, a,
                        "successors missing the argument at or below the stage: "
                        + ", ".join(bad),
                    ))
            elif isinstance(f, Dia):
                if not any(within(r, f.arg, a) for r in succs):
                    out.append(Violation(
                        s, "D3.1-dia", f, a,
                        "no successor carries the argument at or below the stage",
                    ))
    return out


def _least_stages(system: EquationSystem, frame: Frame) -> Dict[str, Dict[Formula, Ordinal]]:
    """State -> {satisfied closure formula: its least stage there}, read
    off the first-stage table of the system's stage run on the frame,
    where every closure formula has a slot."""
    table = first_stages(system, frame_index(frame))
    states = frame.states
    least: Dict[str, Dict[Formula, Ordinal]] = {s: {} for s in states}
    stage: Dict[int, Ordinal] = {}
    for f in closure(system):
        for a, new in table[f]:
            alpha = stage.get(a)
            if alpha is None:
                alpha = stage[a] = Ordinal.natural(a)
            while new:
                low = new & -new
                least[states[low.bit_length() - 1]][f] = alpha
                new ^= low
    return least


def conservative(system: EquationSystem, frame: Frame) -> Annotation:
    """Annotate every satisfied closure formula with its least stage."""
    return Annotation(frame, _least_stages(system, frame))


def verify_conservative(
    theta: Annotation,
    system: EquationSystem,
    frame: Optional[Frame] = None,
) -> List[Violation]:
    """Mismatches against the least-stage annotation; empty means exact."""
    if frame is not None and frame != theta.frame:
        raise ValueError("annotation belongs to a different frame")
    frame = theta.frame
    _closure_or_raise(theta, system)
    reference = _least_stages(system, frame)
    out: List[Violation] = []
    for s in frame.states:
        by_formula: Dict[Formula, List[Ordinal]] = {}
        for f, a in theta.at(s):
            by_formula.setdefault(f, []).append(a)
        ref = reference[s]
        for f in sorted(by_formula, key=sort_key):
            stages = sorted(by_formula[f])
            if len(stages) > 1:
                out.append(Violation(
                    s, "D3.2-1", f, stages[0],
                    "formula annotated more than once: "
                    + ", ".join(str(a) for a in stages),
                ))
            for a in stages:
                if f not in ref:
                    out.append(Violation(
                        s, "D3.2-2", f, a, "formula does not hold at this state"
                    ))
                elif a != ref[f]:
                    out.append(Violation(
                        s, "D3.2-2", f, a, f"least stage here is {ref[f]}"
                    ))
        for f, a in sorted(ref.items(), key=_entry_key):
            if f not in by_formula:
                out.append(Violation(
                    s, "D3.2-2", f, a,
                    "satisfied closure formula missing from the annotation",
                ))
    return out


def box_set(gamma: Iterable[Formula], state: str, theta: Annotation) -> FrozenSet[Formula]:
    """Members of gamma present at every successor (all of gamma if none)."""
    succs = theta.frame.successors(state)
    return frozenset(
        g for g in gamma if all(g in theta.stripped(t) for t in succs)
    )


def dia_set(gamma: Iterable[Formula], state: str, theta: Annotation) -> FrozenSet[str]:
    """Successors whose annotation contains every member of gamma."""
    members = frozenset(gamma)
    return frozenset(
        t for t in theta.frame.successors(state)
        if members <= theta.stripped(t)
    )


def check_relevant(
    phi: Annotation,
    theta: Annotation,
    system: EquationSystem,
    frame: Optional[Frame] = None,
) -> List[Violation]:
    """All clause failures of a candidate relevant part; empty means valid."""
    if frame is not None and frame != theta.frame:
        raise ValueError("annotation belongs to a different frame")
    frame = theta.frame
    if phi.frame != frame:
        raise ValueError("the two annotations live on different frames")
    out: List[Violation] = []
    for s in frame.states:
        marked = phi.at(s)
        full = theta.at(s)
        succs = sorted(frame.successors(s))
        for f, a in sorted(marked, key=_entry_key):
            if (f, a) not in full:
                out.append(Violation(
                    s, "D3.5-1", f, a, "marked entry is not in the full annotation"
                ))
            if isinstance(f, Var):
                if not a.is_successor:
                    out.append(Violation(
                        s, "D3.5-2", f, a,
                        "variable stage has no immediate predecessor",
                    ))
                elif (system.eq(f.name), a.pred()) not in marked:
                    out.append(Violation(
                        s, "D3.5-2", f, a,
                        "right-hand side not marked one stage below",
                    ))
            elif isinstance(f, BigOr) and a > ZERO:
                for d in sorted(f.args, key=sort_key):
                    if (d, a) in full and (d, a) not in marked:
                        out.append(Violation(
                            s, "D3.5-3", f, a,
                            f"disjunct {format_formula(d)} shares the stage but is unmarked",
                        ))
            elif isinstance(f, BigAnd):
                chosen = [d for d in f.args if (d, a) in marked]
                if len(chosen) != 1:
                    out.append(Violation(
                        s, "D3.5-4", f, a,
                        f"{len(chosen)} conjuncts marked at the stage, need exactly one",
                    ))
            elif isinstance(f, Nabla) and a > ZERO:
                gamma = f.args
                floor = a.pred()
                for g in sorted(box_set(gamma, s, theta), key=sort_key):
                    if not any(h == g and b >= a for r in succs for h, b in phi.at(r)):
                        out.append(Violation(
                            s, "D3.5-5a", f, a,
                            f"member {format_formula(g)} held by every successor is not"
                            " marked arbitrarily high below the stage",
                        ))
                for r in sorted(dia_set(gamma, s, theta)):
                    if not gamma & phi.stripped(r):
                        out.append(Violation(
                            s, "D3.5-5b", f, a,
                            f"successor {r} matches the member set but marks none of it",
                        ))
                for r in succs:
                    if not phi.at(r):
                        continue
                    if not any(
                        h in gamma and b > floor for h, b in phi.at(r)
                    ):
                        out.append(Violation(
                            s, "D3.5-5c", f, a,
                            f"successor {r} marks entries but no member above the"
                            f" stage's predecessor {floor}",
                        ))
    return out


def extract_relevant(
    theta: Annotation,
    system: EquationSystem,
    target: str,
    alpha: Optional[Union[int, Ordinal]] = None,
) -> Tuple[TreeFrame, Annotation, Annotation]:
    """Carve a relevant part for the target variable out of a conservative
    annotation over a tree.

    Successors are duplicated (copies named ``orig~1``, ``orig~2``, ...)
    when a single copy cannot carry two distinct reasons, so the result
    marks at most one cover formula per state.  Returns the rebuilt
    tree together with the transported full annotation and the marked
    part, both over the new tree.
    """
    tree = theta.frame
    if not isinstance(tree, TreeFrame):
        raise ExtractionFailure("relevant parts are extracted over tree frames")
    if target not in system.vars:
        raise UnboundVariable(f"unknown variable {target!r}")
    root_stages = sorted(b for g, b in theta.at(tree.root) if g == Var(target))
    if not root_stages:
        raise ExtractionFailure(
            f"the root does not satisfy {target!r} under this annotation"
        )
    if alpha is None:
        root_alpha = root_stages[0]
    else:
        root_alpha = Ordinal.natural(alpha) if isinstance(alpha, int) else alpha
        if root_alpha not in root_stages:
            raise ExtractionFailure(
                f"the root is not annotated {target}@{root_alpha}"
            )

    new_states: List[str] = []
    new_edges: List[Tuple[str, str]] = []
    new_labels: Dict[str, List[str]] = {}
    theta_out: Dict[str, AnnSet] = {}
    phi_out: Dict[str, FrozenSet[AnnEntry]] = {}
    copies: Dict[str, int] = {}

    def fresh_id(orig: str) -> str:
        n = copies.get(orig, 0)
        copies[orig] = n + 1
        return orig if n == 0 else f"{orig}~{n}"

    def stage_of(state: str, f: Formula) -> List[Ordinal]:
        return sorted(b for g, b in theta.at(state) if g == f)

    def route(routed: Dict[str, List[AnnEntry]], child: str, entry: AnnEntry) -> None:
        bucket = routed.setdefault(child, [])
        if entry not in bucket:
            bucket.append(entry)

    # Depth-first over (state, demands, parent copy), children pushed in
    # reverse so that copies are made and named in pre-order.
    todo: List[Tuple[str, Tuple[AnnEntry, ...], Optional[str]]] = [
        (tree.root, ((Var(target), root_alpha),), None)
    ]
    while todo:
        orig, demands, parent = todo.pop()
        sid = fresh_id(orig)
        new_states.append(sid)
        if parent is not None:
            new_edges.append((parent, sid))
        for p in tree.labels_of(orig):
            new_labels.setdefault(p, []).append(sid)
        theta_out[sid] = theta.at(orig)

        marked: Set[AnnEntry] = set()
        work = list(demands)
        while work:
            f, a = work.pop()
            if (f, a) in marked:
                continue
            if (f, a) not in theta.at(orig):
                raise ExtractionFailure(
                    f"needed {format_formula(f)} @ {a} at {orig}, but the"
                    " annotation lacks it (is it conservative?)"
                )
            marked.add((f, a))
            if isinstance(f, Var):
                if not a.is_successor:
                    raise ExtractionFailure(
                        f"variable {f.name} annotated {a} at {orig} has no"
                        " immediate predecessor stage"
                    )
                work.append((system.eq(f.name), a.pred()))
            elif isinstance(f, BigOr):
                for d in sorted(f.args, key=sort_key):
                    if (d, a) in theta.at(orig):
                        work.append((d, a))
            elif isinstance(f, BigAnd):
                sharing = [
                    d for d in sorted(f.args, key=sort_key)
                    if (d, a) in theta.at(orig)
                ]
                if not sharing:
                    raise ExtractionFailure(
                        f"no conjunct of {format_formula(f)} shares stage {a}"
                        f" at {orig}"
                    )
                work.append((sharing[0], a))
            elif isinstance(f, (Box, Dia)):
                raise ExtractionFailure(
                    f"sugared modality {format_formula(f)} reached the relevant"
                    " part; relevant parts are extracted from nabla-form systems"
                )

        kids = tree.children(orig)
        routed: Dict[str, List[AnnEntry]] = {}
        covers = sorted(
            ((f, a) for f, a in marked if isinstance(f, Nabla) and a > ZERO),
            key=_entry_key,
        )
        for f, a in covers:
            gamma = f.args
            for g in sorted(box_set(gamma, orig, theta), key=sort_key):
                best: Optional[Tuple[Ordinal, str]] = None
                for t in kids:
                    for b in stage_of(t, g):
                        if b >= a and (best is None or b > best[0]
                                       or (b == best[0] and t < best[1])):
                            best = (b, t)
                if best is None:
                    raise ExtractionFailure(
                        f"no child of {orig} carries {format_formula(g)} at"
                        f" stage {a} or above"
                    )
                route(routed, best[1], (g, best[0]))
            for t in sorted(dia_set(gamma, orig, theta)):
                best_m: Optional[Tuple[Ordinal, Formula]] = None
                for g in sorted(gamma, key=sort_key):
                    for b in stage_of(t, g):
                        if b >= a and (best_m is None or b > best_m[0]):
                            best_m = (b, g)
                if best_m is None:
                    raise ExtractionFailure(
                        f"child {t} of {orig} matches the member set of"
                        f" {format_formula(f)} but carries no member at"
                        f" stage {a} or above"
                    )
                route(routed, t, (best_m[1], best_m[0]))

        children = []
        for t in kids:
            entries = routed.get(t)
            if not entries:
                children.append((t, (), sid))
            else:
                children.extend((t, (entry,), sid) for entry in entries)
        todo.extend(reversed(children))
        phi_out[sid] = frozenset(marked)

    new_tree = TreeFrame(new_states, new_edges, new_labels, root=new_states[0])
    theta2 = Annotation(new_tree, theta_out)
    phi2 = Annotation(new_tree, phi_out)

    problems = check_relevant(phi2, theta2, system)
    for s in new_tree.states:
        nablas = {f for f in phi2.stripped(s) if isinstance(f, Nabla)}
        if len(nablas) > 1:
            problems.append(Violation(
                s, "one-cover", None, None,
                "more than one cover formula marked at a single state",
            ))
    if problems:
        raise ExtractionFailure(
            "extraction produced an invalid relevant part: "
            + "; ".join(str(v) for v in problems[:3])
        )
    return new_tree, theta2, phi2


# ---------------------------------------------------------------------------
# textual format

#   s0: x @ 2; or{nab{x}, p} @ 1;
#   s1: p @ 0;


def parse_annotation(
    text: str,
    frame: Frame,
    variables: Sequence[str] = (),
) -> Annotation:
    """Parse the textual format above over ``frame``; identifiers in
    ``variables`` are variables.  Raises AnnotationParseError on
    malformed text."""
    entries: Dict[str, List[AnnEntry]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        state, sep, rest = line.partition(":")
        if not sep:
            raise AnnotationParseError(f"line {lineno}: expected 'state: entries'")
        state = state.strip()
        bucket = entries.setdefault(state, [])
        for chunk in rest.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            ftext, at, otext = chunk.rpartition("@")
            if not at:
                raise AnnotationParseError(
                    f"line {lineno}: entry {chunk!r} lacks '@ ordinal'"
                )
            try:
                f = parse_formula(ftext.strip(), vars=variables, keep_sugar=True)
                a = Ordinal.parse(otext.strip())
            except (ParseError, NegatedVariable, OrdinalParseError) as exc:
                raise AnnotationParseError(f"line {lineno}: {exc}") from exc
            bucket.append((f, a))
    try:
        return Annotation(frame, entries)
    except UnknownState as exc:
        raise AnnotationParseError(f"unknown state {exc.args[0]!r}") from exc


def format_annotation(ann: Annotation) -> str:
    lines = []
    for s in ann.frame.states:
        entries = sorted(ann.at(s), key=_entry_key)
        if not entries:
            continue
        parts = "; ".join(f"{format_formula(f)} @ {a}" for f, a in entries)
        lines.append(f"{s}: {parts};")
    return "\n".join(lines) + ("\n" if lines else "")


def annotation_to_json(ann: Annotation) -> dict:
    return {
        s: [
            {"formula": format_formula(f), "ordinal": str(a)}
            for f, a in sorted(ann.at(s), key=_entry_key)
        ]
        for s in ann.frame.states
        if ann.at(s)
    }


def annotation_from_json(
    data: Mapping,
    frame: Frame,
    variables: Sequence[str] = (),
) -> Annotation:
    entries: Dict[str, List[AnnEntry]] = {}
    try:
        for s, pairs in data.items():
            entries[s] = [
                (parse_formula(e["formula"], vars=variables, keep_sugar=True),
                 Ordinal.parse(e["ordinal"]))
                for e in pairs
            ]
    except (AttributeError, KeyError, TypeError, ParseError, NegatedVariable,
            OrdinalParseError) as exc:
        raise AnnotationParseError(f"malformed annotation object: {exc}") from exc
    try:
        return Annotation(frame, entries)
    except UnknownState as exc:
        raise AnnotationParseError(f"unknown state {exc.args[0]!r}") from exc
