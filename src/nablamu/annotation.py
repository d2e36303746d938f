"""Ordinal-annotated formula sets over frame states.

An annotation attaches to each state a finite set of pairs (closure
formula, ordinal).  It is held as one table, formula -> ((stage,
mask), ...): the stages in increasing order, each once, with the
nonempty mask of the states (bit i for ``frame.states[i]``) that carry
the formula at that stage.  That is the shape of the first-stage table
of a stage run (``semantics.first_stages``).  The per-state view that
``at``, ``items``, ``stripped`` and the text and JSON forms read is
derived from the table once and kept on the annotation.

The validity checker enforces the local clauses that make an
annotation a witness for membership in the approximation stages:
closed formulas must hold outright, a variable entry at stage a needs
its right-hand side strictly below a, a disjunction needs one disjunct
at or below its stage, a conjunction needs all conjuncts at or below
its stage, and a cover needs each successor to match the member set or
some single member to cover all successors.  Each clause asks only
whether a formula is annotated at or (strictly) below a stage.  With
L_g(a) the states that carry g at some stage at or below a (a prefix
union of g's masks), each clause is one mask test on the mask M of an
entry (f, a): ``or`` needs M within the union of the disjuncts' L(a),
``and`` within their intersection, a variable within L_body(< a),
``nab``/``box`` within ``FrameIndex.nab``/``box`` of the members'
L(a) at M, and ``dia`` none of M's states with all successors outside
L_arg(a).  Violations are built from the failing states only.

The conservative annotation assigns every satisfied closure formula its
least approximation stage at every state.  It wraps the first-stage
table of the system's cached stage run on the frame, in which every
closure formula has a slot, so ``conservative`` and
``verify_conservative`` share one run of the stages and one read-out of
it, ``_least_table``; ``verify_conservative`` compares tables formula by
formula and expands only the formulas that differ.  The checker reads a
closed formula's truth from the same run, as its stage-0 mask; this
module evaluates no formula itself.
From a conservative annotation over a tree, ``extract_relevant`` carves
out a relevant part: a sub-annotation recording the reasons for the
designated variable to hold at the root, duplicating successors where
one copy cannot serve two reasons at once.  It walks the tree with an
explicit stack, so tree depth is not bounded by the recursion limit,
and reads each state's entries from the per-state view and its children
from the tree's successor map, never through ``at`` or ``stripped``.  A
part that marks two covers at one state (an ``or`` of covers sharing a
stage) is refused with ExtractionFailure.  When it copies nothing and
visits the states in frame order, the input tree and annotation come
back as they are; otherwise both are rebuilt over the new tree.
``check_relevant`` reads the same views.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple, Union)

from .ordinal import Ordinal, ZERO, OrdinalParseError
from .syntax import (BigAnd, BigOr, Box, Dia, EquationSystem, Formula, Nabla,
                     NegatedVariable, ParseError, UnboundVariable, Var, closure,
                     _Value, format_formula, is_closed, parse_formula, sort_key)
from .frame import Frame, TreeFrame, UnknownState
from .semantics import FrameIndex, first_stages, frame_index

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
# formula -> ((stage, state mask), ...), stages increasing and distinct,
# masks nonempty
AnnTable = Dict[Formula, Tuple[Tuple[Ordinal, int], ...]]


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


def _bits(m: int) -> Iterator[int]:
    """The positions of the set bits of m, lowest first.  A set-bit walk,
    not a scan of the binary text: one stage's mask is sparse on deep
    frames."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _table_of(frame: Frame, view: Mapping[str, Iterable[AnnEntry]]) -> AnnTable:
    """The table of per-state entry sets over the frame's states."""
    acc: Dict[Formula, Dict[Ordinal, int]] = {}
    for i, s in enumerate(frame.states):
        ann = view.get(s)
        if ann:
            bit = 1 << i
            for f, a in ann:
                stages = acc.get(f)
                if stages is None:
                    stages = acc[f] = {}
                stages[a] = stages.get(a, 0) | bit
    return {f: tuple(sorted(stages.items())) for f, stages in acc.items()}


class Annotation(_Value):
    """A per-state finite set of (formula, ordinal) pairs over a frame,
    held as the table formula -> ((stage, state mask), ...).  It is
    compared, hashed, pickled and copied by its frame and table."""

    __slots__ = ("frame", "_table", "_view", "_stripped")

    def __init__(self, frame: Frame, entries: Mapping[str, Iterable]) -> None:
        view: Dict[str, AnnSet] = {}
        for s, pairs in entries.items():
            frame.require(s)
            if isinstance(pairs, Mapping):
                pairs = pairs.items()
            ann = frozenset(_coerce_entry(e) for e in pairs)
            if ann:
                view[s] = ann
        self._set(frame=frame, _table=_table_of(frame, view), _view=view, _stripped={})

    @classmethod
    def _of(cls, frame: Frame, table: AnnTable,
            view: Optional[Dict[str, AnnSet]] = None) -> "Annotation":
        """The annotation of a table, and of its per-state view if known,
        both trusted as they are."""
        self = object.__new__(cls)
        self._set(frame=frame, _table=table, _view=view, _stripped={})
        return self

    def _key(self) -> tuple:
        return (self.frame, frozenset(self._table.items()))

    def _args(self) -> tuple:
        return (self.frame, self._table)

    def _states(self) -> Dict[str, AnnSet]:
        """The per-state view, derived from the table on first use: the
        states with entries, in frame order."""
        view = self._view
        if view is None:
            states = self.frame.states
            acc: List[List[AnnEntry]] = [[] for _ in states]
            for f, pairs in self._table.items():
                for a, m in pairs:
                    entry = (f, a)
                    while m:
                        low = m & -m
                        acc[low.bit_length() - 1].append(entry)
                        m ^= low
            view = {s: frozenset(ann) for s, ann in zip(states, acc) if ann}
            self._set(_view=view)
        return view

    def _formulas(self, state: str) -> FrozenSet[Formula]:
        """The formulas annotated at a state of the frame, kept once
        derived."""
        formulas = self._stripped.get(state)
        if formulas is None:
            formulas = self._stripped[state] = frozenset(
                f for f, _ in self._states().get(state, ()))
        return formulas

    def at(self, state: str) -> AnnSet:
        self.frame.require(state)
        return self._states().get(state, frozenset())

    def stripped(self, state: str) -> FrozenSet[Formula]:
        return self._formulas(self.frame.require(state))

    def items(self) -> Iterable[Tuple[str, AnnSet]]:
        view = self._states()
        for s in self.frame.states:
            yield s, view.get(s, frozenset())

    def with_entry(self, state: str, f: Formula, a: Union[int, Ordinal]) -> "Annotation":
        f, a = _coerce_entry((f, a))
        bit = 1 << self.frame.states.index(self.frame.require(state))
        stages = dict(self._table.get(f, ()))
        stages[a] = stages.get(a, 0) | bit
        table = dict(self._table)
        table[f] = tuple(sorted(stages.items()))
        return Annotation._of(self.frame, table)

    def __repr__(self) -> str:
        count = sum(bin(m).count("1") for pairs in self._table.values() for _, m in pairs)
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


def _cumulative(table: AnnTable) -> Tuple[Callable[[Formula, Ordinal], int],
                                          Callable[[Formula, Ordinal], int]]:
    """``upto(g, a)`` and ``below(g, a)``: the states that carry g at
    some stage at or below a, and strictly below a."""
    rows: Dict[Formula, Tuple[List[Ordinal], List[int]]] = {}
    for g, pairs in table.items():
        union = 0
        prefix = [0]
        for _, m in pairs:
            union |= m
            prefix.append(union)
        rows[g] = ([a for a, _ in pairs], prefix)

    def upto(g: Formula, a: Ordinal) -> int:
        row = rows.get(g)
        return row[1][bisect_right(row[0], a)] if row else 0

    def below(g: Formula, a: Ordinal) -> int:
        row = rows.get(g)
        return row[1][bisect_left(row[0], a)] if row else 0

    return upto, below


def preceq(a: AnnSet, b: AnnSet) -> bool:
    """Every entry of b is matched in a by the same formula at or below its stage."""
    least = _least(a)
    return all(f in least and least[f] <= x for f, x in b)


def preceq_annotation(a: Annotation, b: Annotation) -> bool:
    """Pointwise comparison over a shared state space."""
    if frozenset(a.frame.states) != frozenset(b.frame.states):
        raise ValueError("annotations compare pointwise over the same states")
    if b.frame.states != a.frame.states:
        b = Annotation(a.frame, dict(b.items()))
    upto, _ = _cumulative(a._table)
    return all(not m & ~upto(f, x) for f, pairs in b._table.items() for x, m in pairs)


def _closure_or_raise(theta: Annotation, system: EquationSystem) -> None:
    clos = closure(system)
    foreign = [(min(next(_bits(m)) for _, m in pairs), sort_key(f), f)
               for f, pairs in theta._table.items() if f not in clos]
    if foreign:
        i, _, f = min(foreign, key=lambda entry: entry[:2])
        raise ForeignFormula(
            f"{format_formula(f)} at {theta.frame.states[i]} is not in the closure"
            " of the system"
        )


def check_well_annotation(
    theta: Annotation,
    system: EquationSystem,
    frame: Optional[Frame] = None,
) -> List[Violation]:
    """All clause failures of the annotation; empty means valid.

    Violations come in state order, then by formula (``sort_key``) and
    stage, then in clause order."""
    if frame is not None and frame != theta.frame:
        raise ValueError("annotation belongs to a different frame")
    frame = theta.frame
    _closure_or_raise(theta, system)
    index = frame_index(frame)
    first = first_stages(system, index)
    upto, below = _cumulative(theta._table)
    full, states = index.full, frame.states
    found: List[Tuple[tuple, Violation]] = []
    keys: Dict[Formula, str] = {}

    def fail(bad: int, rank: int, f: Formula, a: Ordinal, clause: str,
             detail: Union[str, Callable[[int], str]]) -> None:
        if not bad:
            return
        key = keys.get(f)
        if key is None:
            key = keys[f] = sort_key(f)
        for i in _bits(bad):
            text = detail if isinstance(detail, str) else detail(i)
            found.append(((i, key, a, rank), Violation(states[i], clause, f, a, text)))

    for f, pairs in theta._table.items():
        closed = is_closed(f)
        if closed:
            held = first[f]
            held = held[0][1] if held and held[0][0] == 0 else 0
        for a, m in pairs:
            if closed:
                fail(m & ~held, 0, f, a, "D3.1-1", "closed formula does not hold here")
            if isinstance(f, Var):
                fail(m & ~below(system.eq(f.name), a), 1, f, a, "D3.1-2",
                     "right-hand side is not annotated strictly below the variable")
            elif isinstance(f, BigOr):
                union = 0
                for d in f.args:
                    union |= upto(d, a)
                fail(m & ~union, 1, f, a, "D3.1-3",
                     "no disjunct is annotated at or below the disjunction")
            elif isinstance(f, BigAnd):
                within = {d: upto(d, a) for d in f.args}
                inter = full
                for w in within.values():
                    inter &= w
                fail(m & ~inter, 1, f, a, "D3.1-4", lambda i: (
                    "conjuncts not annotated at or below the conjunction: "
                    + ", ".join(format_formula(d) for d in sorted(f.args, key=sort_key)
                                if not within[d] >> i & 1)))
            elif isinstance(f, Nabla):
                bad = m & ~index.nab([upto(g, a) for g in f.args], at=m)
                fail(bad, 1, f, a, "D3.1-5a",
                     "no successor carries the whole member set at or below the stage")
                fail(bad, 2, f, a, "D3.1-5b",
                     "no single member is carried by every successor at or below"
                     " the stage")
            elif isinstance(f, Box):
                arg = upto(f.arg, a)
                fail(m & ~index.box(arg, at=m), 1, f, a, "D3.1-box", lambda i: (
                    "successors missing the argument at or below the stage: "
                    + ", ".join(r for r in sorted(frame.successors(states[i]))
                                if not arg >> index.position[r] & 1)))
            elif isinstance(f, Dia):
                fail(m & index.box(full & ~upto(f.arg, a), at=m), 1, f, a, "D3.1-dia",
                     "no successor carries the argument at or below the stage")
    found.sort(key=lambda kv: kv[0])
    return [v for _, v in found]


def _least_table(system: EquationSystem, index: FrameIndex) -> AnnTable:
    """The conservative table: each satisfied closure formula with the
    states that first satisfy it at each stage, read off the first-stage
    table of the system's stage run on the index, where every closure
    formula has a slot."""
    first = first_stages(system, index)
    top = max((pairs[-1][0] for pairs in first.values() if pairs), default=0)
    stage = [Ordinal.natural(a) for a in range(top + 1)]
    return {f: tuple((stage[a], m) for a, m in first[f]) for f in closure(system) if first[f]}


def conservative(system: EquationSystem, frame: Frame) -> Annotation:
    """Annotate every satisfied closure formula with its least stage."""
    return Annotation._of(frame, _least_table(system, frame_index(frame)))


def verify_conservative(
    theta: Annotation,
    system: EquationSystem,
    frame: Optional[Frame] = None,
) -> List[Violation]:
    """Mismatches against the least-stage annotation; empty means exact.

    At each state, in state order: the annotated formulas by
    ``sort_key``, each with its repetition and then its stages in
    order, then the missing formulas by ``sort_key``."""
    if frame is not None and frame != theta.frame:
        raise ValueError("annotation belongs to a different frame")
    frame = theta.frame
    _closure_or_raise(theta, system)
    reference = _least_table(system, frame_index(frame))
    table, states = theta._table, frame.states
    found: List[Tuple[tuple, Violation]] = []
    for f in table.keys() | reference.keys():
        mine, ref = table.get(f, ()), reference.get(f, ())
        if mine == ref:
            continue
        key = sort_key(f)
        least = {i: b for b, m in ref for i in _bits(m)}
        held: Dict[int, List[Ordinal]] = {}
        for a, m in mine:
            for i in _bits(m):
                held.setdefault(i, []).append(a)
        for i, stages in held.items():
            s = states[i]
            if len(stages) > 1:
                found.append(((i, 0, key, 0), Violation(
                    s, "D3.2-1", f, stages[0],
                    "formula annotated more than once: "
                    + ", ".join(str(a) for a in stages),
                )))
            b = least.get(i)
            for a in stages:
                if b is None:
                    found.append(((i, 0, key, 1, a), Violation(
                        s, "D3.2-2", f, a, "formula does not hold at this state"
                    )))
                elif a != b:
                    found.append(((i, 0, key, 1, a), Violation(
                        s, "D3.2-2", f, a, f"least stage here is {b}"
                    )))
        for i, b in least.items():
            if i not in held:
                found.append(((i, 1, key), Violation(
                    states[i], "D3.2-2", f, b,
                    "satisfied closure formula missing from the annotation",
                )))
    found.sort(key=lambda kv: kv[0])
    return [v for _, v in found]


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
    """All clause failures of a candidate relevant part; empty means valid.

    Violations come in state order, then by formula (``sort_key``) and
    stage, then in clause order; within a clause, by member (``sort_key``)
    or successor name.  Each marked entry reads the per-state views of
    both annotations and the frame's successor map; one scan of each
    successor's marked set gives D3.5-5a's top stage per member,
    D3.5-5b's "marks a member" and D3.5-5c's "marks a member above the
    floor"."""
    if frame is not None and frame != theta.frame:
        raise ValueError("annotation belongs to a different frame")
    frame = theta.frame
    if phi.frame != frame:
        raise ValueError("the two annotations live on different frames")
    states, succ = frame.states, frame._succ
    marks, full_view = phi._states(), theta._states()
    empty: AnnSet = frozenset()
    found: List[Tuple[tuple, Violation]] = []
    keys: Dict[Formula, str] = {}

    def fail(i: int, f: Formula, a: Ordinal, rank: int, sub: str, clause: str,
             detail: str) -> None:
        key = keys.get(f)
        if key is None:
            key = keys[f] = sort_key(f)
        found.append(((i, key, a, rank, sub), Violation(states[i], clause, f, a, detail)))

    for i, s in enumerate(states):
        marked = marks.get(s)
        if not marked:
            continue
        full = full_view.get(s, empty)
        for f, a in marked:
            if (f, a) not in full:
                fail(i, f, a, 0, "", "D3.5-1", "marked entry is not in the full annotation")
            if isinstance(f, Var):
                if not a.is_successor:
                    fail(i, f, a, 1, "", "D3.5-2",
                         "variable stage has no immediate predecessor")
                elif (system.eq(f.name), a.pred()) not in marked:
                    fail(i, f, a, 1, "", "D3.5-2",
                         "right-hand side not marked one stage below")
            elif isinstance(f, BigOr) and a > ZERO:
                for d in f.args:
                    if (d, a) in full and (d, a) not in marked:
                        fail(i, f, a, 1, sort_key(d), "D3.5-3",
                             f"disjunct {format_formula(d)} shares the stage but is unmarked")
            elif isinstance(f, BigAnd):
                chosen = sum((d, a) in marked for d in f.args)
                if chosen != 1:
                    fail(i, f, a, 1, "", "D3.5-4",
                         f"{chosen} conjuncts marked at the stage, need exactly one")
            elif isinstance(f, Nabla) and a > ZERO:
                gamma = f.args
                floor = a.pred()
                boxed = gamma
                top: Dict[Formula, Ordinal] = {}
                for r in succ[s]:
                    theirs = marks.get(r, empty)
                    hit = above = False
                    for h, b in theirs:
                        if h in gamma:
                            hit = True
                            above = above or b > floor
                            if h not in top or b > top[h]:
                                top[h] = b
                    held = theta._formulas(r)
                    if gamma <= held:
                        if not hit:
                            fail(i, f, a, 2, r, "D3.5-5b",
                                 f"successor {r} matches the member set but marks none of it")
                    else:
                        boxed = boxed & held
                    if theirs and not above:
                        fail(i, f, a, 3, r, "D3.5-5c",
                             f"successor {r} marks entries but no member above the"
                             f" stage's predecessor {floor}")
                for g in boxed:
                    if g not in top or top[g] < a:
                        fail(i, f, a, 1, sort_key(g), "D3.5-5a",
                             f"member {format_formula(g)} held by every successor is not"
                             " marked arbitrarily high below the stage")
    found.sort(key=lambda kv: kv[0])
    return [v for _, v in found]


def extract_relevant(
    theta: Annotation,
    system: EquationSystem,
    target: str,
    alpha: Optional[Union[int, Ordinal]] = None,
) -> Tuple[TreeFrame, Annotation, Annotation]:
    """Carve a relevant part for the target variable out of a conservative
    annotation over a tree.

    Successors are duplicated (copies named ``orig~1``, ``orig~2``, ...,
    skipping the names the tree already holds) when a single copy cannot
    carry two distinct reasons.  The walk reads
    each visited state's entry set once from the annotation's per-state
    view and its children from the tree's successor map; it marks the
    demands there, collecting the covers, and routes each cover's
    members to the child carrying them at the top stage, found by one
    scan of each child's entry set.  The result is checked with
    ``check_relevant`` and must mark at most one cover formula per
    state: an ``or`` of covers sharing a stage (``x = or{nab{x},
    nab{y}}``) marks both and ends in ExtractionFailure.  Returns the
    rebuilt tree together with the transported full annotation and the
    marked part, both over the new tree.  When the walk made no copy and
    visited the states in frame order, the rebuilt tree and annotation
    would equal the input ones, so the input ``theta.frame`` and
    ``theta`` themselves are returned.
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
    origins: List[str] = []
    theta_out: Dict[str, AnnSet] = {}
    phi_out: Dict[str, FrozenSet[AnnEntry]] = {}
    copies: Dict[str, int] = {}
    view, succ = theta._states(), tree._succ
    empty: AnnSet = frozenset()
    members: Dict[Formula, Tuple[Formula, ...]] = {}

    def fresh_id(orig: str) -> str:
        """``orig`` for its first copy, then ``orig~1``, ``orig~2``, ...,
        skipping every name the tree already holds."""
        n = copies.get(orig, 0)
        name = orig
        while n and (name := f"{orig}~{n}") in tree._state_set:
            n += 1
        copies[orig] = n + 1
        return name

    def ordered(f: Formula) -> Tuple[Formula, ...]:
        """The members of an and/or/nab in ``sort_key`` order, sorted
        once per call."""
        args = members.get(f)
        if args is None:
            args = members[f] = tuple(sorted(f.args, key=sort_key))
        return args

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
        origins.append(orig)
        here = theta_out[sid] = view.get(orig, empty)

        marked: Set[AnnEntry] = set()
        covers: List[AnnEntry] = []
        work = list(demands)
        while work:
            entry = work.pop()
            if entry in marked:
                continue
            f, a = entry
            if entry not in here:
                raise ExtractionFailure(
                    f"needed {format_formula(f)} @ {a} at {orig}, but the"
                    " annotation lacks it (is it conservative?)"
                )
            marked.add(entry)
            if isinstance(f, Var):
                if not a.is_successor:
                    raise ExtractionFailure(
                        f"variable {f.name} annotated {a} at {orig} has no"
                        " immediate predecessor stage"
                    )
                work.append((system.eq(f.name), a.pred()))
            elif isinstance(f, BigOr):
                work.extend((d, a) for d in ordered(f) if (d, a) in here)
            elif isinstance(f, BigAnd):
                sharing = next((d for d in ordered(f) if (d, a) in here), None)
                if sharing is None:
                    raise ExtractionFailure(
                        f"no conjunct of {format_formula(f)} shares stage {a}"
                        f" at {orig}"
                    )
                work.append((sharing, a))
            elif isinstance(f, Nabla):
                if a > ZERO:
                    covers.append(entry)
            elif isinstance(f, (Box, Dia)):
                raise ExtractionFailure(
                    f"sugared modality {format_formula(f)} reached the relevant"
                    " part; relevant parts are extracted from nabla-form systems"
                )

        kids = sorted(succ[orig])
        routed: Dict[str, List[AnnEntry]] = {}
        if len(covers) > 1:
            covers.sort(key=_entry_key)
        for f, a in covers:
            gamma = f.args
            # per child, each member's top stage there
            tops: List[Dict[Formula, Ordinal]] = []
            for t in kids:
                top: Dict[Formula, Ordinal] = {}
                for h, b in view.get(t, empty):
                    if h in gamma and (h not in top or b > top[h]):
                        top[h] = b
                tops.append(top)
            for g in ordered(f):
                if not all(g in top for top in tops):
                    continue
                # the top stage at or above a, the least child name on a tie
                best: Optional[Tuple[Ordinal, str]] = None
                for t, top in zip(kids, tops):
                    b = top[g]
                    if b >= a and (best is None or b > best[0]):
                        best = (b, t)
                if best is None:
                    raise ExtractionFailure(
                        f"no child of {orig} carries {format_formula(g)} at"
                        f" stage {a} or above"
                    )
                route(routed, best[1], (g, best[0]))
            for t, top in zip(kids, tops):
                if len(top) < len(gamma):
                    continue
                # the top stage at or above a, the least member on a tie
                best_m: Optional[Tuple[Ordinal, Formula]] = None
                for g in ordered(f):
                    b = top[g]
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

    if tuple(new_states) == tree.states:
        # no copy, frame order: the rebuilt tree and theta2 would equal these
        new_tree, theta2 = tree, theta
    else:
        new_labels = {p: [sid for sid, orig in zip(new_states, origins) if orig in ms]
                      for p, ms in tree.labels.items()}
        new_tree = TreeFrame(new_states, new_edges, new_labels, root=new_states[0])
        theta2 = Annotation._of(new_tree, _table_of(new_tree, theta_out), theta_out)
    phi2 = Annotation._of(new_tree, _table_of(new_tree, phi_out), phi_out)

    problems = check_relevant(phi2, theta2, system)
    problems += [
        Violation(s, "one-cover", None, None,
                  "more than one cover formula marked at a single state")
        for s in new_states
        if len({f for f, _ in phi_out[s] if isinstance(f, Nabla)}) > 1
    ]
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


def _rows(ann: Annotation) -> Iterator[Tuple[str, List[Tuple[str, Ordinal]]]]:
    """Each state that has entries, in frame order, with its entries as
    (formula text, stage) in ``_entry_key`` order; each formula is
    printed once."""
    text = {f: format_formula(f) for f in ann._table}
    for s, entries in ann.items():
        if entries:
            yield s, sorted((text[f], a) for f, a in entries)


def format_annotation(ann: Annotation) -> str:
    lines = []
    for s, rows in _rows(ann):
        parts = "; ".join(f"{t} @ {a}" for t, a in rows)
        lines.append(f"{s}: {parts};")
    return "\n".join(lines) + ("\n" if lines else "")


def annotation_to_json(ann: Annotation) -> dict:
    return {
        s: [{"formula": t, "ordinal": str(a)} for t, a in rows]
        for s, rows in _rows(ann)
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
