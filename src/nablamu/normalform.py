"""Compilation pipeline for least-fixpoint formulas.

``to_equational`` turns a closed formula whose only open fixpoints are
least fixpoints over quantifier-free contexts into an equation system
with a distinguished initial variable; ``to_conjunctive`` rewrites an
equation system into conjunctive shape (every clause a disjunction of
closed formulas plus exactly one cover modality over variables),
verifying each translation against a semantic-equivalence oracle on an
exhaustive small-frame sweep plus a randomized sweep.  A mismatch
aborts the translation rather than shipping a wrong normal form.  Both
rewrites walk set members in ``sort_key`` order, so the fresh names
depend on the input alone.

The conjunctive rewrite makes two passes over one variable list that
grows as names are minted: the first hoists every body's non-variable
cover arguments into variables and then resolves unguarded occurrences
once, the second splits each resolved body into clauses and fixes each
to one cover modality.  A clause is fixed once per rewrite; a repeated
one reuses the first result and its merge variables.

The oracle runs its frames as ``semantics.FrameBatch`` lanes, one batch
per state count, built from lane words with no ``Frame``: the
exhaustive ones from the draws of ``enumerate_frames``, turned into
words and labelled once per (max states, propositions) and kept for
the last few such pairs; the random ones on every call, drawn word by
word from one seeded generator per state count under the rule stated
in ``to_conjunctive``.  Each batch is one stage run per system; input
and output agree when the two stable masks are equal, and only the
differing lanes are unpacked for the report.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from operator import and_, or_
from random import Random
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from .syntax import (
    BigAnd,
    BigOr,
    EquationSystem,
    EquationalFormula,
    Formula,
    Mu,
    Nabla,
    NegProp,
    Nu,
    Prop,
    UnguardedVariable,
    Var,
    _children,
    _first_nonconjunctive,
    _postorder,
    _rebuild,
    desugar,
    format_formula,
    format_system,
    free_vars,
    is_closed,
    is_conjunctive,
    sort_key,
    substitute,
)
from .frame import _exhaustive_draws
from .semantics import FrameBatch, lane_closure_ordinals

__all__ = [
    "NotSigmaFragment",
    "TranslationFailure",
    "TranslationReport",
    "to_equational",
    "to_conjunctive",
]


class NotSigmaFragment(ValueError):
    """The formula lies outside the least-fixpoint fragment."""


class TranslationFailure(ValueError):
    """A rewrite produced a non-conjunctive or non-equivalent system."""

    def __init__(self, message: str, *, subterm: Optional[Formula] = None,
                 mismatches: Tuple = ()):
        super().__init__(message)
        self.subterm = subterm
        self.mismatches = tuple(mismatches)


class TranslationReport(NamedTuple):
    """Provenance and oracle verdict for one conjunctive translation."""

    input: EquationalFormula
    output: EquationalFormula
    fresh: Tuple[Tuple[str, str], ...]
    frames_checked: int
    mismatches: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...]
    closure_ordinals: Tuple[Tuple[str, int, int], ...]

    def to_json(self) -> dict:
        return {
            "input": format_system(self.input),
            "output": format_system(self.output),
            "fresh": {name: role for name, role in self.fresh},
            "frames_checked": self.frames_checked,
            "mismatches": [list(m) for m in self.mismatches],
            "closure_ordinals": [list(c) for c in self.closure_ordinals],
        }


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _idents(roots: Iterable[Formula]) -> Set[str]:
    """Every proposition, variable and binder name in the formulas."""
    out: Set[str] = set()
    for f in _postorder(roots):
        match f:
            case Prop(name) | NegProp(name) | Var(name) | Mu(name) | Nu(name):
                out.add(name)
    return out


def _prop_names(roots: Iterable[Formula]) -> Set[str]:
    """Every proposition name, negated or not, in the formulas."""
    return {f.name for f in _postorder(roots) if isinstance(f, (Prop, NegProp))}


def _fresh_names(used: Set[str]) -> Iterator[str]:
    i = 0
    while True:
        name = f"_y{i}"
        i += 1
        if name not in used:
            used.add(name)
            yield name


def _bottom_body(zbot: str) -> Formula:
    return BigAnd(frozenset({Nabla(frozenset({Var(zbot)})), Nabla(frozenset())}))


def _payload_gadget(psi: Formula, zbot: str) -> Formula:
    """(psi or deadlock) and (psi or has-successor): equivalent to psi."""
    dead = Nabla(frozenset({Var(zbot)}))
    alive = Nabla(frozenset())
    return BigAnd(frozenset({
        BigOr(frozenset({psi, dead})),
        BigOr(frozenset({psi, alive})),
    }))


def _members(f: Formula, kinds: tuple = (BigAnd, BigOr)) -> List[Formula]:
    """The members of an and/or (or of a node of ``kinds``), listed so
    that ``_postorder``, which takes the last kid first, visits them in
    ``sort_key`` order; none for other nodes."""
    return sorted(_children(f), key=sort_key, reverse=True) if isinstance(f, kinds) else []


def _resolve_unguarded(bodies: Dict[str, Formula]) -> Dict[str, Formula]:
    """Substitute defining bodies for variable occurrences that sit at
    the top boolean layer of an equation, so that every remaining
    occurrence is guarded.  The variables are resolved after those they
    read there; reading one not yet resolved closes a substitution
    cycle, which means the original binding was itself unguarded."""
    layer = {v: _postorder((body,), _members) for v, body in bodies.items()}
    resolved: Dict[str, Formula] = {}
    for v in _postorder(bodies, lambda v: [
            g.name for g in layer[v] if isinstance(g, Var) and g.name in bodies]):
        new: Dict[Formula, Formula] = {}
        for g in layer[v]:
            if isinstance(g, Var) and g.name in bodies:
                if g.name not in resolved:
                    raise UnguardedVariable(
                        f"variable {g.name!r} occurs unguarded in its own unfolding")
                new[g] = resolved[g.name]
            else:
                new[g] = _rebuild(g, new) if isinstance(g, (BigAnd, BigOr)) else g
        resolved[v] = new[bodies[v]]
    return resolved


# ---------------------------------------------------------------------------
# formula -> equation system
# ---------------------------------------------------------------------------


def to_equational(phi: Formula) -> EquationalFormula:
    """Replace the external least-fixpoint operators of a closed formula
    by equations, one per distinct open binder.  A formula with no
    external fixpoint at all becomes a fresh guarded variable via the
    two-conjunct gadget."""
    fv = free_vars(phi)
    if fv:
        raise NotSigmaFragment(f"formula has free variables {sorted(fv)}")
    used = _idents((phi,))
    props = _prop_names((phi,))

    taken: Set[str] = set()
    equations: List[Optional[Tuple[str, Formula]]] = []

    def eqname_for(binder: str) -> str:
        if binder not in taken and binder not in props:
            taken.add(binder)
            return binder
        n = 2
        while f"{binder}{n}" in taken or f"{binder}{n}" in used:
            n += 1
        name = f"{binder}{n}"
        taken.add(name)
        used.add(name)
        return name

    new: Dict[Formula, Formula] = {}

    def walk(f: Formula) -> Formula:
        """``f`` with its open ``mu`` binders (and a root one) replaced
        by their equation variables; neither closed subformulas nor
        binders are entered, and each binder's equation is made once."""
        for g in _postorder((f,), lambda g: () if g in new or not g.fv or isinstance(g, (Mu, Nu))
                            else _members(g, Formula)):
            if g in new:
                continue
            if isinstance(g, Mu) and (g.fv or g is phi):
                name = eqname_for(g.var)
                new[g] = Var(name)
                slot = len(equations)
                equations.append(None)
                equations[slot] = (name, walk(substitute(g.body, g.var, Var(name))))
            elif isinstance(g, Nu) and g.fv:
                raise NotSigmaFragment(f"open greatest fixpoint {format_formula(g)}")
            else:
                new[g] = _rebuild(g, new) if g.fv else g
        return new[f]

    walked = walk(phi)
    if equations:
        init = equations[0][0]
        pairs = equations
    else:
        names = _fresh_names(used)
        init = next(names)
        zbot = next(names)
        pairs = [(init, _payload_gadget(walked, zbot)), (zbot, _bottom_body(zbot))]
    bodies = dict(pairs)
    resolved = _resolve_unguarded(bodies)
    system = EquationSystem([(name, resolved[name]) for name, _ in pairs])
    return EquationalFormula(system, init)


# ---------------------------------------------------------------------------
# equation system -> conjunctive shape
# ---------------------------------------------------------------------------


_RELATION_CAP = 4096


class _Conjunctivizer:
    def __init__(self, eqf: EquationalFormula):
        self.eqf = eqf
        used = _idents(body for _, body in eqf.system.equations) | set(eqf.system.vars)
        self.names = _fresh_names(used)
        self.roles: Dict[str, str] = {}
        self.order: List[str] = list(eqf.system.vars)
        self.raw: Dict[str, Formula] = {
            v: desugar(eqf.system.eq(v)) for v in eqf.system.vars
        }
        self.resolved: Dict[str, Formula] = {}
        self.hoistmap: Dict[Formula, str] = {}
        self.merged: Dict[FrozenSet[str], str] = {}
        self.base_of: Dict[str, FrozenSet[str]] = {}
        self.fixed: Dict[FrozenSet[Formula], Set[FrozenSet[Formula]]] = {}
        self.zbot: Optional[str] = None

    # -- fresh equations ----------------------------------------------------

    def _new_var(self, body: Callable[[str], Formula], role: str) -> str:
        """Mint the next fresh name, with raw body ``body(name)``."""
        name = next(self.names)
        self.raw[name] = body(name)
        self.roles[name] = role
        self.order.append(name)
        return name

    def need_zbot(self) -> str:
        if self.zbot is None:
            self.zbot = self._new_var(_bottom_body, "bottom variable (deadlock anchor)")
            self.resolved[self.zbot] = self.raw[self.zbot]
        return self.zbot

    def arg_var(self, arg: Formula) -> str:
        """The variable hoisting a non-variable cover argument: a closed
        one is the payload gadget over the deadlock anchor, minted first."""
        if arg not in self.hoistmap:
            if is_closed(arg):
                zbot = self.need_zbot()
                self.hoistmap[arg] = self._new_var(
                    lambda _: _payload_gadget(arg, zbot), f"closed payload {format_formula(arg)}")
            else:
                self.hoistmap[arg] = self._new_var(
                    lambda _: arg, f"hoisted cover argument {format_formula(arg)}")
        return self.hoistmap[arg]

    def base(self, name: str) -> FrozenSet[str]:
        return self.base_of.get(name, frozenset({name}))

    def merge_var(self, bases: FrozenSet[str]) -> str:
        if len(bases) == 1:
            return next(iter(bases))
        if bases not in self.merged:
            body = BigOr(frozenset(self.resolved[m] for m in bases))
            name = self._new_var(lambda _: body, "disjunction of " + ", ".join(sorted(bases)))
            self.merged[bases] = name
            self.base_of[name] = bases
            self.resolved[name] = body
        return self.merged[bases]

    # -- phase i: hoist non-variable cover arguments ------------------------

    def hoist(self, f: Formula) -> Formula:
        new: Dict[Formula, Formula] = {}
        for g in _postorder((f,), lambda g: _members(g) if g.fv else ()):
            if not g.fv or isinstance(g, Var):
                new[g] = g
            elif isinstance(g, (BigAnd, BigOr)):
                new[g] = _rebuild(g, new)
            elif isinstance(g, Nabla):
                new[g] = Nabla([a if isinstance(a, Var) else Var(self.arg_var(a))
                                for a in sorted(g.args, key=sort_key)])
            else:
                raise TranslationFailure(
                    f"irreducible open subterm {format_formula(g)}", subterm=g)
        return new[f]

    # -- phase ii: conjunctive normal form over cover/closed atoms ----------

    def cnf(self, f: Formula) -> List[FrozenSet[Formula]]:
        """The clauses of ``f`` as a conjunction of disjunctions of its
        non-and/or subformulas, ordered by their members' ``sort_key``s."""
        new: Dict[Formula, Set[FrozenSet[Formula]]] = {}
        for g in _postorder((f,), _members):
            if isinstance(g, BigAnd):
                new[g] = set().union(*(new[a] for a in g.args))
            elif isinstance(g, BigOr):
                acc: Set[FrozenSet[Formula]] = {frozenset()}
                for a in g.args:
                    acc = {c | d for c in acc for d in new[a]}
                new[g] = acc
            else:
                new[g] = {frozenset((g,))}
        return sorted(new[f], key=lambda c: sorted(map(sort_key, c)))

    # -- phase iii: one cover modality per clause ----------------------------

    def fix_clause(self, clause: FrozenSet[Formula]) -> Set[FrozenSet[Formula]]:
        """The clauses with one cover modality each whose conjunction is
        ``clause``, computed once per run: a clause's variables stay
        defined, a failure ends the run, and a repeated clause finds its
        merge variables (and the deadlock anchor) already minted."""
        if clause not in self.fixed:
            self.fixed[clause] = self._fix_clause(clause)
        return self.fixed[clause]

    def _fix_clause(self, clause: FrozenSet[Formula]) -> Set[FrozenSet[Formula]]:
        covers: List[Nabla] = []
        rest: Set[Formula] = set()
        for atom in sorted(clause, key=sort_key):
            if isinstance(atom, Nabla) and all(
                    isinstance(a, Var) and a.name in self.raw for a in atom.args):
                covers.append(atom)
            elif is_closed(atom):
                rest.add(atom)
            else:
                raise TranslationFailure(
                    f"irreducible open disjunct {format_formula(atom)}",
                    subterm=atom)
        if not covers:
            zbot = self.need_zbot()
            dead = Nabla(frozenset({Var(zbot)}))
            alive = Nabla(frozenset())
            return {frozenset(rest | {dead}), frozenset(rest | {alive})}
        if len(covers) == 1:
            return {clause}
        first, second = covers[0], covers[1]
        others = frozenset(rest) | frozenset(covers[2:])
        if not first.args or not second.args:
            # one empty side: "all successors somewhere" vs "has some
            # successor" exhausts every state, the clause is vacuous
            return set()
        left = sorted(first.args, key=sort_key)
        right = sorted(second.args, key=sort_key)
        pairs = [(a, b) for a in left for b in right]
        if 2 ** len(pairs) > _RELATION_CAP:
            raise TranslationFailure(
                "cover distribution too large for "
                f"{format_formula(first)} | {format_formula(second)}",
                subterm=BigOr(frozenset({first, second})))
        out: Set[FrozenSet[Formula]] = set()
        for mask in range(2 ** len(pairs)):
            chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if {a for a, _ in chosen} != set(left):
                continue
            if {b for _, b in chosen} != set(right):
                continue
            members: Set[Formula] = set()
            for a, b in chosen:
                if a == b:
                    members.add(a)
                else:
                    members.add(Var(self.merge_var(self.base(a.name) | self.base(b.name))))
            out |= self.fix_clause(others | {Nabla(frozenset(members))})
        return out

    # -- driver ---------------------------------------------------------------

    def run(self) -> EquationalFormula:
        # Both loops run over ``order`` as it grows.  Hoisting mints the
        # variables of cover arguments, hoisted in turn; fixing clauses
        # mints only merge variables and the deadlock anchor, which get
        # their resolved bodies when they are minted.
        hoisted = {v: self.hoist(self.raw[v]) for v in self.order}
        self.resolved = _resolve_unguarded(hoisted)
        final: List[Tuple[str, Formula]] = []
        for v in self.order:
            clauses: Set[FrozenSet[Formula]] = set()
            for c in self.cnf(self.resolved[v]):
                clauses |= self.fix_clause(c)
            final.append((v, _assemble(clauses)))
        return EquationalFormula(EquationSystem(final), self.eqf.init)


def _assemble(clauses: Set[FrozenSet[Formula]]) -> Formula:
    ors = frozenset(
        BigOr(c) if len(c) != 1 else next(iter(c)) for c in clauses
    )
    if len(ors) == 1:
        return next(iter(ors))
    return BigAnd(ors)


# ---------------------------------------------------------------------------
# equivalence oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _exhaustive_batches(max_states: int, props: Tuple[str, ...]
                        ) -> Tuple[Tuple[str, ...], Tuple[Tuple[FrameBatch, range], ...]]:
    """The exhaustive frames up to ``max_states`` states: their labels
    ``E<n>#<k>`` in report order, and one lane batch per state count n
    with the report position k of each lane.  Turned into lane words and
    labelled once per (max states, propositions) and kept for the last
    few such pairs."""
    groups: Dict[int, list] = {}
    for n, edges, labels in _exhaustive_draws(max_states, len(props)):
        groups.setdefault(n, []).append((edges, labels))
    names: List[str] = []
    batches = []
    for n, frames in groups.items():
        where = range(len(names), len(names) + len(frames))
        names += [f"E{n}#{k}" for k in where]
        words = [0] * (n * n + n * len(props))  # the edge words, then the label words
        for f, (edges, labels) in enumerate(frames):
            for k in [*edges, *(n * n + p * n + i for p, members in enumerate(labels) for i in members)]:
                words[k] |= 1 << f
        batches.append((FrameBatch(n, len(frames), words[:n * n], words[n * n:], props), where))
    return tuple(names), tuple(batches)


@lru_cache(maxsize=4)
def _random_labels(count: int) -> Tuple[str, ...]:
    """The labels ``R#<i>`` of ``count`` random frames."""
    return tuple(f"R#{i}" for i in range(count))


def _oracle_batches(
    eqf: EquationalFormula,
    exhaustive_max: int,
    random_count: int,
) -> Tuple[List[str], List[Tuple[FrameBatch, range]]]:
    """The oracle frames' labels in report order, and their lane batches
    with the report position of each lane: the exhaustive frames, then
    ``random_count`` random frames of 1-8 states drawn as lane words, one
    batch per size, under the rule of ``to_conjunctive``."""
    props = tuple(sorted(_prop_names(body for _, body in eqf.system.equations)))
    names, exhaustive = _exhaustive_batches(exhaustive_max, props)
    first = len(names)
    labels = [*names, *_random_labels(random_count)]
    batches = list(exhaustive)
    seed = zlib.crc32(format_system(eqf).encode())
    for n in range(1, 9):
        where = range(first + n - 1, len(labels), 8)
        if where:
            draw, lanes = Random(seed + n - 1).getrandbits, len(where)
            k, b = ((5, 5), (5, 4), (1, 1), (11, 4))[(n - 1) % 4]  # edge probability k / 2 ** b
            draws = [draw(lanes) for _ in range(b * n * n)]  # b in a row per edge position
            edge_words = [0] * (n * n)
            for t in range(b):  # bit t of k: or on a 1, and on a 0
                edge_words = list(map(or_ if k >> t & 1 else and_, edge_words, draws[t::b]))
            label_words = [draw(lanes) for _ in range(len(props) * n)]
            batches.append((FrameBatch(n, lanes, edge_words, label_words, props), where))
    return labels, batches


def to_conjunctive(
    eqf: EquationalFormula,
    *,
    exhaustive_max: int = 3,
    random_count: int = 500,
) -> Tuple[EquationalFormula, TranslationReport]:
    """Rewrite an equation system into conjunctive shape and verify the
    rewrite semantically on every oracle frame.

    The oracle frames are the frames of up to ``exhaustive_max`` states
    over the system's propositions, one per renaming orbit (``E<n>#<k>``),
    then ``random_count`` random frames ``R#<i>``.  The random frames of
    n states are the lanes of one batch, whose words (bit f of a word is
    that bit of lane f) one ``Random(seed + n - 1)`` gives, with ``seed``
    the CRC-32 of the system's text and ``lanes`` the number of such
    frames; lane f is ``R#(8f + n - 1)``.  Its edges have probability
    k / 2^b = ``(5/32, 5/16, 1/2, 11/16)[(n - 1) % 4]`` (dyadic stand-ins
    for 0.15, 0.3, 0.5 and 0.7): for each edge position i * n + j in
    increasing order, its word is drawn by b ``getrandbits(lanes)``
    calls, from w = 0 over the bits of k from the least significant up,
    a 1 bit doing ``w |= r`` and a 0 bit ``w &= r``.  Then for each
    proposition in sorted order and each state i, one
    ``getrandbits(lanes)`` word gives its labels, at probability 1/2.
    A negative ``random_count`` raises ``ValueError``."""
    if random_count < 0:
        raise ValueError(f"random_count must be non-negative, got {random_count}")
    worker = _Conjunctivizer(eqf)
    out = worker.run()
    if not is_conjunctive(out.system):
        raise TranslationFailure(
            "rewriting did not reach conjunctive shape",
            subterm=_first_nonconjunctive(out.system))
    labels, batches = _oracle_batches(eqf, exhaustive_max, random_count)
    ordinals: List = [None] * len(labels)
    found = []
    for batch, where in batches:
        want, co_in = lane_closure_ordinals(eqf, batch)
        got, co_out = lane_closure_ordinals(out, batch)
        s = slice(where.start, where.stop, where.step)
        ordinals[s] = zip(labels[s], co_in, co_out)
        if want != got:
            for lane in batch.lanes_of(want ^ got):
                k = where[lane]
                found.append((k, (labels[k], batch.states(want, lane), batch.states(got, lane))))
    mismatches = [m for _, m in sorted(found)]
    checked = len(labels)
    if mismatches:
        raise TranslationFailure(
            f"translation disagrees with input on {len(mismatches)} of "
            f"{checked} oracle frames",
            mismatches=tuple(mismatches))
    report = TranslationReport(
        input=eqf,
        output=out,
        fresh=tuple(sorted(worker.roles.items())),
        frames_checked=checked,
        mismatches=(),
        closure_ordinals=tuple(ordinals),
    )
    return out, report
