"""Semantics of formulas and equation systems over finite frames.

States are handled internally as bit masks over the frame's state
tuple; the public functions accept and return frozen sets of state
names.  An equation system is evaluated by ordinal approximation from
below: stage 0 assigns every variable the empty set and stage a+1
evaluates each right-hand side under stage a.  Bodies are monotone
(negation occurs only on propositions), so the stages grow, and on a
finite frame they stabilise after at most |states| * |variables| steps.

There is one evaluator, the stage program: a flat post-order list of
mask operations (and, or, nab, box, dia) over slots shared by equal
subformulas, compiled once per system or formula and kept on it.  Its
leaves are the propositions, their negations and the mu/nu
subformulas; every other subformula, closed or not, is an operation,
and in a system's program every closure formula has a slot.  Each
``FrameIndex`` runs the program of a system once, semi-naively, and
keeps the run: stage 0 is one step over every operation, and each later
stage recomputes only the operations that read a slot which changed, at
the states that can change.  The run keeps the stages and, per stage,
the states that first enter each slot there; the first-stage table is
read off those deltas.  ``iterate_stages``, ``least_stable_stage``,
``approx``, ``sig_approx`` and ``first_stages`` all read that run, and
the runs are all an index keeps between calls.  ``FrameIndex.eval``
takes one step of a formula's program, or steps a mu/nu binder's body
until it is stable, re-evaluating only the leaves that read the
binder's variable (Emerson and Lei), so nested closed binders stay
linear with no cache.

A ``FrameBatch`` is a second frame domain for the same stage loop: many
frames of one state count packed position-major into the lanes of one
mask, with the modal steps done lane by lane; its one graph step,
``dia``, works by target column.  One run gives every frame's stages,
and ``lane_closure_ordinals`` reads every lane's closure ordinal off them
in one bulk decode.  A batch keeps nothing between calls.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from functools import lru_cache
from itertools import compress, product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .ordinal import Ordinal
from .syntax import (BigAnd, BigOr, Box, Dia, EquationalFormula, EquationSystem,
                     Formula, Mu, NegProp, Nu, Prop, UnboundVariable, Var,
                     _children, _postorder, closure)
from .frame import Frame

__all__ = [
    "FrameIndex",
    "FrameBatch",
    "frame_index",
    "iterate_stages",
    "least_stable_stage",
    "lane_closure_ordinals",
    "first_stages",
    "eval_formula",
    "denotation",
    "stabilize",
    "approx",
    "sig_approx",
    "closure_ordinal_on",
]

OrdinalLike = Union[int, Ordinal]

# a native format code of each item width in bytes, for memoryview.cast
_ITEM_CODE = {memoryview(bytes(8)).cast(c).itemsize: c for c in "BHILQ"}


class FrameIndex:
    """A frame compiled to bit masks.  Between calls it keeps only its
    stage runs, one per system, keyed by the stage program object."""

    __slots__ = ("frame", "n", "full", "position", "succ", "pred", "prop_mask", "_runs")

    def __init__(self, frame: Frame) -> None:
        init = object.__setattr__
        n = len(frame.states)
        init(self, "frame", frame)
        init(self, "n", n)
        init(self, "full", (1 << n) - 1)
        pos = {s: i for i, s in enumerate(frame.states)}
        init(self, "position", pos)
        succ = [0] * n
        pred = [0] * n
        for a, b in frame.edges:
            i, j = pos[a], pos[b]
            succ[i] |= 1 << j
            pred[j] |= 1 << i
        init(self, "succ", tuple(succ))
        init(self, "pred", tuple(pred))
        props = {}
        for p, states in frame.labels.items():
            m = 0
            for s in states:
                m |= 1 << pos[s]
            props[p] = m
        init(self, "prop_mask", props)
        init(self, "_runs", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FrameIndex objects are immutable")

    def mask(self, states: Iterable[str]) -> int:
        m = 0
        for s in states:
            m |= 1 << self.position[s]
        return m

    def unmask(self, m: int) -> FrozenSet[str]:
        # bit i of m, read from the reversed binary text, picks state i
        return frozenset(compress(self.frame.states, map("1".__eq__, bin(m)[:1:-1])))

    def eval(self, f: Formula, env: Optional[Mapping[str, int]] = None) -> int:
        """Evaluate a formula to a state mask under a variable mask map
        (missing variables denote the empty set) on its stage program.

        A mu (nu) binder steps its body from the empty (full) mask until
        the value is stable.  The body's leaves are evaluated once, and
        after each step only the mu/nu leaves that read the binder's
        variable again: a leaf that does not read it stays constant while
        the binder iterates, so a nest of closed binders costs one
        evaluation each.  Recursion deepens with binder nesting only.
        """
        prog = _program(f)
        binder = isinstance(f, (Mu, Nu))
        env = {**(env or {}), f.var: 0 if isinstance(f, Mu) else self.full} if binder else env or {}
        ops, root, full, nab, box, dia = prog.ops, prog.roots[0], self.full, self.nab, self.box, self.dia
        vals = [env.get(x, 0) for x in prog.inputs] + _leaves(prog, self, env)
        if not binder:
            return _step(ops, vals, full, nab, box, dia)[root]
        again = [(k, g) for k, g in enumerate(prog.leaves, len(prog.inputs))
                 if isinstance(g, (Mu, Nu)) and f.var in g.fv]
        m = vals[0]
        while True:
            nxt = _step(ops, vals[:], full, nab, box, dia)[root]
            if nxt == m:
                return m
            m = vals[0] = env[f.var] = nxt
            for k, g in again:
                vals[k] = self.eval(g, env)

    # The modal steps of the stage program.  ``box`` and ``nab`` test
    # only the states of the candidate mask ``at``.

    def _at(self, at: Optional[int]) -> Iterable[Tuple[int, int]]:
        """(position, successor mask) of each state in ``at``; all if None."""
        if at is None:
            return enumerate(self.succ)
        succ = self.succ
        out = []
        while at:
            low = at & -at
            i = low.bit_length() - 1
            out.append((i, succ[i]))
            at ^= low
        return out

    def nab(self, members: Sequence[int], at: Optional[int] = None) -> int:
        """States in ``at`` where some successor lies in every member, or
        every successor lies in one single member (``nab{}``: has a
        successor)."""
        inter = self.full
        for m in members:
            inter &= m
        out = 0
        for i, sm in self._at(at):
            if sm & inter:
                out |= 1 << i
            else:
                for m in members:
                    if not sm & ~m:
                        out |= 1 << i
                        break
        return out

    def box(self, m: int, at: Optional[int] = None) -> int:
        """States in ``at`` all of whose successors lie in m."""
        out = 0
        for i, sm in self._at(at):
            if not sm & ~m:
                out |= 1 << i
        return out

    def dia(self, m: int) -> int:
        """States with a successor in m: the predecessors of m's states."""
        pred = self.pred
        out = 0
        while m:
            low = m & -m
            out |= pred[low.bit_length() - 1]
            m ^= low
        return out


@lru_cache(maxsize=256)
def frame_index(frame: Frame) -> FrameIndex:
    return FrameIndex(frame)


class FrameBatch:
    """Frames of ``n`` states each, packed position-major into lanes:
    bit i * lanes + f of a mask is state i of frame f.

    It offers what the stage program reads of a ``FrameIndex`` (``n``,
    ``full``, ``prop_mask``, ``dia``, ``box``, ``nab`` and ``eval``), and
    every operation acts on each lane as on its frame alone, so one stage
    run gives every frame's stages.  ``dia`` is the only graph step; by
    the cover law ``box m = not dia(not m)`` and
    ``nab G = dia(and G) or (or of box g for g in G)``.  ``dia`` works by
    target column: per position j with an edge into it in some lane, the
    batch keeps j's shift and the mask of j's predecessors, lane by lane
    in place; j's slice of the argument is copied to every position by
    ceil(log2 n) doubling shifts and anded with that mask, so a step
    costs n * ceil(log2 n) word operations, and one per empty slice.  A
    batch keeps nothing between calls, not even its stage runs, so a
    batch kept for many systems holds only its frames.
    """

    __slots__ = ("n", "lanes", "full", "_low", "prop_mask", "_cols", "_steps")

    def __init__(self, n: int, lanes: int, edge_words: Sequence[int], label_words: Sequence[int],
                 props: Sequence[str]) -> None:
        """The batch of ``lanes`` frames given by lane words, whose bit f
        is that bit of frame f: ``edge_words[i * n + j]`` for the edge
        i -> j, and ``label_words[k * n + i]`` for state i in ``props[k]``
        (the word order of ``normalform.to_conjunctive``'s random frames)."""
        self.n = n
        self.lanes = lanes
        self.full = (1 << n * lanes) - 1
        self._low = (1 << lanes) - 1  # every lane of position 0
        self.prop_mask = {p: m for k, p in enumerate(props) if (m := sum(
            w << i * lanes for i, w in enumerate(label_words[k * n:k * n + n])))}
        self._cols = tuple((j * lanes, col) for j in range(n) if (col := sum(
            edge_words[i * n + j] << i * lanes for i in range(n))))
        self._steps = tuple(lanes << t for t in range((n - 1).bit_length()))

    eval = FrameIndex.eval

    def dia(self, m: int) -> int:
        """States with a successor in m, lane by lane."""
        out = 0
        if m:
            low, steps = self._low, self._steps
            for at, col in self._cols:
                w = m >> at & low
                if w:
                    for step in steps:
                        w |= w << step
                    out |= w & col
        return out

    def box(self, m: int, at: Optional[int] = None) -> int:
        """States in ``at`` all of whose successors lie in m."""
        full = self.full
        out = full & ~self.dia(full & ~m)
        return out if at is None else out & at

    def nab(self, members: Sequence[int], at: Optional[int] = None) -> int:
        """States in ``at`` where some successor lies in every member, or
        every successor lies in one single member."""
        inter = self.full
        for m in members:
            inter &= m
        out = self.dia(inter)
        for m in members:
            out |= self.box(m)
        return out if at is None else out & at

    def lane_word(self, m: int) -> int:
        """The lanes in which m has a state, as one word: bit f is lane f."""
        acc, lanes = 0, self.lanes
        for shift in range(0, self.n * lanes, lanes):
            acc |= m >> shift
        return acc & self._low

    def lanes_of(self, m: int) -> List[int]:
        """The lanes in which m has a state."""
        return list(compress(range(self.lanes), map("1".__eq__, bin(self.lane_word(m))[:1:-1])))

    def states(self, m: int, lane: int) -> Tuple[str, ...]:
        """The sorted names ``s<i>`` of lane's states in m."""
        return tuple(sorted(f"s{i}" for i in range(self.n) if m >> i * self.lanes + lane & 1))


# ---------------------------------------------------------------------------
# Stage program
# ---------------------------------------------------------------------------

_AND, _OR, _NAB, _BOX, _DIA = range(5)


class _StageProgram:
    """Formulas compiled to a flat list of mask operations.

    Slot i < |inputs| holds the input variable i and the next slots hold
    the leaves: the propositions, their negations and the mu/nu
    subformulas, which the program does not enter.  Every other
    subformula of ``roots`` and ``more``, closed or not, is an operation
    that appends one slot, in post-order, so that it reads only earlier
    slots.  Equal subformulas share one slot; ``slot`` maps each formula
    to its slot.  ``roots`` are the slots of the root formulas, and
    ``users[k]`` is the bit mask of the operation slots that read slot k.
    """

    __slots__ = ("inputs", "leaves", "ops", "roots", "slot", "users")

    def __init__(self, inputs: Sequence[str], roots: Sequence[Formula],
                 more: Iterable[Formula] = ()) -> None:
        slot: Dict[Formula, int] = {Var(x): i for i, x in enumerate(inputs)}
        leaves: List[Formula] = []
        operations: List[Formula] = []
        for f in _postorder([*roots, *more], lambda f: () if isinstance(f, (Mu, Nu)) else _children(f)):
            if f not in slot:
                (leaves if isinstance(f, (Prop, NegProp, Mu, Nu)) else operations).append(f)
        for f in leaves + operations:
            slot[f] = len(slot)
        ops = []
        users = [0] * len(slot)
        for f in operations:
            if isinstance(f, Box):
                ops.append((_BOX, slot[f.arg]))
            elif isinstance(f, Dia):
                ops.append((_DIA, slot[f.arg]))
            else:
                code = _AND if isinstance(f, BigAnd) else _OR if isinstance(f, BigOr) else _NAB
                ops.append((code, tuple(slot[a] for a in f.args)))
            for a in _children(f):
                users[slot[a]] |= 1 << slot[f]
        self.inputs = tuple(inputs)
        self.leaves = tuple(leaves)
        self.ops = tuple(ops)
        self.roots = tuple(slot[f] for f in roots)
        self.slot = slot
        self.users = tuple(users)


def _program(source: Union[EquationSystem, Formula]) -> _StageProgram:
    """The stage program of a system or formula, compiled once and kept
    on it.  A system's inputs are its variables and its roots its
    bodies; every closure formula gets a slot.  A formula's inputs are
    its free variables and its root is itself; a binder's own variable
    comes first and its body is the root.
    """
    try:
        return source._program
    except AttributeError:
        pass
    if isinstance(source, EquationSystem):
        names = source.vars
        prog = _StageProgram(names, [source.eq(x) for x in names], closure(source))
    elif isinstance(source, (Mu, Nu)):
        prog = _StageProgram((source.var, *sorted(source.fv)), (source.body,))
    else:
        prog = _StageProgram(sorted(source.fv), (source,))
    object.__setattr__(source, "_program", prog)
    return prog


def _leaves(prog: _StageProgram, index: FrameIndex, env: Mapping[str, int]) -> List[int]:
    """The program's leaf masks on the index, mu/nu leaves under ``env``."""
    props, full = index.prop_mask, index.full
    out = []
    for f in prog.leaves:
        if isinstance(f, Prop):
            out.append(props.get(f.name, 0))
        elif isinstance(f, NegProp):
            out.append(full & ~props.get(f.name, 0))
        else:
            out.append(index.eval(f, env))
    return out


def _step(ops, vals: List[int], full: int, nab, box, dia) -> List[int]:
    """One stage step: append every operation's mask to ``vals``, which
    holds the variable masks and then the leaf masks.  The index's full
    mask and modal steps come as arguments, looked up once by callers
    that step many times."""
    push = vals.append
    for code, arg in ops:
        if code == _NAB:
            push(nab([vals[a] for a in arg]))
        elif code == _OR:
            acc = 0
            for a in arg:
                acc |= vals[a]
            push(acc)
        elif code == _AND:
            acc = full
            for a in arg:
                acc &= vals[a]
            push(acc)
        elif code == _BOX:
            push(box(vals[arg]))
        else:
            push(dia(vals[arg]))
    return vals


class _Run:
    """The stage program of one system run on one frame domain: a
    ``FrameIndex``, which keeps it, or a ``FrameBatch``, which does not.

    ``leaves`` are the leaf masks and ``stages`` the stage mask tuples.
    ``deltas[0]`` holds the slot masks at stage 0, and ``deltas[a]`` for
    a > 0 maps each slot that gains states at stage a to the states it
    gains.  ``first`` is the first-stage table, read off ``deltas`` on
    first use.  ``sig`` maps signatures to variable masks and ``bodies``
    maps variable masks to the body masks one step yields; both fill as
    ``sig_approx`` asks.
    """

    __slots__ = ("prog", "leaves", "stages", "deltas", "first", "sig", "bodies")

    def __init__(self, prog: _StageProgram, index: FrameIndex) -> None:
        self.prog = prog
        self.leaves = tuple(_leaves(prog, index, {}))
        self.stages, self.deltas = _stages(prog, index, self.leaves)
        self.first: Optional[Dict[Formula, Tuple[Tuple[int, int], ...]]] = None
        self.sig: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self.bodies: Dict[Tuple[int, ...], Tuple[int, ...]] = {}


def _stages(prog: _StageProgram, index: FrameIndex, leaves: Tuple[int, ...]
            ) -> Tuple[List[Tuple[int, ...]], List]:
    """The stages as mask tuples in variable order, and the deltas: the
    slot masks at stage 0, then per stage the states that first enter
    each slot there.

    Bodies are monotone, so slot values only grow from one stage to the
    next, and a state can enter a modal slot at a stage only if one of
    its successors entered an argument of the slot at that stage.  So
    each stage after 0 starts from the variables' deltas and visits only
    the operations that read a changed slot, lowest slot first (the
    users of a slot come after it): ``and``/``or`` are recomputed,
    ``dia`` adds the predecessors of its argument's delta, and ``box``/
    ``nab`` test the predecessors of their arguments' deltas that are
    not in the slot yet.
    """
    roots, ops, users = prog.roots, prog.ops, prog.users
    base = len(prog.inputs) + len(leaves)
    full, nab, box, dia = index.full, index.nab, index.box, index.dia
    cur = (0,) * len(roots)
    vals = _step(ops, [*cur, *leaves], full, nab, box, dia)
    stages = [cur]
    deltas: List = [tuple(vals)]  # a tuple, cheaper than a dict per run
    bound = index.n * len(roots) + 2
    while True:
        nxt = tuple([vals[r] for r in roots])
        if nxt == cur:
            return stages, deltas
        stages.append(nxt)
        if len(stages) > bound:
            raise AssertionError("approximation failed to stabilise within bound")
        delta: Dict[int, int] = {}
        dirty = 0
        for i, v in enumerate(nxt):
            if v != cur[i]:
                delta[i] = v & ~cur[i]
                vals[i] = v
                dirty |= users[i]
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            k = low.bit_length() - 1
            code, arg = ops[k - base]
            old = vals[k]
            if code == _OR:
                v = 0
                for a in arg:
                    v |= vals[a]
            elif code == _AND:
                v = full
                for a in arg:
                    v &= vals[a]
            elif code == _DIA:
                v = old | dia(delta[arg])
            elif code == _BOX:
                v = old | box(vals[arg], dia(delta[arg]) & ~old)
            else:
                moved = 0
                for a in arg:
                    moved |= delta.get(a, 0)
                v = old | nab([vals[a] for a in arg], dia(moved) & ~old)
            if v != old:
                delta[k] = v & ~old
                vals[k] = v
                dirty |= users[k]
        deltas.append(delta)
        cur = nxt


def _run(system: EquationSystem, index: FrameIndex) -> _Run:
    """The run of the system's stage program on the index, made once
    and kept on the index under the program object."""
    prog = _program(system)
    run = index._runs.get(prog)
    if run is None:
        run = index._runs[prog] = _Run(prog, index)
    return run


def iterate_stages(system: EquationSystem, index: FrameIndex) -> List[Dict[str, int]]:
    """All approximation stages as variable-to-mask maps.

    ``stages[a]`` is stage a; the last entry is the stable valuation
    (applying one more step leaves it unchanged).  Each stage evaluates
    every body under the previous stage only (simultaneous iteration).
    """
    names = system.vars
    return [dict(zip(names, st)) for st in _run(system, index).stages]


def least_stable_stage(
    system: EquationSystem, index: FrameIndex, var: Optional[str] = None
) -> Tuple[Dict[str, int], int]:
    """The stable valuation as masks, and the least stage at which the
    variable ``var`` (every variable, if None) has its stable value."""
    stages = _run(system, index).stages
    final = stages[-1]
    if var is None:
        # the stages grow strictly up to the stable one
        first = len(stages) - 1
    else:
        i = system.vars.index(var)
        last = final[i]
        first = next(a for a, st in enumerate(stages) if st[i] == last)
    return dict(zip(system.vars, final)), first


def lane_closure_ordinals(eqf: EquationalFormula, batch: FrameBatch) -> Tuple[int, List[int]]:
    """The stable mask of the initial variable on the batch, and per lane
    its closure ordinal: the least stage at which the lane's slice of it
    is stable, which on that lane's frame ``least_stable_stage`` gives.

    The slices only grow, so a lane's ordinal is the last stage that
    changes its slice (0 if none does).  The stages are walked from the
    last one down, each lane taken at the first change met; each stage's
    lanes are spread to k bytes apiece (lane f to byte k * f), times the
    stage, into one word, which is read once as a memoryview of k-byte
    items.  k is the least of 1, 2, 4 and 8 bytes that holds the last
    stage.  The batch is a one-shot domain, so the run is not kept.
    """
    stages = _Run(_program(eqf.system), batch).stages
    i = eqf.system.vars.index(eqf.init)
    top = len(stages) - 1
    k = next(k for k in (1, 2, 4, 8) if not top >> 8 * k)
    gap, left, acc = "0" * (8 * k - 1), batch._low, 0
    for a in range(top, 0, -1):
        hit = batch.lane_word(stages[a][i] ^ stages[a - 1][i]) & left
        if hit:
            left ^= hit
            acc |= int(gap.join(bin(hit)[2:]), 2) * a
    ordinals = memoryview(acc.to_bytes(batch.lanes * k, sys.byteorder)).cast(_ITEM_CODE[k]).tolist()
    if sys.byteorder == "big":  # the last lane's bytes come first
        ordinals.reverse()
    return stages[-1][i], ordinals


def first_stages(
    system: EquationSystem, index: FrameIndex
) -> Dict[Formula, Tuple[Tuple[int, int], ...]]:
    """For each variable and each closure formula of the system (every
    one has a slot in the system's stage program), the pairs (a, m) in
    stage order where m is the nonempty mask of the states at which the
    formula first holds at stage a.

    A closed formula reads no variable, so its one pair, if any, is at
    stage 0.
    """
    run = _run(system, index)
    if run.first is None:
        table = {k: [(0, v)] for k, v in enumerate(run.deltas[0]) if v}
        for a in range(1, len(run.deltas)):
            for k, new in run.deltas[a].items():
                table.setdefault(k, []).append((a, new))
        run.first = {f: tuple(table.get(k, ())) for f, k in run.prog.slot.items()}
    return dict(run.first)


def _as_valuation(index: FrameIndex, valuation: Optional[Mapping[str, Iterable[str]]]) -> Dict[str, int]:
    env: Dict[str, int] = {}
    for x, states in (valuation or {}).items():
        env[x] = index.mask(states)
    return env


def eval_formula(
    phi: Formula,
    frame: Frame,
    valuation: Optional[Mapping[str, Iterable[str]]] = None,
) -> FrozenSet[str]:
    """Evaluate a formula on a frame; free variables read the valuation.

    Free variables missing from the valuation denote the empty set.
    """
    index = frame_index(frame)
    return index.unmask(index.eval(phi, _as_valuation(index, valuation)))


def stabilize(
    system: EquationSystem, frame: Frame
) -> Tuple[Dict[str, FrozenSet[str]], int]:
    """The stable valuation of the system and the least stage reaching it."""
    index = frame_index(frame)
    final, first = least_stable_stage(system, index)
    return {x: index.unmask(m) for x, m in final.items()}, first


def denotation(eqf: EquationalFormula, frame: Frame) -> FrozenSet[str]:
    """The stable value of the designated variable."""
    valuation, _ = stabilize(eqf.system, frame)
    return valuation[eqf.init]


def closure_ordinal_on(frame: Frame, eqf: EquationalFormula) -> int:
    """Least stage at which the designated variable reaches its stable value."""
    return least_stable_stage(eqf.system, frame_index(frame), eqf.init)[1]


def _stage_number(alpha: OrdinalLike, top: int) -> int:
    """Collapse an ordinal stage to an equivalent stage index <= top."""
    if isinstance(alpha, Ordinal):
        if alpha.is_finite:
            return min(alpha.to_int(), top)
        return top
    if alpha < 0:
        raise ValueError("approximation stages are non-negative")
    return min(alpha, top)


def approx(
    psi: Formula,
    alpha: OrdinalLike,
    system: EquationSystem,
    frame: Frame,
) -> FrozenSet[str]:
    """Evaluate a formula under the stage-alpha valuation of the system.

    Stages beyond the stabilisation point coincide with the stable
    valuation, so transfinite stages are collapsed to it.
    """
    index = frame_index(frame)
    stages = _run(system, index).stages
    env = dict(zip(system.vars, stages[_stage_number(alpha, len(stages) - 1)]))
    return index.unmask(index.eval(psi, env))


def _normalize_signature(
    sig, system: EquationSystem, cap: int
) -> Tuple[int, ...]:
    if isinstance(sig, Mapping):
        entries = []
        for x in system.vars:
            if x not in sig:
                raise UnboundVariable(f"signature missing variable {x!r}")
            entries.append(sig[x])
        extra = set(sig) - set(system.vars)
        if extra:
            raise UnboundVariable(f"signature names unknown variables {sorted(extra)}")
    else:
        entries = list(sig)
        if len(entries) != len(system.vars):
            raise ValueError(
                f"signature has {len(entries)} entries for {len(system.vars)} variables"
            )
    out = []
    for e in entries:
        if isinstance(e, Ordinal):
            e = e.to_int() if e.is_finite else cap
        elif not (isinstance(e, int) and e >= 0):
            raise ValueError(f"bad signature entry {e!r}")
        out.append(min(e, cap))
    return tuple(out)


def sig_approx(
    psi: Formula,
    sig,
    system: EquationSystem,
    frame: Frame,
) -> FrozenSet[str]:
    """Evaluate a formula under a signature of per-variable stages.

    The signature assigns each system variable its own approximation
    stage: the value of variable i under signature s is the union over
    b < s_i of the right-hand side of i evaluated under s with entry i
    lowered to b.  ``sig`` may be a sequence aligned with the system's
    variable order or a mapping from variable names.  On a finite frame
    every entry beyond |states| * |variables| is equivalent to that
    bound, so transfinite entries are collapsed to it.
    """
    index = frame_index(frame)
    cap = index.n * len(system.vars) + 1
    entries = _normalize_signature(sig, system, cap)
    vals = _sig_valuation(_run(system, index), index, entries)
    return index.unmask(index.eval(psi, dict(zip(system.vars, vals))))


def _sig_valuation(run: _Run, index: FrameIndex, sig: Tuple[int, ...]) -> Tuple[int, ...]:
    """The variable masks under a signature.

    The bodies are monotone, so of the union over b < t_i that defines
    entry i under t only its last term counts: body i under t lowered
    by one at i.  Every signature below ``sig`` is filled in product
    order, which visits each one after those it lowers to; the results
    are kept on the run, and one step per distinct valuation gives all
    body masks.
    """
    known, bodies, prog, leaves = run.sig, run.bodies, run.prog, run.leaves
    got = known.get(sig)
    if got is not None:
        return got
    ops, full, nab, box, dia = prog.ops, index.full, index.nab, index.box, index.dia
    for t in product(*[range(e + 1) for e in sig]):
        if t in known:
            continue
        vals = []
        for i, e in enumerate(t):
            if not e:
                vals.append(0)
                continue
            low = known[t[:i] + (e - 1,) + t[i + 1:]]
            roots = bodies.get(low)
            if roots is None:
                step = _step(ops, [*low, *leaves], full, nab, box, dia)
                roots = bodies[low] = tuple([step[r] for r in prog.roots])
            vals.append(roots[i])
        known[t] = tuple(vals)
    return known[sig]
