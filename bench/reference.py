"""Reference semantics in plain Python sets, written from the definitions.

This module shares no evaluation code with ``nablamu.semantics``: states
are names, denotations are frozensets, and every stage is recomputed
from scratch.  The benchmark uses it only outside its timed region, to
check the program's outputs.

Definitions followed (README of the package):

* ``nab{G}`` holds at ``v`` when some single member of ``G`` holds at
  every successor of ``v``, or some successor satisfies all members;
* ``box f = nab{f, ff}`` and ``dia f = and{nab{f}, nab{}}``;
* closed ``mu``/``nu`` subformulas are Knaster-Tarski fixpoints,
  iterated from the empty set and from all states;
* an equation system is approximated by simultaneous (Jacobi) stages:
  stage 0 is empty everywhere and stage a+1 adds the value of each
  right-hand side under stage a;
* under a signature ``s`` the value of variable ``i`` is the union over
  ``b < s_i`` of its right-hand side under ``s`` with entry ``i``
  lowered to ``b``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from nablamu import BigAnd, BigOr, Box, Dia, Mu, Nabla, NegProp, Nu, Prop, Var

States = FrozenSet[str]
EMPTY: States = frozenset()


class RefFrame:
    """Successor sets and label sets of a frame, by state name."""

    def __init__(self, frame) -> None:
        self.order = tuple(frame.states)
        self.states: States = frozenset(self.order)
        self.succ: Dict[str, States] = {s: frame.successors(s) for s in self.order}
        self.labels: Dict[str, States] = {p: frame.label_states(p) for p in frame.labels}


def free_names(f, bound: FrozenSet[str] = EMPTY) -> FrozenSet[str]:
    """Variable names occurring free in ``f``."""
    if isinstance(f, Var):
        return EMPTY if f.name in bound else frozenset((f.name,))
    if isinstance(f, (BigAnd, BigOr, Nabla)):
        return frozenset().union(*(free_names(a, bound) for a in f.args))
    if isinstance(f, (Box, Dia)):
        return free_names(f.arg, bound)
    if isinstance(f, (Mu, Nu)):
        return free_names(f.body, bound | {f.var})
    return EMPTY


def prop_names(f) -> Set[str]:
    """Proposition names occurring in ``f``."""
    if isinstance(f, (Prop, NegProp)):
        return {f.name}
    if isinstance(f, (BigAnd, BigOr, Nabla)):
        return set().union(*(prop_names(a) for a in f.args))
    if isinstance(f, (Box, Dia)):
        return prop_names(f.arg)
    if isinstance(f, (Mu, Nu)):
        return prop_names(f.body)
    return set()


def system_props(system) -> Tuple[str, ...]:
    return tuple(sorted(set().union(*(prop_names(b) for _, b in system.equations))))


def cover(ref: RefFrame, members: Sequence[States]) -> States:
    common = ref.states.intersection(*members)
    return frozenset(
        v for v, ts in ref.succ.items()
        if not ts.isdisjoint(common) or any(ts <= m for m in members)
    )


def denote(f, ref: RefFrame, env: Mapping[str, States],
           memo: Optional[Dict] = None) -> States:
    """The set of states where ``f`` holds; free variables read ``env``.

    ``memo`` caches values for one fixed ``env``; closed subformulas may
    be cached in it across environments as well.
    """
    if memo is not None and f in memo:
        return memo[f]
    if isinstance(f, Prop):
        out = ref.labels.get(f.name, EMPTY)
    elif isinstance(f, NegProp):
        out = ref.states - ref.labels.get(f.name, EMPTY)
    elif isinstance(f, Var):
        out = env.get(f.name, EMPTY)
    elif isinstance(f, BigAnd):
        out = ref.states.intersection(*(denote(a, ref, env, memo) for a in f.args))
    elif isinstance(f, BigOr):
        out = EMPTY.union(*(denote(a, ref, env, memo) for a in f.args))
    elif isinstance(f, Nabla):
        out = cover(ref, [denote(a, ref, env, memo) for a in f.args])
    elif isinstance(f, Box):
        out = cover(ref, [denote(f.arg, ref, env, memo), EMPTY])
    elif isinstance(f, Dia):
        out = cover(ref, [denote(f.arg, ref, env, memo)]) & cover(ref, [])
    elif isinstance(f, (Mu, Nu)):
        cur = EMPTY if isinstance(f, Mu) else ref.states
        while True:
            nxt = denote(f.body, ref, {**env, f.var: cur})
            if nxt == cur:
                break
            cur = nxt
        out = cur
    else:
        raise TypeError(f"not a formula: {f!r}")
    if memo is not None:
        memo[f] = out
    return out


class Stages:
    """All Jacobi stages of a system on a frame, and the least stage at
    which each of ``formulas`` holds at each state."""

    def __init__(self, system, frame, formulas: Iterable = ()) -> None:
        self.ref = ref = RefFrame(frame)
        self.system = system
        formulas = list(formulas)
        closed = {f: {} for f in formulas if not free_names(f)}
        self.first: Dict[object, Dict[str, int]] = {f: {} for f in formulas}
        cur = {x: EMPTY for x in system.vars}
        self.seq: List[Dict[str, States]] = [cur]
        bound = len(ref.states) * len(system.vars) + 2
        shared: Dict = {}
        for f in closed:
            denote(f, ref, {}, shared)
        while True:
            stage = len(self.seq) - 1
            memo = dict(shared)
            for f in formulas:
                seen = self.first[f]
                for s in denote(f, ref, cur, memo):
                    seen.setdefault(s, stage)
            nxt = {x: cur[x] | denote(system.eq(x), ref, cur, memo) for x in system.vars}
            if nxt == cur:
                break
            self.seq.append(nxt)
            cur = nxt
            if len(self.seq) > bound:
                raise AssertionError("reference stages failed to stabilise")

    @property
    def final(self) -> Dict[str, States]:
        return self.seq[-1]

    def closure_ordinal(self, x: str) -> int:
        last = self.final[x]
        return next(a for a, st in enumerate(self.seq) if st[x] == last)

    def approx(self, psi, alpha: int) -> States:
        return denote(psi, self.ref, self.seq[min(alpha, len(self.seq) - 1)])

    def least_stage_entries(self) -> Set[Tuple[str, object, int]]:
        return {(s, f, a) for f, at in self.first.items() for s, a in at.items()}

    def sig_approx(self, psi, sig: Sequence[int], memo: Dict) -> States:
        """Value of ``psi`` under the signature; ``memo`` may be shared
        between calls on the same system and frame."""
        names = self.system.vars
        ref = self.ref

        def var_val(i: int, s: Tuple[int, ...]) -> States:
            key = (i, s)
            if key not in memo:
                acc = EMPTY
                for b in range(s[i]):
                    lowered = s[:i] + (b,) + s[i + 1:]
                    acc |= denote(self.system.eq(names[i]), ref, env_at(lowered))
                memo[key] = acc
            return memo[key]

        def env_at(s: Tuple[int, ...]) -> Dict[str, States]:
            return {names[j]: var_val(j, s) for j in range(len(names))}

        return denote(psi, ref, env_at(tuple(sig)))


def init_value(eqf, frame) -> States:
    """Denotation of the designated variable."""
    return Stages(eqf.system, frame).final[eqf.init]
