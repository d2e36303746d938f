"""Shared fixtures: the system corpus, seeded random generators, the
recursive reference evaluator, the per-frame reference oracle, the
bit-walk reference frame enumerator, the per-state reference annotation
checkers, the per-state reference relevant-part checker and extractor,
and the annotated descent spines used by the repetition-pair and pump
tests."""

import itertools
import zlib
from pathlib import Path
from random import Random
from typing import (Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

from nablamu import (
    AnnEntry,
    AnnSet,
    Annotation,
    BigAnd,
    BigOr,
    Box,
    Dia,
    EquationSystem,
    EquationalFormula,
    ExtractionFailure,
    FF,
    ForeignFormula,
    Formula,
    Frame,
    FrameIndex,
    InvalidParameter,
    Mu,
    Nabla,
    NegProp,
    Nu,
    Ordinal,
    Prop,
    TT,
    TreeFrame,
    UnboundVariable,
    Var,
    Violation,
    ZERO,
    box,
    box_set,
    closure,
    conj,
    cover,
    dia,
    dia_set,
    disj,
    enumerate_frames,
    first_stages,
    format_formula,
    format_system,
    frame_index,
    free_vars,
    is_closed,
    neg,
    parse_formula,
    parse_system,
    prop,
    random_frame,
    sort_key,
    to_equational,
    var,
)
from nablamu.annotation import _entry_key, _least, _table_of
from nablamu.normalform import _prop_names
from nablamu.pump import AnnotatedTree
from nablamu.semantics import least_stable_stage

CORPUS_DIR = Path(__file__).parent / "corpus"

# Closed or quantified formulas that enter the corpus through the
# equational translation rather than as system files.
FORMULA_CORPUS: Tuple[str, ...] = (
    "box p",
    "dia p",
    "or{}",
    "and{}",
    "nab{}",
    "nab{p}",
    "mu x. or{p, dia x}",
    "mu x. or{and{p, dia x}, box ff}",
    "mu x. or{p, dia (mu y. or{x, dia y})}",
    "nu y. dia y",
)


def ref_eval(index: FrameIndex, f: Formula,
             env: Optional[Mapping[str, int]] = None,
             closed: Optional[Dict[Formula, int]] = None) -> int:
    """The recursive reference evaluator: the state mask of a formula on
    the index under a variable mask map, by structural recursion, with
    mu/nu binders iterated from the empty/full mask until stable.

    Closed subformulas are evaluated once per call (``closed`` caches
    them), so nested closed binders cost one iteration each.  Only the
    modal steps ``index.nab``/``box``/``dia`` are shared with the stage
    program.
    """
    env = env or {}
    if closed is None:
        closed = {}
    if not f.fv:
        cached = closed.get(f)
        if cached is not None:
            return cached
    m = _ref_eval(index, f, env, closed)
    if not f.fv:
        closed[f] = m
    return m


def _ref_eval(index: FrameIndex, f: Formula, env: Mapping[str, int],
              closed: Dict[Formula, int]) -> int:
    full = index.full
    if isinstance(f, Prop):
        return index.prop_mask.get(f.name, 0)
    if isinstance(f, NegProp):
        return full & ~index.prop_mask.get(f.name, 0)
    if isinstance(f, Var):
        return env.get(f.name, 0)
    if isinstance(f, BigAnd):
        acc = full
        for a in f.args:
            acc &= ref_eval(index, a, env, closed)
            if not acc:
                break
        return acc
    if isinstance(f, BigOr):
        acc = 0
        for a in f.args:
            acc |= ref_eval(index, a, env, closed)
            if acc == full:
                break
        return acc
    if isinstance(f, Nabla):
        return index.nab([ref_eval(index, a, env, closed) for a in f.args])
    if isinstance(f, Box):
        return index.box(ref_eval(index, f.arg, env, closed))
    if isinstance(f, Dia):
        return index.dia(ref_eval(index, f.arg, env, closed))
    if isinstance(f, (Mu, Nu)):
        cur = 0 if isinstance(f, Mu) else full
        inner = dict(env)
        while True:
            inner[f.var] = cur
            nxt = ref_eval(index, f.body, inner, closed)
            if nxt == cur:
                return cur
            cur = nxt
    raise TypeError(f"cannot evaluate {type(f).__name__}")


def ref_oracle(eqf: EquationalFormula, out: EquationalFormula,
               exhaustive_max: int = 3, random_count: int = 500):
    """The per-frame reference oracle: ``(closure_ordinals, mismatches)``
    of ``to_conjunctive``'s report for input ``eqf`` and output ``out``,
    one ``Frame`` and one ``FrameIndex`` per oracle frame."""
    mismatches = []
    ordinals = []
    for label, fr in _ref_oracle_frames(eqf, exhaustive_max, random_count):
        index = FrameIndex(fr)
        want, co_in = _init_mask_and_stage(eqf, index)
        got, co_out = _init_mask_and_stage(out, index)
        ordinals.append((label, co_in, co_out))
        if want != got:
            mismatches.append((
                label,
                tuple(sorted(index.unmask(want))),
                tuple(sorted(index.unmask(got))),
            ))
    return tuple(ordinals), tuple(mismatches)


def _init_mask_and_stage(eqf: EquationalFormula, index: FrameIndex) -> Tuple[int, int]:
    final, stage = least_stable_stage(eqf.system, index, eqf.init)
    return final[eqf.init], stage


def _ref_oracle_frames(eqf: EquationalFormula, exhaustive_max: int, random_count: int):
    prop_tuple = tuple(sorted(_prop_names(body for _, body in eqf.system.equations)))
    for i, fr in enumerate(enumerate_frames(exhaustive_max, prop_tuple)):
        yield f"E{len(fr.states)}#{i}", fr
    # the random frames of n states are the lanes of one batch of words,
    # all drawn from Random(seed + n - 1): per edge position i * n + j,
    # b words folded over the bits of k (edge probability k / 2 ** b),
    # then one word per proposition and state; lane f is R#(8f + n - 1)
    seed = zlib.crc32(format_system(eqf).encode())
    odds = ((5, 5), (5, 4), (1, 1), (11, 4))
    frames = {}
    for n in range(1, 9):
        lanes = len(range(n - 1, random_count, 8))
        rng = Random(seed + n - 1)
        k, b = odds[(n - 1) % 4]
        edge_words = [[rng.getrandbits(lanes) for _ in range(b)] for _ in range(n * n)]
        label_words = [rng.getrandbits(lanes) for _ in range(len(prop_tuple) * n)]
        states = [f"s{j}" for j in range(n)]
        for f in range(lanes):
            edges = []
            for pos, draws in enumerate(edge_words):
                bit = 0
                for t, r in enumerate(draws):  # bit t of k: or with r on 1, and on 0
                    bit = bit | r >> f & 1 if k >> t & 1 else bit & r >> f & 1
                if bit:
                    edges.append((states[pos // n], states[pos % n]))
            labels = {p: [s for i, s in enumerate(states) if label_words[q * n + i] >> f & 1]
                      for q, p in enumerate(prop_tuple)}
            frames[8 * f + n - 1] = Frame(states, edges, labels)
    for i in range(random_count):
        yield f"R#{i}", frames[i]


def ref_enumerate_frames(
    max_states: int,
    props: Sequence[str] = (),
    dedup: bool = True,
) -> Iterator[Frame]:
    """The reference enumerator: all frames with 1..max_states states over
    the given propositions, each (edge set, label set) pair walked bit by
    bit under every renaming.

    With ``dedup`` (the default) one representative is produced per
    renaming orbit: frames equal up to a permutation of state names are
    emitted once.
    """
    if max_states < 1:
        raise InvalidParameter("max_states must be at least 1")
    props = tuple(props)
    for n in range(1, max_states + 1):
        states = [f"s{i}" for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n)]
        edge_bits = n * n
        label_bits = n * len(props)
        perm_maps = []
        if dedup:
            for perm in itertools.permutations(range(n)):
                emap = [perm[i] * n + perm[j] for i, j in pairs]
                lmap = [p * n + perm[i] for p in range(len(props)) for i in range(n)]
                perm_maps.append((emap, lmap))
        seen: set = set()
        for e in range(1 << edge_bits):
            for l in range(1 << label_bits):
                if dedup:
                    best = None
                    for emap, lmap in perm_maps:
                        pe = 0
                        rem = e
                        pos = 0
                        while rem:
                            if rem & 1:
                                pe |= 1 << emap[pos]
                            rem >>= 1
                            pos += 1
                        pl = 0
                        rem = l
                        pos = 0
                        while rem:
                            if rem & 1:
                                pl |= 1 << lmap[pos]
                            rem >>= 1
                            pos += 1
                        if best is None or (pe, pl) < best:
                            best = (pe, pl)
                    if best in seen:
                        continue
                    seen.add(best)
                edges = [
                    (states[i], states[j])
                    for idx, (i, j) in enumerate(pairs)
                    if e >> idx & 1
                ]
                labels = {
                    p: [states[i] for i in range(n) if l >> (pi * n + i) & 1]
                    for pi, p in enumerate(props)
                }
                yield Frame(states, edges, labels)


def ref_check_well_annotation(
    theta: Annotation,
    system: EquationSystem,
    frame: Optional[Frame] = None,
) -> List[Violation]:
    """The per-state reference checker: every entry of every state
    tested clause by clause against each state's least stage per
    formula."""
    if frame is not None and frame != theta.frame:
        raise ValueError("annotation belongs to a different frame")
    frame = theta.frame
    _ref_closure_or_raise(theta, system)
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


def _ref_closure_or_raise(theta: Annotation, system: EquationSystem) -> FrozenSet[Formula]:
    clos = closure(system)
    for s, ann in theta.items():
        for f, _ in ann:
            if f not in clos:
                raise ForeignFormula(
                    f"{format_formula(f)} at {s} is not in the closure of the system"
                )
    return clos


def _ref_least_stages(system: EquationSystem, frame: Frame) -> Dict[str, Dict[Formula, Ordinal]]:
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


def ref_verify_conservative(
    theta: Annotation,
    system: EquationSystem,
    frame: Optional[Frame] = None,
) -> List[Violation]:
    """The per-state reference comparison against the least-stage
    annotation."""
    if frame is not None and frame != theta.frame:
        raise ValueError("annotation belongs to a different frame")
    frame = theta.frame
    _ref_closure_or_raise(theta, system)
    reference = _ref_least_stages(system, frame)
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


# The per-state relevant-part reference: each state read through
# ``Annotation.at``, ``box_set`` and ``dia_set``, every member set and
# successor set sorted.  The library's checker and extractor must agree
# with it on trees, annotations, violations and failure messages.

def ref_check_relevant(
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


def ref_extract_relevant(
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
    theta2 = Annotation._of(new_tree, _table_of(new_tree, theta_out), theta_out)
    phi2 = Annotation._of(new_tree, _table_of(new_tree, phi_out), phi_out)

    problems = ref_check_relevant(phi2, theta2, system)
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


def corpus_systems() -> List[Tuple[str, EquationalFormula]]:
    """All system files of the corpus, parsed with sugar preserved."""
    out = []
    for f in sorted(CORPUS_DIR.glob("*.mes")):
        out.append((f.stem, parse_system(f.read_text())))
    return out


def corpus_formulas() -> List[Tuple[str, EquationalFormula]]:
    """The formula corpus, brought into equational shape."""
    out = []
    for i, text in enumerate(FORMULA_CORPUS):
        out.append((f"formula_{i}_{text.split()[0].strip('{}')}",
                    to_equational(parse_formula(text, keep_sugar=True))))
    return out


def full_corpus() -> List[Tuple[str, EquationalFormula]]:
    return corpus_systems() + corpus_formulas()


def two_variable_corpus() -> List[Tuple[str, EquationalFormula]]:
    return [(n, eqf) for n, eqf in corpus_systems() if len(eqf.system.vars) == 2]


def random_system(seed: int, max_vars: int = 3,
                  props: Sequence[str] = ("p", "q")) -> EquationalFormula:
    """A seeded random guarded equation system over the given propositions.

    Variables occur only under a cover or a sugared modality, so every
    generated body passes the guardedness validation.
    """
    rng = Random(seed)
    names = [f"x{i}" for i in range(rng.randint(1, max_vars))]

    def closed() -> Formula:
        pick = rng.randrange(6)
        if pick == 0:
            return prop(props[0])
        if pick == 1:
            return prop(props[-1])
        if pick == 2:
            return neg(props[0])
        if pick == 3:
            return TT
        if pick == 4:
            return FF
        return cover()

    def guard() -> Formula:
        v = var(rng.choice(names))
        kind = rng.randrange(4)
        if kind == 0:
            return box(v)
        if kind == 1:
            return dia(v)
        members = [v]
        if rng.random() < 0.5:
            members.append(closed())
        if rng.random() < 0.3:
            members.append(var(rng.choice(names)))
        return cover(*members)

    def body() -> Formula:
        junct = disj if rng.random() < 0.6 else conj
        members = [guard() if rng.random() < 0.6 else closed()
                   for _ in range(rng.randint(1, 3))]
        if not any(free_vars(m) for m in members):
            members.append(guard())
        return junct(*members)

    system = EquationSystem([(n, body()) for n in names])
    return EquationalFormula(system, names[0])


def random_instance(seed: int, max_states: int = 6,
                    max_vars: int = 3) -> Tuple[EquationalFormula, "Frame"]:
    """A seeded (equational formula, frame) pair for property sweeps."""
    rng = Random(seed ^ 0x5EED)
    eqf = random_system(seed, max_vars=max_vars)
    frame = random_frame(
        rng.randint(1, max_states),
        edge_prob=rng.choice((0.15, 0.3, 0.5, 0.7)),
        props=("p", "q"),
        seed=seed,
    )
    return eqf, frame


SPINE_SYSTEM = parse_system("system\ninit: x\nx = nab{x}\n")

X = parse_formula("x", vars={"x"})
NAB_X = parse_formula("nab{x}", vars={"x"})


def descent_spine(
    n_limits: int,
    entry_fn: Optional[Callable[[int, Ordinal], Dict[Formula, Ordinal]]] = None,
    side_children: bool = False,
) -> AnnotatedTree:
    """A root-to-leaf spine whose cover annotations descend from
    w.n_limits through every smaller limit down to 0.

    Spine node i carries nab{x} at w.(n_limits - i) and x one stage
    higher; the final leaf sits at 0.  ``entry_fn`` may replace the
    per-node annotation sets (it receives the node index and the limit
    stage) to vary the stripped profiles.  With ``side_children`` each
    spine node gets an unannotated extra child, which empties the
    box-restricted set at that node without touching the trace.
    """
    names = [f"t{i}" for i in range(n_limits)] + ["leaf"]
    edges = [(names[i], names[i + 1]) for i in range(n_limits)]
    extra: List[str] = []
    if side_children:
        extra = [f"d{i}" for i in range(n_limits)]
        edges += [(f"t{i}", f"d{i}") for i in range(n_limits)]
    tree = TreeFrame(names + extra, edges, {}, root=names[0])

    entries: Dict[str, Dict[Formula, Ordinal]] = {}
    for i in range(n_limits):
        stage = Ordinal.omega_times(n_limits - i)
        if entry_fn is None:
            entries[names[i]] = {X: stage + 1, NAB_X: stage}
        else:
            entries[names[i]] = entry_fn(i, stage)
    entries["leaf"] = {X: Ordinal.natural(1), NAB_X: Ordinal()}
    ann = Annotation(tree, entries)
    return AnnotatedTree(tree, ann, ann)
