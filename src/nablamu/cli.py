"""Batch command-line surface.

File-in/file-out verbs over ``.mes`` equation systems, ``.frame``
Kripke frames and ``.ann`` annotations.  Exit code 0 on success (a
check that *finds* violations is still a success with a nonempty
report), 1 on domain errors, 2 on usage or input-parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import List, Optional, Sequence

from .ordinal import Ordinal, OrdinalParseError
from .syntax import (
    EquationalFormula,
    ParseError,
    Var,
    desugar,
    format_formula,
    format_system,
    free_vars,
    parse_formula,
    parse_system,
)
from .frame import (
    Frame,
    FrameParseError,
    TreeFrame,
    UnknownState,
    chain,
    czarnecki,
    format_frame,
    frame_to_dot,
    frame_to_json,
    parse_frame,
    random_frame,
)
from .semantics import approx, closure_ordinal_on, denotation, eval_formula
from .annotation import (
    Annotation,
    AnnotationParseError,
    Violation,
    _entry_key,
    annotation_to_json,
    check_well_annotation,
    conservative,
    extract_relevant,
    format_annotation,
    parse_annotation,
    verify_conservative,
)
from .pump import AnnotatedTree, find_repetition_pairs, pair_to_json, pump
from .normalform import to_conjunctive

__all__ = ["main"]

_PARSE_ERRORS = (
    ParseError,
    FrameParseError,
    AnnotationParseError,
    OrdinalParseError,
    json.JSONDecodeError,
    OSError,
)


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# input/output helpers
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_system(path: str) -> EquationalFormula:
    return parse_system(_read(path))


def _load_frame(path: str) -> Frame:
    return parse_frame(_read(path))


def _load_annotation(path: str, frame: Frame, variables: Sequence[str]) -> Annotation:
    return parse_annotation(_read(path), frame, variables)


def _load_annotated(frame: str, theta: str, phi: str, variables: Sequence[str]) -> AnnotatedTree:
    """The annotated tree of a tree frame file and two annotation files."""
    tree = _load_frame(frame)
    if not isinstance(tree, TreeFrame):
        raise ValueError(f"{frame}: frame has no 'root:' line, not a tree")
    return AnnotatedTree(tree, _load_annotation(theta, tree, variables),
                         _load_annotation(phi, tree, variables))


def _emit(text: str, args: argparse.Namespace) -> None:
    if not text.endswith("\n"):
        text += "\n"
    path = getattr(args, "output", None)
    if path:
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nablamu-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    else:
        sys.stdout.write(text)


def _violation_json(v: Violation) -> dict:
    return {
        "state": v.state,
        "clause": v.clause,
        "formula": format_formula(v.formula) if v.formula is not None else None,
        "ordinal": str(v.ordinal) if v.ordinal is not None else None,
        "detail": v.detail,
    }


def _violation_report(violations: List[Violation], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {"violations": [_violation_json(v) for v in violations],
             "count": len(violations)},
            indent=2,
        )
    if not violations:
        return "OK (0 violations)"
    lines = [str(v) for v in violations]
    lines.append(f"FAIL ({len(violations)} violations)")
    return "\n".join(lines)


def _state_list(states, frame: Frame, fmt: str) -> str:
    ordered = [s for s in frame.states if s in states]
    if fmt == "json":
        return json.dumps({"states": ordered})
    return " ".join(ordered)


def _frame_text(frame: Frame, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(frame_to_json(frame), indent=2)
    if fmt == "dot":
        return frame_to_dot(frame)
    return format_frame(frame)


def _annotated_sections(tree: TreeFrame, theta: Annotation, phi: Annotation,
                        fmt: str, header: str = "") -> str:
    if fmt == "json":
        payload = {
            "tree": frame_to_json(tree),
            "theta": annotation_to_json(theta),
            "phi": annotation_to_json(phi),
        }
        if header:
            payload["provenance"] = header
        return json.dumps(payload, indent=2)
    if fmt == "dot":
        return _annotated_dot(tree, theta, phi)
    parts = []
    if header:
        parts.append(f"# {header}")
    parts.append("# tree")
    parts.append(format_frame(tree).rstrip("\n"))
    parts.append("# theta")
    parts.append(format_annotation(theta).rstrip("\n"))
    parts.append("# phi")
    parts.append(format_annotation(phi).rstrip("\n"))
    return "\n".join(parts)


def _annotated_dot(tree: TreeFrame, theta: Annotation, phi: Annotation) -> str:
    lines = ["digraph annotated {", "  rankdir=TB;"]
    for s in tree.states:
        rows = [s]
        marked = phi.at(s)
        for f, a in sorted(theta.at(s), key=_entry_key):
            star = " *" if (f, a) in marked else ""
            rows.append(f"{format_formula(f)} @ {a}{star}")
        label = "\\n".join(rows).replace('"', '\\"')
        shape = "doublecircle" if s == tree.root else "ellipse"
        lines.append(f'  "{s}" [shape={shape}, label="{label}"];')
    for a, b in sorted(tree.edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------


def _cmd_parse(args: argparse.Namespace) -> str:
    f = parse_formula(args.formula, keep_sugar=True)
    if args.desugar:
        f = desugar(f)
    if args.format == "json":
        return json.dumps({"formula": format_formula(f)})
    return format_formula(f)


def _cmd_eval(args: argparse.Namespace) -> str:
    frame = _load_frame(args.frame)
    if args.system:
        eqf = _load_system(args.system)
        states = denotation(eqf, frame)
    else:
        f = parse_formula(args.formula, keep_sugar=True)
        fv = free_vars(f)
        if fv:
            raise ValueError(
                f"formula has free variables {sorted(fv)}; evaluate via --system")
        states = eval_formula(f, frame)
    return _state_list(states, frame, args.format)


def _cmd_approx(args: argparse.Namespace) -> str:
    eqf = _load_system(args.system)
    frame = _load_frame(args.frame)
    alpha = Ordinal.parse(args.stage)
    if args.psi:
        psi = parse_formula(args.psi, vars=eqf.system.vars, keep_sugar=True)
    else:
        psi = Var(eqf.init)
    states = approx(psi, alpha, eqf.system, frame)
    return _state_list(states, frame, args.format)


def _cmd_co(args: argparse.Namespace) -> str:
    eqf = _load_system(args.system)
    frame = _load_frame(args.frame)
    value = closure_ordinal_on(frame, eqf)
    if args.format == "json":
        return json.dumps({"closure_ordinal": value})
    return str(value)


def _cmd_annotate(args: argparse.Namespace) -> str:
    eqf = _load_system(args.system)
    frame = _load_frame(args.frame)
    theta = conservative(eqf.system, frame)
    if args.format == "json":
        return json.dumps(annotation_to_json(theta), indent=2)
    return format_annotation(theta)


def _cmd_check(args: argparse.Namespace) -> str:
    eqf = _load_system(args.system)
    frame = _load_frame(args.frame)
    theta = _load_annotation(args.ann, frame, eqf.system.vars)
    return _violation_report(args.checker(theta, eqf.system), args.format)


def _cmd_relevant(args: argparse.Namespace) -> str:
    eqf = _load_system(args.system)
    frame = _load_frame(args.frame)
    if args.ann:
        theta = _load_annotation(args.ann, frame, eqf.system.vars)
    else:
        theta = conservative(eqf.system, frame)
    alpha = Ordinal.parse(args.stage) if args.stage else None
    target = args.target or eqf.init
    tree, theta2, phi = extract_relevant(theta, eqf.system, target, alpha)
    return _annotated_sections(tree, theta2, phi, args.format)


def _cmd_pairs(args: argparse.Namespace) -> str:
    eqf = _load_system(args.system)
    found = find_repetition_pairs(
        _load_annotated(args.frame, args.theta, args.phi, eqf.system.vars))
    if args.format == "json":
        return json.dumps({"pairs": [pair_to_json(p) for p in found]}, indent=2)
    if not found:
        return "no repetition pairs"
    return "\n".join(str(p) for p in found)


def _cmd_pump(args: argparse.Namespace) -> str:
    variables = _load_system(args.system).system.vars
    host = _load_annotated(args.frame, args.theta, args.phi, variables)
    donor = _load_annotated(args.donor_frame, args.donor_theta, args.donor_phi, variables)
    result = pump(host, args.state, donor)
    header = (
        f"pumped {args.state} with donor rooted {donor.tree.root}"
        f" ({len(result.tree.states)} states)"
    )
    return _annotated_sections(result.tree, result.theta, result.phi,
                               args.format, header)


def _cmd_conjunctive(args: argparse.Namespace) -> str:
    eqf = _load_system(args.system)
    out, report = to_conjunctive(eqf, random_count=args.random_count)
    if args.format == "json":
        return json.dumps(report.to_json(), indent=2)
    lines = [format_system(out).rstrip("\n")]
    if report.fresh:
        lines.append("# fresh variables:")
        for name, role in report.fresh:
            lines.append(f"#   {name}: {role}")
    lines.append(
        f"# frames checked: {report.frames_checked};"
        f" mismatches: {len(report.mismatches)}"
    )
    return "\n".join(lines)


def _cmd_gen(args: argparse.Namespace) -> str:
    if args.kind == "chain":
        if args.k is None:
            raise _UsageError("gen chain requires --k")
        frame: Frame = chain(args.k)
    elif args.kind == "czarnecki":
        if args.k is None or args.n is None:
            raise _UsageError("gen czarnecki requires --n and --k")
        frame = czarnecki(args.n, args.k)
    else:
        if args.size is None:
            raise _UsageError("gen random requires --size")
        seed = args.seed
        if seed is None:
            seed = int(os.environ.get("NABLA_SEED", "0"))
        props = tuple(p for p in (args.props or "").split(",") if p)
        frame = random_frame(args.size, edge_prob=args.edge_prob,
                             props=props, seed=seed)
    return _frame_text(frame, args.format)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="nablamu",
        description="closure-ordinal toolkit for cover-modality fixpoint systems",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name: str, func, *required: str, dot: bool = False, **kwargs) -> argparse.ArgumentParser:
        """The verb's parser: ``--format``, ``--output``, then each
        option of ``required``, which the verb must be given."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, dot=dot)
        p.add_argument("--format", choices=("text", "json", "dot"),
                       default="text", help="output rendering")
        p.add_argument("--output", help="write result to a file (atomic)")
        for option in required:
            p.add_argument(option, required=True)
        return p

    p = add("parse", _cmd_parse, "--formula", help="parse a formula and print it canonically")
    p.add_argument("--desugar", action="store_true",
                   help="expand box/dia before printing")

    p = add("desugar", _cmd_parse, "--formula", help="expand box/dia sugar in a formula")
    p.set_defaults(desugar=True)

    p = add("eval", _cmd_eval, "--frame", help="evaluate a formula or system on a frame")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--system")

    p = add("approx", _cmd_approx, "--system", "--frame",
            help="stage-bounded approximation of a system")
    p.add_argument("--stage", required=True, help="ordinal stage, e.g. 3 or w.2+1")
    p.add_argument("--psi", help="formula over the system variables (default: init)")

    add("co", _cmd_co, "--system", "--frame", help="per-frame closure ordinal of a system")
    add("annotate", _cmd_annotate, "--system", "--frame",
        help="conservative well-annotation of a system on a frame")

    for name, checker, text in (
            ("check-ann", check_well_annotation, "check the well-annotation clauses"),
            ("conservative-check", verify_conservative,
             "compare an annotation against the conservative one")):
        add(name, _cmd_check, "--system", "--frame", "--ann", help=text).set_defaults(checker=checker)

    p = add("relevant", _cmd_relevant, "--system", "--frame", dot=True,
            help="extract a relevant part over a tree frame")
    p.add_argument("--ann", help="annotation file (default: conservative)")
    p.add_argument("--target", help="traced variable (default: init)")
    p.add_argument("--stage", help="root stage to trace (default: least)")

    add("pairs", _cmd_pairs, "--system", "--frame", "--theta", "--phi",
        help="find repetition pairs on an annotated tree")
    add("pump", _cmd_pump, "--system", "--frame", "--theta", "--phi", "--state", "--donor-frame",
        "--donor-theta", "--donor-phi", dot=True, help="replace a branch by a donor annotated tree")

    p = add("conjunctive", _cmd_conjunctive, "--system",
            help="translate a system to conjunctive shape (oracle-verified)")
    p.add_argument("--random-count", type=int, default=500,
                   help="randomized oracle frames (default 500)")

    p = add("gen", _cmd_gen, dot=True, help="generate a frame")
    p.add_argument("kind", choices=("chain", "czarnecki", "random"))
    p.add_argument("--k", type=int, help="chain length / tower width")
    p.add_argument("--n", type=int, help="tower height (czarnecki)")
    p.add_argument("--size", type=int, help="state count (random)")
    p.add_argument("--edge-prob", type=float, default=0.35)
    p.add_argument("--props", default="p,q",
                   help="comma-separated proposition names (random)")
    p.add_argument("--seed", type=int, default=None,
                   help="defaults to $NABLA_SEED, then 0")
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.format == "dot" and not args.dot:
            raise _UsageError(f"--format dot is not available for {args.verb!r}")
        text = args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args and not isinstance(exc, UnknownState) else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    _emit(text, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
