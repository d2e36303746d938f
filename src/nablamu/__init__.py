"""Toolkit for closure ordinals of least-fixpoint cover-modality systems.

Equation systems over the single cover modality are evaluated on finite
Kripke frames through their ordinal-stage approximations; conservative
well-annotations, relevant parts, repetition pairs and pumping expose
the combinatorics behind per-frame closure ordinals, and a verified
translation brings systems into conjunctive shape.
"""

from types import ModuleType as _ModuleType

from .ordinal import (
    NoPredecessor,
    OMEGA,
    ONE,
    Ordinal,
    OrdinalParseError,
    ZERO,
)
from .syntax import (
    BigAnd,
    BigOr,
    Box,
    Dia,
    EquationSystem,
    EquationalFormula,
    FF,
    Formula,
    Mu,
    Nabla,
    NegProp,
    NegatedVariable,
    Nu,
    OpenQuantifier,
    ParseError,
    Prop,
    TT,
    UnboundVariable,
    UnguardedVariable,
    Var,
    box,
    closure,
    conj,
    cover,
    desugar,
    dia,
    disj,
    format_formula,
    format_system,
    free_vars,
    is_closed,
    is_conjunctive,
    mu,
    neg,
    nu,
    parse_formula,
    parse_system,
    prop,
    size,
    substitute,
    var,
)
from .frame import (
    Frame,
    FrameParseError,
    InvalidParameter,
    NotATree,
    TreeFrame,
    UnknownState,
    chain,
    czarnecki,
    czarnecki_formula,
    enumerate_frames,
    format_frame,
    frame_from_json,
    frame_to_dot,
    frame_to_json,
    parse_frame,
    random_frame,
    tree_canonical_form,
    unravel,
)
from .semantics import (
    FrameIndex,
    approx,
    closure_ordinal_on,
    denotation,
    eval_formula,
    frame_index,
    iterate_stages,
    sig_approx,
    stabilize,
)
from .annotation import (
    AnnEntry,
    AnnSet,
    Annotation,
    AnnotationParseError,
    ExtractionFailure,
    ForeignFormula,
    Violation,
    annotation_from_json,
    annotation_to_json,
    box_set,
    check_relevant,
    check_well_annotation,
    conservative,
    dia_set,
    extract_relevant,
    format_annotation,
    parse_annotation,
    preceq,
    preceq_annotation,
    verify_conservative,
)
from .pump import (
    AnnotatedTree,
    BoundEstimate,
    HypothesisUnmet,
    NotATreeState,
    NotOptimal,
    PairFound,
    PossiblyOptimal,
    RepetitionPair,
    RootSetMismatch,
    annotated_subtree,
    check_descent_hypothesis,
    family_root_bound,
    find_repetition_pairs,
    limit_states,
    optimality,
    pair_to_json,
    pump,
    repetition_bound,
)
from .normalform import (
    NotSigmaFragment,
    TranslationFailure,
    TranslationReport,
    to_conjunctive,
    to_equational,
)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
