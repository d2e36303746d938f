"""Formula ASTs for the cover-modality mu-calculus, with parser, printer,
equation systems, Fischer-Ladner closure and conjunctive-shape recognition.

Grammar (concrete syntax):

    formula  := "mu" IDENT "." formula | "nu" IDENT "." formula | prefix
    prefix   := ("box" | "dia") prefix | primary
    primary  := "tt" | "ff" | "!" IDENT | IDENT
              | ("and" | "or" | "nab") "{" [formula ("," formula)*] "}"
              | "(" formula ")"

``tt`` is the empty conjunction, ``ff`` the empty disjunction.  ``box``
and ``dia`` are sugar (box f = nab{f, ff}, dia f = and{nab{f}, nab{}})
and are desugared at parse time unless asked otherwise.  Negation is
restricted to propositional constants.  Argument sets of and/or/nab are
genuine sets: duplicates collapse and order is irrelevant for equality.

Formula nodes are hash-consed: every constructor returns the one node
with its class and fields, so structural equality is object identity,
and a node's free variables (``fv``) are set when it is first built.
Canonical text is computed on first use and kept on the node.

Equation systems, equational formulas and the frames, annotations and
annotated trees of the other modules are values on one private base,
``_Value``: immutable, equal to an object of the same type with an
equal ``_key()``, hashed by that key once, and pickled and copied by
rebuilding through the constructor.

Passes over formulas and trees share one explicit-stack walk,
``_postorder``, which lists each distinct reachable node once, after
its kids, and rebuild through ``_rebuild``: ``desugar``,
``substitute``, ``closure``, the stage-program compiler,
``frame.tree_canonical_form`` and ``normalform``'s name scans and
rewrites run on it, so none is bounded by the recursion limit.  The
rewrites, which name fresh variables, hand the walk set members in
``sort_key`` order; ``_children`` and ``_postorder`` never sort, since
``sort_key`` prints.  Recursive on purpose: the parser;
``format_formula``, since an iterative printer would keep a string per
level of a deep nest (quadratic memory); ``FrameIndex.eval`` and
``normalform.to_equational``, once per level of binder nesting.
``_validate_body`` keeps its own stack to track guardedness, and checks
each (subformula, guarded) pair once.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "Formula", "Prop", "NegProp", "Var", "BigAnd", "BigOr", "Nabla",
    "Mu", "Nu", "Box", "Dia", "TT", "FF",
    "conj", "disj", "cover", "prop", "neg", "var", "mu", "nu", "box", "dia",
    "ParseError", "UnboundVariable", "NegatedVariable",
    "UnguardedVariable", "OpenQuantifier",
    "free_vars", "is_closed", "desugar", "substitute",
    "format_formula", "parse_formula", "sort_key",
    "EquationSystem", "EquationalFormula",
    "closure", "size", "is_conjunctive",
    "parse_system", "format_system",
]


class ParseError(ValueError):
    """Text outside the grammar; carries line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col

    def __reduce__(self):
        return type(self), (self.message, self.line, self.col)


class UnboundVariable(ValueError):
    """A variable is used where no declaration binds it."""


class NegatedVariable(ValueError):
    """Negation applied to a variable; only propositions may be negated."""


class UnguardedVariable(ValueError):
    """A system variable occurs in an equation body outside every nabla."""


class OpenQuantifier(ValueError):
    """A mu/nu subformula of an equation body has free variables."""


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class Formula:
    """Base class of the hash-consed formula nodes.

    Each constructor returns the one node stored under its class and
    normalised fields, so equal formulas are the same object: ``==`` and
    ``hash`` are the identity defaults, and argument sets compare
    order-insensitively because they are frozensets of such nodes.
    ``fv``, the set of free variable names, is set at construction from
    the children's ``fv``; the canonical text is computed on first use
    and kept, and so is ``_program``, the node's compiled stage program
    in ``nablamu.semantics``.  Nodes are immutable by convention.
    """

    __slots__ = ("fv", "_text", "_program")

    def _free(self) -> FrozenSet[str]:
        return _NO_VARS

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        return format_formula(self)


_NO_VARS: FrozenSet[str] = frozenset()

# Strong references: with a weak table a freed formula could come back
# under a new id, reordering formula sets from one pass to the next.
_NODES: Dict[tuple, Formula] = {}


def _node(cls, *fields) -> Formula:
    """The one node of class ``cls`` with these (normalised, checked)
    fields; made and given its free variables on first request."""
    key = (cls, *fields)
    node = _NODES.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__match_args__, fields):
            setattr(node, name, value)
        node.fv = node._free()
        node = _NODES.setdefault(key, node)
    return node


def _check(f: object) -> None:
    if not isinstance(f, Formula):
        raise TypeError(f"formula expected, got {f!r}")


class _Named(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        return _node(cls, name)


class Prop(_Named):
    __slots__ = ()


class NegProp(_Named):
    __slots__ = ()


class Var(_Named):
    __slots__ = ()

    def _free(self) -> FrozenSet[str]:
        return frozenset((self.name,))


class _SetNode(Formula):
    __slots__ = ("args",)
    __match_args__ = ("args",)

    def __new__(cls, args: Iterable[Formula] = ()):
        args = frozenset(args)
        for a in args:
            _check(a)
        return _node(cls, args)

    def _free(self) -> FrozenSet[str]:
        return _NO_VARS.union(*(a.fv for a in self.args))


class BigAnd(_SetNode):
    __slots__ = ()


class BigOr(_SetNode):
    __slots__ = ()


class Nabla(_SetNode):
    __slots__ = ()


class _Binder(Formula):
    __slots__ = ("var", "body")
    __match_args__ = ("var", "body")

    def __new__(cls, var: str, body: Formula):
        _check(body)
        return _node(cls, var, body)

    def _free(self) -> FrozenSet[str]:
        return self.body.fv - {self.var}


class Mu(_Binder):
    __slots__ = ()


class Nu(_Binder):
    __slots__ = ()


class _Prefix(Formula):
    """Sugar node (box/dia); eliminated by desugar()."""

    __slots__ = ("arg",)
    __match_args__ = ("arg",)

    def __new__(cls, arg: Formula):
        _check(arg)
        return _node(cls, arg)

    def _free(self) -> FrozenSet[str]:
        return self.arg.fv


class Box(_Prefix):
    __slots__ = ()


class Dia(_Prefix):
    __slots__ = ()


TT = BigAnd()
FF = BigOr()


def conj(*args: Formula) -> BigAnd:
    return BigAnd(args)


def disj(*args: Formula) -> BigOr:
    return BigOr(args)


def cover(*args: Formula) -> Nabla:
    return Nabla(args)


def prop(name: str) -> Prop:
    return Prop(name)


def neg(name: str) -> NegProp:
    return NegProp(name)


def var(name: str) -> Var:
    return Var(name)


def mu(name: str, body: Formula) -> Mu:
    return Mu(name, body)


def nu(name: str, body: Formula) -> Nu:
    return Nu(name, body)


def box(arg: Formula) -> Box:
    return Box(arg)


def dia(arg: Formula) -> Dia:
    return Dia(arg)


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------


def free_vars(f: Formula) -> FrozenSet[str]:
    """Free variable names of f (propositions do not count)."""
    _check(f)
    return f.fv


def is_closed(f: Formula) -> bool:
    return not free_vars(f)


def _children(f: Formula) -> Iterable[Formula]:
    """Set members, the prefix argument or the binder body."""
    match f:
        case BigAnd(args) | BigOr(args) | Nabla(args):
            return args
        case Box(arg) | Dia(arg):
            return (arg,)
        case Mu(_, body) | Nu(_, body):
            return (body,)
        case Prop() | NegProp() | Var():
            return ()
    raise TypeError(f"not a formula: {f!r}")


def _postorder(roots: Iterable, kids: Callable = _children) -> List:
    """Each distinct node reachable from ``roots`` through ``kids``,
    once, after its kids (on a cycle, after those not yet begun)."""
    order: List = []
    seen: set = set()
    stack = [(r, False) for r in reversed(list(roots))]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack.extend((k, False) for k in kids(node))
    return order


def _rebuild(f: Formula, new: Mapping[Formula, Formula]) -> Formula:
    """``f`` with each immediate subformula ``g`` replaced by ``new[g]``."""
    match f:
        case BigAnd(args) | BigOr(args) | Nabla(args):
            return type(f)(new[a] for a in args)
        case Box(arg) | Dia(arg):
            return type(f)(new[arg])
        case Mu(v, body) | Nu(v, body):
            return type(f)(v, new[body])
    return f


def desugar(f: Formula) -> Formula:
    """Eliminate box/dia: box f = nab{f, ff}, dia f = and{nab{f}, nab{}}."""
    new: Dict[Formula, Formula] = {}
    for g in _postorder((f,)):
        match g:
            case Box(arg):
                new[g] = Nabla((new[arg], FF))
            case Dia(arg):
                new[g] = BigAnd((Nabla((new[arg],)), Nabla()))
            case _:
                new[g] = _rebuild(g, new)
    return new[f]


def substitute(f: Formula, name: str, value: Formula) -> Formula:
    """Replace free occurrences of Var(name).  The replacement is assumed
    closed (fixpoint unfolding) or a variable that no binder in ``f``
    binds (renaming a binder to its equation), so no capture arises."""
    _check(f)
    new: Dict[Formula, Formula] = {Var(name): value}
    for g in _postorder((f,), lambda g: _children(g) if name in g.fv else ()):
        if g not in new:
            new[g] = _rebuild(g, new) if name in g.fv else g
    return new[f]


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def format_formula(f: Formula) -> str:
    """Canonical text: set members sorted by their own canonical text."""
    try:
        return f._text
    except AttributeError:
        pass
    match f:
        case Prop(name) | Var(name):
            text = name
        case NegProp(name):
            text = "!" + name
        case BigAnd(args):
            text = "tt" if not args else "and{" + ", ".join(sorted(format_formula(a) for a in args)) + "}"
        case BigOr(args):
            text = "ff" if not args else "or{" + ", ".join(sorted(format_formula(a) for a in args)) + "}"
        case Nabla(args):
            text = "nab{" + ", ".join(sorted(format_formula(a) for a in args)) + "}"
        case Mu(v, body):
            text = f"mu {v}. {format_formula(body)}"
        case Nu(v, body):
            text = f"nu {v}. {format_formula(body)}"
        case Box(arg):
            text = "box " + _prefix_arg(arg)
        case Dia(arg):
            text = "dia " + _prefix_arg(arg)
        case _:
            raise TypeError(f"not a formula: {f!r}")
    object.__setattr__(f, "_text", text)
    return text


def _prefix_arg(arg: Formula) -> str:
    if isinstance(arg, (Mu, Nu)):
        return "(" + format_formula(arg) + ")"
    return format_formula(arg)


def sort_key(f: Formula) -> str:
    """The fixed total order on ASTs used for canonical sets and
    deterministic tie-breaking."""
    return format_formula(f)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

KEYWORDS = frozenset({"and", "or", "nab", "mu", "nu", "box", "dia", "tt", "ff"})

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in "{},.!()":
            kinds = {"{": "LBRACE", "}": "RBRACE", ",": "COMMA", ".": "DOT",
                     "!": "BANG", "(": "LPAREN", ")": "RPAREN"}
            tokens.append(_Token(kinds[ch], ch, line, col))
            i += 1
            col += 1
            continue
        m = _IDENT.match(text, i)
        if m:
            word = m.group(0)
            tokens.append(_Token("IDENT", word, line, col))
            i = m.end()
            col += len(word)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], vars: FrozenSet[str]):
        self.tokens = tokens
        self.pos = 0
        self.vars = vars

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.value or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def formula(self, scope: FrozenSet[str]) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value in ("mu", "nu"):
            self.next()
            name_tok = self.expect("IDENT")
            if name_tok.value in KEYWORDS:
                raise ParseError(f"keyword {name_tok.value!r} cannot bind a variable", name_tok.line, name_tok.col)
            self.expect("DOT")
            body = self.formula(scope | {name_tok.value})
            return Mu(name_tok.value, body) if tok.value == "mu" else Nu(name_tok.value, body)
        return self.prefix(scope)

    def prefix(self, scope: FrozenSet[str]) -> Formula:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value in ("box", "dia"):
            self.next()
            arg = self.prefix(scope)
            return Box(arg) if tok.value == "box" else Dia(arg)
        return self.primary(scope)

    def primary(self, scope: FrozenSet[str]) -> Formula:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.next()
            inner = self.formula(scope)
            self.expect("RPAREN")
            return inner
        if tok.kind == "BANG":
            self.next()
            name_tok = self.expect("IDENT")
            if name_tok.value in KEYWORDS:
                raise ParseError(f"cannot negate keyword {name_tok.value!r}", name_tok.line, name_tok.col)
            if name_tok.value in scope or name_tok.value in self.vars:
                raise NegatedVariable(f"variable {name_tok.value!r} may not be negated (line {name_tok.line})")
            return NegProp(name_tok.value)
        if tok.kind != "IDENT":
            raise self.error(f"expected a formula, found {tok.value or 'end of input'!r}")
        word = tok.value
        if word == "tt":
            self.next()
            return BigAnd()
        if word == "ff":
            self.next()
            return BigOr()
        if word in ("and", "or", "nab"):
            self.next()
            members = self.member_list(scope)
            return {"and": BigAnd, "or": BigOr, "nab": Nabla}[word](members)
        if word in KEYWORDS:
            raise self.error(f"keyword {word!r} is not a formula here")
        self.next()
        if word in scope or word in self.vars:
            return Var(word)
        return Prop(word)

    def member_list(self, scope: FrozenSet[str]) -> List[Formula]:
        self.expect("LBRACE")
        members: List[Formula] = []
        if self.peek().kind != "RBRACE":
            members.append(self.formula(scope))
            while self.peek().kind == "COMMA":
                self.next()
                members.append(self.formula(scope))
        self.expect("RBRACE")
        return members


def parse_formula(text: str, vars: Iterable[str] = (), keep_sugar: bool = False) -> Formula:
    """Parse one formula.  Identifiers in ``vars`` (or bound by an
    enclosing mu/nu) become Var nodes; every other identifier is a
    proposition.  box/dia are desugared unless keep_sugar is set.
    Raises ParseError on text outside the grammar, nesting deeper than
    the interpreter's recursion limit allows included, and
    NegatedVariable on a negated variable."""
    parser = _Parser(_tokenize(text), frozenset(vars))
    try:
        f = parser.formula(frozenset())
        tok = parser.peek()
        if tok.kind != "EOF":
            raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
        return f if keep_sugar else desugar(f)
    except RecursionError:
        raise parser.error("formula nested too deeply") from None


# ---------------------------------------------------------------------------
# Values and equation systems
# ---------------------------------------------------------------------------


class _Value:
    """An immutable value, compared and hashed by its ``_key()``.

    Equal to an object of the same type with an equal key; the hash of
    the key is taken on first use and kept.  Pickling and copying
    rebuild through ``_of(*_args())``; unless a class overrides them,
    ``_of`` is the constructor and ``_args()`` the key.  Fields and
    caches are set with ``_set``; ``__setattr__`` and ``__delattr__``
    raise.
    """

    __slots__ = ("_hash",)

    def _args(self) -> tuple:
        return self._key()

    @classmethod
    def _of(cls, *args):
        return cls(*args)

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._set(_hash=hash(self._key()))
            return self._hash

    def __reduce__(self):
        return self._of, self._args()


class EquationSystem(_Value):
    """A finite set of variables with guarded quantifier-free defining
    formulas over the variables and closed formulas (Sigma-fragment
    equation system).  Bodies are stored as given (box/dia nodes are
    kept and count as guards); variable order is the declaration
    order.  ``_program`` holds the compiled stage program of
    ``nablamu.semantics``, set on first evaluation, and ``_closure`` the
    closure, set on the first call of ``closure``."""

    __slots__ = ("vars", "_eqs", "_program", "_closure")

    def __init__(self, equations: Union[Mapping[str, Formula], Iterable[Tuple[str, Formula]]]):
        if isinstance(equations, Mapping):
            items = list(equations.items())
        else:
            items = list(equations)
        names: List[str] = []
        eqs: Dict[str, Formula] = {}
        for name, body in items:
            if name in eqs:
                raise ValueError(f"duplicate equation for {name!r}")
            if not _IDENT.fullmatch(name) or name in KEYWORDS:
                raise ValueError(f"bad variable name {name!r}")
            names.append(name)
            if not isinstance(body, Formula):
                raise TypeError(f"equation body for {name!r} is not a formula")
            eqs[name] = body
        self._set(vars=tuple(names), _eqs=eqs)
        varset = frozenset(names)
        for name in names:
            _validate_body(eqs[name], name, varset)

    def eq(self, name: str) -> Formula:
        try:
            return self._eqs[name]
        except KeyError:
            raise UnboundVariable(f"no equation for {name!r}") from None

    @property
    def equations(self) -> Tuple[Tuple[str, Formula], ...]:
        return tuple((x, self._eqs[x]) for x in self.vars)

    def _key(self) -> tuple:
        return (self.equations,)

    def __repr__(self) -> str:
        eqs = "; ".join(f"{x} = {format_formula(f)}" for x, f in self.equations)
        return f"EquationSystem({eqs})"


def _validate_body(body: Formula, owner: str, varset: FrozenSet[str]) -> None:
    """Equation bodies are quantifier-free over X and closed formulas;
    X-variables must sit under at least one nabla.  Of several faults,
    an unbound variable comes first, then an unguarded one, then an
    open quantifier, and of several of one kind the least: variables
    by name, quantifiers by ``sort_key``."""
    unbound: Set[str] = set()
    unguarded: Set[str] = set()
    open_binders: Set[Formula] = set()
    stack = [(body, False)]
    seen: Set[Tuple[Formula, bool]] = set()
    while stack:
        item = stack.pop()
        if item in seen:  # shared subformulas are checked once per guardedness
            continue
        seen.add(item)
        f, guarded = item
        match f:
            case Var(name):
                if name not in varset:
                    unbound.add(name)
                elif not guarded:
                    unguarded.add(name)
            case Prop() | NegProp():
                pass
            case BigAnd(args) | BigOr(args):
                stack.extend((a, guarded) for a in args)
            case Nabla(args):
                stack.extend((a, True) for a in args)
            case Mu() | Nu():
                if f.fv:
                    open_binders.add(f)
            case Box(arg) | Dia(arg):
                stack.append((arg, True))
            case _:
                raise TypeError(f"not a formula: {f!r}")
    if unbound:
        raise UnboundVariable(f"variable {min(unbound)!r} in equation for {owner!r} has no equation")
    if unguarded:
        raise UnguardedVariable(f"variable {min(unguarded)!r} unguarded in equation for {owner!r}")
    if open_binders:
        f = min(open_binders, key=sort_key)
        raise OpenQuantifier(
            f"quantified subformula {format_formula(f)!r} in equation for {owner!r} "
            f"has free variables {sorted(f.fv)}")


class EquationalFormula(_Value):
    """An equation system with a distinguished initial variable."""

    __slots__ = ("system", "init")

    def __init__(self, system: EquationSystem, init: str):
        if init not in system.vars:
            raise UnboundVariable(f"initial variable {init!r} not among {list(system.vars)}")
        self._set(system=system, init=init)

    def _key(self) -> tuple:
        return (self.system, self.init)

    def __repr__(self) -> str:
        return f"EquationalFormula(init={self.init}, {self.system!r})"


# ---------------------------------------------------------------------------
# Fischer-Ladner closure
# ---------------------------------------------------------------------------


def closure(sys: EquationSystem) -> FrozenSet[Formula]:
    """Smallest set containing every E(x), closed under taking members of
    and/or/nab argument sets (box/dia arguments likewise) and the single
    unfolding of closed mu/nu subformulas.  Computed once and kept on
    the system."""
    try:
        return sys._closure
    except AttributeError:
        pass

    def kids(f: Formula) -> Iterable[Formula]:
        if isinstance(f, (Mu, Nu)):
            return (substitute(f.body, f.var, f),)
        return _children(f)

    clos = frozenset(_postorder([sys.eq(x) for x in sys.vars], kids))
    sys._set(_closure=clos)
    return clos


def size(sys: EquationSystem) -> int:
    """|X, E|: the cardinality of the closure."""
    return len(closure(sys))


# ---------------------------------------------------------------------------
# Conjunctive shape (each equation is a conjunction of clauses
# "disjunction of closed formulas or one nabla over variables")
# ---------------------------------------------------------------------------


def _unwrap(f: Formula) -> Formula:
    while isinstance(f, (BigAnd, BigOr)) and len(f.args) == 1:
        f = next(iter(f.args))
    return f


def conjuncts(f: Formula) -> Tuple[Formula, ...]:
    f = _unwrap(f)
    if isinstance(f, BigAnd):
        return tuple(sorted((_unwrap(a) for a in f.args), key=sort_key))
    return (f,)


def disjuncts(f: Formula) -> Tuple[Formula, ...]:
    f = _unwrap(f)
    if isinstance(f, BigOr):
        return tuple(sorted((_unwrap(a) for a in f.args), key=sort_key))
    return (f,)


def _is_var_nabla(f: Formula, varset: FrozenSet[str]) -> bool:
    return isinstance(f, Nabla) and all(isinstance(a, Var) and a.name in varset for a in f.args)


def is_conjunctive(sys: EquationSystem) -> bool:
    """Each equation is a conjunction of clauses "disjunction of closed
    formulas plus exactly one nabla over variables" (a closed nabla
    counts as a closed formula only when it has non-variable members;
    the empty nabla is the Y = {} modal part)."""
    return _first_nonconjunctive(sys) is None


def _first_nonconjunctive(sys: EquationSystem) -> Optional[Formula]:
    """The first equation body, in variable order, that is not in
    conjunctive shape; None when the system is conjunctive."""
    varset = frozenset(sys.vars)
    for x in sys.vars:
        for clause in conjuncts(sys.eq(x)):
            parts = disjuncts(clause)
            modal = [p for p in parts if _is_var_nabla(p, varset)]
            if len(modal) != 1 or any(p.fv for p in parts if p not in modal):
                return sys.eq(x)
    return None


# ---------------------------------------------------------------------------
# .mes system files
# ---------------------------------------------------------------------------


def parse_system(text: str) -> EquationalFormula:
    """Parse the .mes format: header line ``system``, one ``init: x``
    line, and ``x = formula`` equation lines; ``#`` starts a comment.
    Raises ParseError on text outside the format (a second equation for
    a variable included), NegatedVariable, and UnboundVariable,
    UnguardedVariable or OpenQuantifier on an invalid system."""
    lines: List[Tuple[int, int, str]] = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        body = code.strip()
        if body:
            lines.append((idx, len(code) - len(code.lstrip()), body))
    if not lines:
        raise ParseError("empty system file", 1, 1)
    header_no, lead, header = lines[0]
    if header != "system":
        raise ParseError(f"expected header 'system', found {header!r}", header_no, lead + 1)
    init: Optional[str] = None
    eq_lines: List[Tuple[int, int, str, str]] = []
    varset: Set[str] = set()
    for no, lead, line in lines[1:]:
        if line.startswith("init:"):
            if init is not None:
                raise ParseError("duplicate init line", no, lead + 1)
            init = line[len("init:"):].strip()
            if not _IDENT.fullmatch(init):
                raise ParseError(f"bad initial variable {init!r}", no, lead + 1)
            continue
        if "=" not in line:
            raise ParseError(f"expected 'var = formula', found {line!r}", no, lead + 1)
        name, rhs = line.split("=", 1)
        name = name.strip()
        if not _IDENT.fullmatch(name) or name in KEYWORDS:
            raise ParseError(f"bad variable name {name!r}", no, lead + 1)
        if name in varset:
            raise ParseError(f"duplicate equation for {name!r}", no, lead + 1)
        varset.add(name)
        rhs = rhs.lstrip()
        eq_lines.append((no, lead + len(line) - len(rhs), name, rhs))
    equations: List[Tuple[str, Formula]] = []
    for no, offset, name, rhs in eq_lines:
        try:
            body = parse_formula(rhs, vars=varset, keep_sugar=True)
        except ParseError as exc:
            raise ParseError(f"in equation for {name!r}: {exc.message}", no, offset + exc.col) from None
        equations.append((name, body))
    system = EquationSystem(equations)
    if init is None:
        raise ParseError("missing init line", lines[-1][0], 1)
    return EquationalFormula(system, init)


def format_system(eqf: Union[EquationalFormula, EquationSystem]) -> str:
    if isinstance(eqf, EquationalFormula):
        system, init = eqf.system, eqf.init
    else:
        system, init = eqf, None
    out = ["system"]
    if init is not None:
        out.append(f"init: {init}")
    for x, body in system.equations:
        out.append(f"{x} = {format_formula(body)}")
    return "\n".join(out) + "\n"
