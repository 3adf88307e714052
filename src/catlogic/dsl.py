"""Parser and printer for the textual theory format.

Grammar (keywords are bit-exact; `#` starts a line comment):

    file      := theory+
    theory    := "theory" IDENT ("prop" | "eq") "{" decl* "}"
    decl      := "sort" IDENT ";" | "op" IDENT ":" sorts? "->" IDENT ";"
               | "letters" IDENT ("," IDENT)* ";" | "axiom" formula ";"
               | "rewrite" term "->" term ";"
    sorts     := IDENT ("," IDENT)*
    formula   := "true" | "false" | IDENT | term "=" term
               | "not" "(" formula ")" | "and" "(" formula "," formula ")"
               | "or" "(" formula "," formula ")"
               | "implies" "(" formula "," formula ")"
               | "iff" "(" formula "," formula ")"          # sugar
    term      := IDENT | IDENT "(" term ("," term)* ")"

A letter (an IDENT formula) takes no arguments. The parser still reads
`IDENT "(" term ("," term)* ")"` as a formula, but only to report it: an
arity mismatch for a letter, an unknown symbol otherwise.
`iff(a, b)` desugars to `and(implies(a, b), implies(b, a))` at parse time.
An axiom or rewrite side may nest at most `MAX_NESTING` levels (`iff` counts
as two); deeper input is a syntax error rather than a stack overflow later.
Constants are declared `op u : -> X;`. In equational axioms, unquantified
identifiers that are not declared constants are variables; their sorts are
inferred from the positions they occupy.

The lexer is one regular expression; a token keeps its offsets, line and
column, and builds its `SourceSpan` only when read. Parse trees keep their
head token, so a span exists only for an axiom (`Theory.axiom_spans`), a
diagnostic or an error.
"""

from __future__ import annotations

import re

from .errors import Diagnostic, InvalidTheoryError, SourceSpan, TheorySyntaxError, clip
from .kernel import (
    And,
    App,
    Atom,
    Bottom,
    Equation,
    Formula,
    Fragment,
    FunctionSymbol,
    Implies,
    Not,
    Or,
    RelationSymbol,
    RewriteRule,
    Sort,
    Term,
    Theory,
    Top,
    Variable,
    check_well_formed,
    diagnose,
    iff,
    sort_conflicts,
)

KEYWORDS = frozenset(
    "theory prop eq sort op letters axiom rewrite true false not and or implies iff".split()
)

# Every recursive walk of a parsed formula or term (printing, closing, sort
# checks, evaluation, normalisation) takes at most a few frames per level, so
# 200 levels stay well inside Python's default recursion limit of 1000.
MAX_NESTING = 200

# One alternation in the spirit of the tokenizer recipe of the `re` docs.
# Digits are ASCII only: `str.isdigit` also admits '²' and '٣'. `.`, `[` and
# `]` are used by the brain format, tokenized here so both parsers share one
# lexer. `bad` matches any character no other group takes.
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)"
    r"|(?P<space>[ \t\r]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<arrow>->)"
    r"|(?P<punct>[{}();,:=.\[\]])"
    r"|(?P<number>[0-9]+)"
    r"|(?P<bad>.)"
)


class _Token:
    """One token; its SourceSpan is built only when something reads `span`."""

    __slots__ = ("kind", "text", "start", "end", "line", "column")

    def __init__(self, kind: str, text: str, start: int, end: int, line: int, column: int):
        self.kind = kind  # "ident", "punct", "arrow", "number", "eof"
        self.text = text
        self.start = start
        self.end = end
        self.line = line
        self.column = column

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, self.start, self.end)


def _scan(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    line, line_start = 1, 0
    mo = None
    for mo in _TOKEN_RE.finditer(text):
        kind = mo.lastgroup
        if kind == "space" or kind == "comment":
            continue
        if kind == "newline":
            line += 1
            line_start = mo.end()
            continue
        start = mo.start()
        if kind == "bad":
            raise TheorySyntaxError(
                f"unexpected character {mo.group()!r}",
                SourceSpan(line, start - line_start + 1, start, start + 1),
            )
        append(_Token(kind, mo.group(), start, mo.end(), line, start - line_start + 1))
    # a comment does not advance the column, so after a trailing comment
    # with no newline the eof token sits at the column of its `#`
    n = len(text)
    tail = mo.start() if mo is not None and mo.lastgroup == "comment" else n
    append(_Token("eof", "", n, n, line, tail - line_start + 1))
    return tokens


class _Lexer:
    def __init__(self, text: str):
        self.tokens = _scan(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise TheorySyntaxError(f"expected {text!r}, found {clip(tok.text)!r}", tok.span)
        return tok

    def expect_ident(self) -> _Token:
        tok = self.next()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise TheorySyntaxError(f"expected an identifier, found {clip(tok.text)!r}", tok.span)
        return tok

    def skip_past(self, text: str) -> None:
        while True:
            tok = self.next()
            if tok.text == text or tok.kind == "eof":
                return


class _ResolveError(Exception):
    """Semantic problem found while resolving a parsed tree; becomes a
    Diagnostic (validation failure), not a syntax error."""

    def __init__(self, code: str, message: str, span: SourceSpan):
        self.diagnostic = Diagnostic(code, message, span=span)
        super().__init__(message)


# ---------------------------------------------------------------------------
# Untyped parse trees for axiom bodies; sorts are resolved in a second pass.


class _PTerm:
    """An identifier with optional arguments; its span is built from the head
    token only when a diagnostic reports it."""

    __slots__ = ("name", "args", "head")

    def __init__(self, head: _Token, args: tuple | None):
        self.name = head.text
        self.args = args  # None means a bare identifier
        self.head = head

    @property
    def span(self) -> SourceSpan:
        return self.head.span


def _check_nesting(depth: int, tok: _Token) -> None:
    if depth > MAX_NESTING:
        raise TheorySyntaxError(f"nested deeper than {MAX_NESTING} levels", tok.span)


def _parse_pterm(lx: _Lexer, depth: int = 0) -> _PTerm:
    _check_nesting(depth, lx.peek())
    head = lx.expect_ident()
    if lx.peek().text == "(":
        lx.next()
        args = [_parse_pterm(lx, depth + 1)]
        while lx.peek().text == ",":
            lx.next()
            args.append(_parse_pterm(lx, depth + 1))
        lx.expect(")")
        return _PTerm(head, tuple(args))
    return _PTerm(head, None)


def _parse_formula(lx: _Lexer, th: "_TheoryBuilder", depth: int = 0) -> Formula:
    tok = lx.peek()
    _check_nesting(depth, tok)
    if tok.text == "true":
        lx.next()
        return Top()
    if tok.text == "false":
        lx.next()
        return Bottom()
    if tok.text == "not":
        lx.next()
        lx.expect("(")
        sub = _parse_formula(lx, th, depth + 1)
        lx.expect(")")
        return Not(sub)
    if tok.text in ("and", "or", "implies", "iff"):
        op = lx.next().text
        inner = depth + (2 if op == "iff" else 1)  # iff builds And(Implies, Implies)
        lx.expect("(")
        lhs = _parse_formula(lx, th, inner)
        lx.expect(",")
        rhs = _parse_formula(lx, th, inner)
        lx.expect(")")
        if op == "and":
            return And(lhs, rhs)
        if op == "or":
            return Or(lhs, rhs)
        if op == "implies":
            return Implies(lhs, rhs)
        return iff(lhs, rhs)
    pterm = _parse_pterm(lx, depth)
    if lx.peek().text == "=":
        lx.next()
        rhs = _parse_pterm(lx, depth)
        return th.resolve_equation(pterm, rhs)
    return th.resolve_atom(pterm)


class _TheoryBuilder:
    """Symbol tables, sort inference and diagnostics for one theory block."""

    def __init__(self, name: str, fragment: Fragment):
        self.name = name
        self.fragment = fragment
        self.sorts: dict[str, Sort] = {}
        self.functions: dict[str, FunctionSymbol] = {}
        self.relations: dict[str, RelationSymbol] = {}
        self.axioms: list[Formula] = []
        self.axiom_spans: list[SourceSpan] = []
        self.rewrites: list[RewriteRule] = []
        self.diagnostics: list[Diagnostic] = []

    def sort(self, tok: _Token) -> Sort:
        s = self.sorts.get(tok.text)
        if s is None:
            raise _ResolveError("unknown-symbol", f"undeclared sort {clip(tok.text)}", tok.span)
        return s

    def resolve_atom(self, p: _PTerm) -> Formula:
        rel = self.relations.get(p.name)
        if rel is None:
            raise _ResolveError(
                "unknown-symbol", f"{clip(p.name)} is not a declared letter or relation", p.span
            )
        if p.args is not None:
            raise _ResolveError(
                "arity-mismatch", f"{clip(rel.name)} expects 0 argument(s), got {len(p.args)}", p.span
            )
        return Atom(rel)

    def resolve_equation(self, lhs: _PTerm, rhs: _PTerm) -> Formula:
        if self.fragment is not Fragment.EQ:
            raise _ResolveError("fragment-violation", "equation in a prop theory", lhs.span)
        l = self.resolve_term(lhs, None)
        r = self.resolve_term(rhs, None)
        l_sort = self._shallow_sort(l)
        r_sort = self._shallow_sort(r)
        if l_sort is None and r_sort is None:
            if len(self.sorts) == 1:
                (only,) = self.sorts.values()
                l = self._force_var_sort(l, only)
                r = self._force_var_sort(r, only)
            else:
                raise _ResolveError(
                    "sort-mismatch", "cannot infer the sort of either equation side", lhs.span
                )
        elif l_sort is None:
            l = self._force_var_sort(l, r_sort)
        elif r_sort is None:
            r = self._force_var_sort(r, l_sort)
        elif l_sort != r_sort:
            raise _ResolveError(
                "sort-mismatch",
                f"equation sides have sorts {clip(l_sort.name)} and {clip(r_sort.name)}",
                lhs.span,
            )
        return Equation(l, r)

    def resolve_rewrite(self, lhs: _PTerm, rhs: _PTerm) -> RewriteRule:
        eq = self.resolve_equation(lhs, rhs)
        return RewriteRule(eq.lhs, eq.rhs)

    def resolve_term(self, p: _PTerm, expected: Sort | None) -> Term | Variable:
        fn = self.functions.get(p.name)
        if fn is not None and (p.args is not None or fn.arity == 0):
            args = p.args or ()
            if len(args) != fn.arity:
                raise _ResolveError(
                    "arity-mismatch",
                    f"{clip(fn.name)} expects {fn.arity} argument(s), got {len(args)}",
                    p.span,
                )
            terms = tuple(self.resolve_term(a, s) for a, s in zip(args, fn.domain))
            if expected is not None and fn.codomain != expected:
                raise _ResolveError(
                    "sort-mismatch",
                    f"{clip(fn.name)} returns {clip(fn.codomain.name)}, expected {clip(expected.name)}",
                    p.span,
                )
            return App(fn, terms)
        if p.args is not None:
            raise _ResolveError("unknown-symbol", f"{clip(p.name)} is not a declared op", p.span)
        if fn is not None:
            raise _ResolveError(
                "unknown-symbol", f"{clip(p.name)} is an op of arity {fn.arity}, not a variable", p.span
            )
        # a variable; sort comes from the position, or stays open for a later pass
        if expected is None:
            return Variable(p.name, _OPEN_SORT)
        return Variable(p.name, expected)

    def _shallow_sort(self, term: Term) -> Sort | None:
        if isinstance(term, Variable):
            return None if term.sort is _OPEN_SORT else term.sort
        return term.symbol.codomain

    def _force_var_sort(self, term: Term, sort: Sort) -> Term:
        if isinstance(term, Variable) and term.sort is _OPEN_SORT:
            return Variable(term.name, sort)
        return term

    def add_axiom(self, formula: Formula, span: SourceSpan) -> None:
        # one axiom is universally closed, so a variable has one sort across
        # it. No variable is open here: an argument takes its sort from the
        # symbol's domain, and resolve_equation fixes (or rejects) a bare
        # variable side, so the formula is kept as it was resolved.
        conflicts = sort_conflicts(formula)
        if conflicts:
            raise _ResolveError(
                "sort-mismatch", f"variable {clip(conflicts[0])} used at two different sorts", span
            )
        self.axioms.append(formula)
        self.axiom_spans.append(span)

    def finish(self) -> Theory:
        theory = Theory(
            name=self.name,
            fragment=self.fragment,
            sorts=tuple(self.sorts.values()),
            functions=tuple(self.functions.values()),
            relations=tuple(self.relations.values()),
            axioms=tuple(self.axioms),
            rewrites=tuple(self.rewrites),
            axiom_spans=tuple(self.axiom_spans),
        )
        if self.diagnostics:
            raise InvalidTheoryError(self.diagnostics + diagnose(theory))
        return check_well_formed(theory)


_OPEN_SORT = Sort("\x00open")  # parse-time placeholder, never escapes this module


def _parse_theory_block(lx: _Lexer) -> Theory:
    lx.expect("theory")
    name_tok = lx.expect_ident()
    frag_tok = lx.next()
    if frag_tok.text == "prop":
        fragment = Fragment.PROP
    elif frag_tok.text == "eq":
        fragment = Fragment.EQ
    else:
        raise TheorySyntaxError("expected 'prop' or 'eq'", frag_tok.span)
    th = _TheoryBuilder(name_tok.text, fragment)
    lx.expect("{")
    while lx.peek().text != "}":
        tok = lx.next()
        if tok.text == "sort":
            ident = lx.expect_ident()
            if ident.text in th.sorts:
                th.diagnostics.append(
                    Diagnostic("duplicate-name", f"sort {clip(ident.text)} declared twice", span=ident.span)
                )
            else:
                th.sorts[ident.text] = Sort(ident.text)
            lx.expect(";")
        elif tok.text == "op":
            try:
                ident = lx.expect_ident()
                lx.expect(":")
                domain = []
                if lx.peek().kind == "ident":
                    s_tok = lx.expect_ident()
                    domain.append(th.sort(s_tok))
                    while lx.peek().text == ",":
                        lx.next()
                        s_tok = lx.expect_ident()
                        domain.append(th.sort(s_tok))
                lx.expect("->")
                cod_tok = lx.expect_ident()
                if ident.text in th.functions:
                    th.diagnostics.append(
                        Diagnostic("duplicate-name", f"op {clip(ident.text)} declared twice", span=ident.span)
                    )
                else:
                    th.functions[ident.text] = FunctionSymbol(
                        ident.text, tuple(domain), th.sort(cod_tok)
                    )
                lx.expect(";")
            except _ResolveError as err:
                th.diagnostics.append(err.diagnostic)
                lx.skip_past(";")
        elif tok.text == "letters":
            while True:
                ident = lx.expect_ident()
                if ident.text in th.relations:
                    th.diagnostics.append(
                        Diagnostic(
                            "duplicate-name", f"letter {clip(ident.text)} declared twice", span=ident.span
                        )
                    )
                else:
                    th.relations[ident.text] = RelationSymbol(ident.text)
                if lx.peek().text != ",":
                    break
                lx.next()
            lx.expect(";")
        elif tok.text == "axiom":
            span = lx.peek().span
            try:
                formula = _parse_formula(lx, th)
                th.add_axiom(formula, span)
                lx.expect(";")
            except _ResolveError as err:
                th.diagnostics.append(err.diagnostic)
                lx.skip_past(";")
        elif tok.text == "rewrite":
            try:
                lhs = _parse_pterm(lx)
                lx.expect("->")
                rhs = _parse_pterm(lx)
                th.rewrites.append(th.resolve_rewrite(lhs, rhs))
                lx.expect(";")
            except _ResolveError as err:
                th.diagnostics.append(err.diagnostic)
                lx.skip_past(";")
        else:
            raise TheorySyntaxError(f"expected a declaration, found {clip(tok.text)!r}", tok.span)
    lx.expect("}")
    return th.finish()


def parse_file(text: str) -> list[Theory]:
    """Parse every theory in a source text; names must be unique per file."""
    lx = _Lexer(text)
    theories: list[Theory] = []
    names: set[str] = set()
    while lx.peek().kind != "eof":
        start = lx.peek()
        if start.text != "theory":
            raise TheorySyntaxError(f"expected 'theory', found {clip(start.text)!r}", start.span)
        t = _parse_theory_block(lx)
        if t.name in names:
            raise TheorySyntaxError(f"theory {clip(t.name)} defined twice", start.span)
        names.add(t.name)
        theories.append(t)
    if not theories:
        eof = lx.peek()
        raise TheorySyntaxError("empty input: expected at least one theory", eof.span)
    return theories


def parse_theory(text: str) -> Theory:
    """Parse a source text containing exactly one theory."""
    theories = parse_file(text)
    if len(theories) != 1:
        raise TheorySyntaxError(
            f"expected exactly one theory, found {len(theories)}", SourceSpan(1, 1, 0, 0)
        )
    return theories[0]


# ---------------------------------------------------------------------------
# Printing


def print_term(term: Term) -> str:
    if isinstance(term, Variable):
        return term.name
    if term.args:
        return f"{term.symbol.name}({', '.join(print_term(a) for a in term.args)})"
    return term.symbol.name


def print_formula(formula: Formula) -> str:
    if isinstance(formula, Top):
        return "true"
    if isinstance(formula, Bottom):
        return "false"
    if isinstance(formula, Atom):
        return formula.symbol.name
    if isinstance(formula, Equation):
        return f"{print_term(formula.lhs)} = {print_term(formula.rhs)}"
    if isinstance(formula, Not):
        return f"not({print_formula(formula.operand)})"
    if isinstance(formula, And):
        return f"and({print_formula(formula.lhs)}, {print_formula(formula.rhs)})"
    if isinstance(formula, Or):
        return f"or({print_formula(formula.lhs)}, {print_formula(formula.rhs)})"
    if isinstance(formula, Implies):
        return f"implies({print_formula(formula.lhs)}, {print_formula(formula.rhs)})"
    raise TypeError(f"not a formula: {formula!r}")


def print_theory(theory: Theory) -> str:
    """Deterministic source form; parse_theory(print_theory(t)) == t."""
    lines = [f"theory {theory.name} {theory.fragment.value} {{"]
    for s in theory.sorts:
        lines.append(f"  sort {s.name};")
    for f in theory.functions:
        domain = ", ".join(s.name for s in f.domain)
        sep = " " if domain else ""
        lines.append(f"  op {f.name} :{sep}{domain} -> {f.codomain.name};")
    if theory.relations:
        names = ", ".join(r.name for r in theory.relations)
        lines.append(f"  letters {names};")
    for ax in theory.axioms:
        lines.append(f"  axiom {print_formula(ax)};")
    for rule in theory.rewrites:
        lines.append(f"  rewrite {print_term(rule.lhs)} -> {print_term(rule.rhs)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_file(theories: list[Theory]) -> str:
    return "\n".join(print_theory(t) for t in theories)
