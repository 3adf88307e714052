"""Abstract syntax and well-formedness diagnostics for propositional and
multi-sorted equational theories.

All values are immutable; every operation here is a pure function, so terms,
formulae and theories can be shared freely.

Conventions:
  * a relation symbol is a propositional letter and takes no arguments; a
    PROP theory declares only letters and an EQ theory only sorts and ops,
    so one Theory type serves both fragments;
  * equational axioms are implicitly universally closed (there is no
    quantifier node);
  * the connective set is exactly top/bottom/not/and/or/implies; `iff`
    builds the biconditional from them, for the DSL and for Lang alike.

`free_vars` and `sort_conflicts` are the variable walks that the parser,
`diagnose` and `syncat` share. `diagnose` is the one sort checker: it lists
every finding instead of raising at the first. `substitute` acts on terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Union

from .errors import Diagnostic, InvalidTheoryError, SortMismatchError


class Fragment(Enum):
    PROP = "prop"
    EQ = "eq"


@dataclass(frozen=True)
class Sort:
    name: str


@dataclass(frozen=True)
class FunctionSymbol:
    name: str
    domain: tuple[Sort, ...]
    codomain: Sort

    @property
    def arity(self) -> int:
        return len(self.domain)


@dataclass(frozen=True)
class RelationSymbol:
    name: str


@dataclass(frozen=True)
class Variable:
    name: str
    sort: Sort


@dataclass(frozen=True)
class App:
    symbol: FunctionSymbol
    args: tuple["Term", ...] = ()


Term = Union[Variable, App]


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class Atom:
    symbol: RelationSymbol


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Implies:
    lhs: "Formula"
    rhs: "Formula"


Formula = Union[Top, Bottom, Atom, Equation, Not, And, Or, Implies]


@dataclass(frozen=True)
class RewriteRule:
    """Oriented equation lhs -> rhs; the user asserts termination/confluence."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Theory:
    name: str
    fragment: Fragment
    sorts: tuple[Sort, ...] = ()
    functions: tuple[FunctionSymbol, ...] = ()
    relations: tuple[RelationSymbol, ...] = ()
    axioms: tuple[Formula, ...] = ()
    rewrites: tuple[RewriteRule, ...] = ()
    # parallel to axioms when the theory came from the DSL; excluded from
    # structural equality so round-tripping compares clean
    axiom_spans: tuple = field(default=(), compare=False, repr=False)
    # facts derived from this value, each computed once on first use; outside
    # init, ==, hash and repr, so dataclasses.replace starts an empty memo
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def letters(self) -> tuple[str, ...]:
        """Propositional letter names in canonical (sorted) order."""
        return tuple(sorted(r.name for r in self.relations))

    def function(self, name: str) -> FunctionSymbol:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)


def free_vars(e: Term | Formula) -> frozenset[Variable]:
    """Exact set of variables occurring in a term or formula."""
    out: set[Variable] = set()
    _collect_vars(e, out)
    return frozenset(out)


def _collect_vars(e: Term | Formula, out: set[Variable]) -> None:
    if isinstance(e, Variable):
        out.add(e)
    elif isinstance(e, App):
        for a in e.args:
            _collect_vars(a, out)
    elif isinstance(e, (Equation, And, Or, Implies)):
        _collect_vars(e.lhs, out)
        _collect_vars(e.rhs, out)
    elif isinstance(e, Not):
        _collect_vars(e.operand, out)
    elif not isinstance(e, (Top, Bottom, Atom)):
        raise TypeError(f"not a term or formula: {e!r}")


def sort_conflicts(*parts: Term | Formula) -> list[str]:
    """Sorted names of the variables that occur at two sorts across parts."""
    found: set[Variable] = set()
    for part in parts:
        _collect_vars(part, found)
    names: set[str] = set()
    twice: set[str] = set()
    for v in found:
        (twice if v.name in names else names).add(v.name)
    return sorted(twice)


def iff(a: Formula, b: Formula) -> Formula:
    """The biconditional a <-> b as (a -> b) and (b -> a)."""
    return And(Implies(a, b), Implies(b, a))


def substitute(term: Term, mapping: Mapping[Variable, Term]) -> Term:
    """Simultaneous substitution of terms for variables in a term.

    Variables outside the mapping are unchanged. The mapping must be
    sort-respecting on the variables it actually hits.
    """
    for var, repl in mapping.items():
        if _term_sort_shallow(repl) != var.sort:
            raise SortMismatchError(
                f"substituting a {_term_sort_shallow(repl).name}-term for {var.name}:{var.sort.name}"
            )
    return _subst(term, mapping)


def _term_sort_shallow(term: Term) -> Sort:
    # the sort a term carries on its face (well-formedness is checked elsewhere)
    return term.sort if isinstance(term, Variable) else term.symbol.codomain


def _subst(term: Term, mapping) -> Term:
    if isinstance(term, Variable):
        return mapping.get(term, term)
    if isinstance(term, App):
        return App(term.symbol, tuple(_subst(a, mapping) for a in term.args))
    raise TypeError(f"not a term: {term!r}")


def diagnose(theory: Theory) -> list[Diagnostic]:
    """All well-formedness findings for a theory (empty list means valid)."""
    out: list[Diagnostic] = []

    seen: set[str] = set()
    for s in theory.sorts:
        if s.name in seen:
            out.append(Diagnostic("duplicate-name", f"sort {s.name} declared twice", f"sort {s.name}"))
        seen.add(s.name)
    seen = set()
    for f in theory.functions:
        if f.name in seen:
            out.append(Diagnostic("duplicate-name", f"op {f.name} declared twice", f"op {f.name}"))
        seen.add(f.name)
        for s in (*f.domain, f.codomain):
            if s not in theory.sorts:
                out.append(
                    Diagnostic("unknown-symbol", f"op {f.name} uses undeclared sort {s.name}", f"op {f.name}")
                )
    seen = set()
    for r in theory.relations:
        if r.name in seen:
            out.append(Diagnostic("duplicate-name", f"relation {r.name} declared twice", f"rel {r.name}"))
        seen.add(r.name)

    if theory.fragment is Fragment.PROP:
        if theory.sorts:
            out.append(Diagnostic("fragment-violation", "PROP theory declares sorts", "sorts"))
        if theory.functions:
            out.append(Diagnostic("fragment-violation", "PROP theory declares function symbols", "ops"))
        if theory.rewrites:
            out.append(Diagnostic("fragment-violation", "PROP theory declares rewrite rules", "rewrites"))
    else:
        if theory.relations:
            out.append(Diagnostic("fragment-violation", "EQ theory declares relation symbols", "rels"))

    for i, ax in enumerate(theory.axioms):
        span = theory.axiom_spans[i] if i < len(theory.axiom_spans) else None
        path = f"axiom[{i}]"
        out.extend(_diagnose_formula(theory, ax, path, span, top_level=True))

    for i, rule in enumerate(theory.rewrites):
        path = f"rewrite[{i}]"
        out.extend(_diagnose_rewrite(theory, rule, path))

    return out


def _diagnose_formula(theory, formula, path, span, top_level=False) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    prop = theory.fragment is Fragment.PROP
    if prop and isinstance(formula, Equation):
        return [Diagnostic("fragment-violation", "equation in a PROP theory", path, span)]
    if not prop and top_level and not isinstance(formula, Equation):
        return [Diagnostic("fragment-violation", "EQ axioms must be bare equations", path, span)]

    if isinstance(formula, (Top, Bottom)):
        return out
    if isinstance(formula, Atom):
        if formula.symbol not in theory.relations:
            out.append(Diagnostic("unknown-symbol", f"undeclared relation {formula.symbol.name}", path, span))
        return out
    if isinstance(formula, Equation):
        out.extend(_conflict_diagnostics(formula, path=path, span=span))
        out.extend(_diagnose_term(theory, formula.lhs, None, f"{path}/lhs", span))
        out.extend(_diagnose_term(theory, formula.rhs, None, f"{path}/rhs", span))
        if not out:
            ls, rs = _term_sort_shallow(formula.lhs), _term_sort_shallow(formula.rhs)
            if ls != rs:
                out.append(
                    Diagnostic("sort-mismatch", f"equation sides have sorts {ls.name} and {rs.name}", path, span)
                )
        return out
    if isinstance(formula, Not):
        return _diagnose_formula(theory, formula.operand, f"{path}/not", span)
    if isinstance(formula, (And, Or, Implies)):
        kind = type(formula).__name__.lower()
        out.extend(_diagnose_formula(theory, formula.lhs, f"{path}/{kind}[0]", span))
        out.extend(_diagnose_formula(theory, formula.rhs, f"{path}/{kind}[1]", span))
        return out
    return [Diagnostic("unknown-symbol", f"unrecognized formula node {formula!r}", path, span)]


def _conflict_diagnostics(*parts, path, span) -> list[Diagnostic]:
    # a variable has one sort across an equation or a rewrite rule
    return [
        Diagnostic("sort-mismatch", f"variable {name} used at two different sorts", path, span)
        for name in sort_conflicts(*parts)
    ]


def _diagnose_term(theory, term, expected: Sort | None, path, span) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if isinstance(term, Variable):
        if term.sort not in theory.sorts:
            out.append(Diagnostic("unknown-symbol", f"variable {term.name} has undeclared sort", path, span))
        if expected is not None and term.sort != expected:
            out.append(
                Diagnostic(
                    "sort-mismatch",
                    f"{term.name} has sort {term.sort.name}, expected {expected.name}",
                    path,
                    span,
                )
            )
        return out
    if isinstance(term, App):
        sym = term.symbol
        if sym not in theory.functions:
            return [Diagnostic("unknown-symbol", f"undeclared op {sym.name}", path, span)]
        if len(term.args) != sym.arity:
            return [
                Diagnostic(
                    "arity-mismatch",
                    f"{sym.name} expects {sym.arity} argument(s), got {len(term.args)}",
                    path,
                    span,
                )
            ]
        if expected is not None and sym.codomain != expected:
            out.append(
                Diagnostic(
                    "sort-mismatch",
                    f"{sym.name} returns {sym.codomain.name}, expected {expected.name}",
                    path,
                    span,
                )
            )
        for j, (arg, want) in enumerate(zip(term.args, sym.domain)):
            out.extend(_diagnose_term(theory, arg, want, f"{path}/arg[{j}]", span))
        return out
    return [Diagnostic("unknown-symbol", f"unrecognized term node {term!r}", path, span)]


def _diagnose_rewrite(theory, rule, path) -> list[Diagnostic]:
    out = _conflict_diagnostics(rule.lhs, rule.rhs, path=path, span=None)
    out += _diagnose_term(theory, rule.lhs, None, f"{path}/lhs", None)
    out += _diagnose_term(theory, rule.rhs, None, f"{path}/rhs", None)
    if not out:
        extra = free_vars(rule.rhs) - free_vars(rule.lhs)
        if extra:
            names = ", ".join(sorted(v.name for v in extra))
            out.append(Diagnostic("unknown-symbol", f"rewrite rhs introduces variables: {names}", path))
        ls, rs = _term_sort_shallow(rule.lhs), _term_sort_shallow(rule.rhs)
        if ls != rs:
            out.append(Diagnostic("sort-mismatch", f"rewrite sides have sorts {ls.name} and {rs.name}", path))
    return out


def check_well_formed(theory: Theory) -> Theory:
    """Validate a theory; returns it unchanged or raises InvalidTheoryError.

    Idempotent: a pass is kept in the theory's memo, so a valid theory is
    diagnosed once; an invalid one is diagnosed, and raises, on every call.
    """
    if "well_formed" not in theory._memo:
        diagnostics = diagnose(theory)
        if diagnostics:
            raise InvalidTheoryError(diagnostics)
        theory._memo["well_formed"] = True
    return theory
