"""Syntactic categories.

For a propositional theory the syntactic category is its Lindenbaum algebra
viewed as a poset category: objects are algebra elements, with one morphism
a -> b exactly when a <= b.

For an equational theory the objects are contexts of typed variables and the
morphisms are tuples of terms over the source context, one per target
variable, identified when their normal forms agree. Hom-sets are infinite in
general, so all enumerations take an explicit depth bound and are
truncations, never the full hom-set.

Morphism equality needs a decision procedure for provable equality of terms.
Two are supported: theories whose five axioms present a group (any symbol
names) get the built-in free-group word normalizer, where the *depth bound
counts reduced-word letters*; other equational theories must declare a
terminating confluent rewrite system in the DSL (`rewrite lhs -> rhs;`),
and bounds count tree depth.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable

from . import _core
from .boolalg import lindenbaum_algebra
from .errors import CapacityExceededError, FragmentViolationError, NoNormalizerError
from .kernel import (
    App,
    Equation,
    Fragment,
    FunctionSymbol,
    Sort,
    Term,
    Theory,
    Variable,
    check_well_formed,
    free_vars,
    substitute,
)

_REWRITE_STEP_CAP = 100_000
# largest hom-set syn_eq materialises: depth 6 of a group, 1,457**2 tuples
# for a two-variable context, fits; depth 7, 4,373**2, does not
SYN_HOM_BOUND = 2**22


# ---------------------------------------------------------------------------
# Group-presentation detection


@dataclass(frozen=True)
class GroupSignature:
    sort: Sort
    mul: FunctionSymbol
    inv: FunctionSymbol
    unit: FunctionSymbol


def _canon_term(t: Term, naming: dict[str, str]):
    if isinstance(t, Variable):
        if t.name not in naming:
            naming[t.name] = f"v{len(naming)}"
        return ("var", naming[t.name])
    return ("app", t.symbol.name, tuple(_canon_term(a, naming) for a in t.args))


def _canon_equation(eq: Equation):
    def oriented(l: Term, r: Term):
        naming: dict[str, str] = {}
        return (_canon_term(l, naming), _canon_term(r, naming))

    return min(oriented(eq.lhs, eq.rhs), oriented(eq.rhs, eq.lhs))


def detect_group_presentation(theory: Theory) -> GroupSignature | None:
    """Match the two-sided group axioms structurally, up to symbol and
    variable names, equation orientation, and axiom order."""
    if theory.fragment is not Fragment.EQ or len(theory.sorts) != 1:
        return None
    by_arity: dict[int, list[FunctionSymbol]] = {0: [], 1: [], 2: []}
    for f in theory.functions:
        if f.arity not in by_arity:
            return None
        by_arity[f.arity].append(f)
    if any(len(v) != 1 for v in by_arity.values()):
        return None
    (unit,), (inv,), (mul,) = by_arity[0], by_arity[1], by_arity[2]
    sort = theory.sorts[0]
    a, b, c = (Variable(n, sort) for n in ("a", "b", "c"))
    e = App(unit)
    expected = [
        Equation(App(mul, (a, App(mul, (b, c)))), App(mul, (App(mul, (a, b)), c))),
        Equation(App(mul, (a, e)), a),
        Equation(App(mul, (e, a)), a),
        Equation(App(mul, (a, App(inv, (a,)))), e),
        Equation(App(mul, (App(inv, (a,)), a)), e),
    ]
    if len(theory.axioms) != 5 or not all(isinstance(ax, Equation) for ax in theory.axioms):
        return None
    got = {_canon_equation(ax) for ax in theory.axioms}
    want = {_canon_equation(ax) for ax in expected}
    if got != want:
        return None
    return GroupSignature(sort, mul, inv, unit)


# ---------------------------------------------------------------------------
# Free-group words


def word_of_term(term: Term, sig: GroupSignature, gen_index: dict[str, int]) -> tuple[int, ...]:
    """Flatten a group term to a reduced word; letter g is generator g-1,
    letter -g its inverse. Inverses of products distribute and reverse."""

    def flat(t: Term) -> list[int]:
        if isinstance(t, Variable):
            return [gen_index[t.name] + 1]
        if t.symbol == sig.unit:
            return []
        if t.symbol == sig.inv:
            return [-l for l in reversed(flat(t.args[0]))]
        if t.symbol == sig.mul:
            return flat(t.args[0]) + flat(t.args[1])
        raise NoNormalizerError(f"symbol {t.symbol.name} is outside the group signature")

    return _core.reduce_word(flat(term))


def term_of_word(word: Iterable[int], sig: GroupSignature, generators: list[Variable]) -> Term:
    """Rebuild the canonical term of a reduced word: the unit for the empty
    word, else a right-nested product of generators and inverted generators."""

    def letter(l: int) -> Term:
        v = generators[abs(l) - 1]
        return v if l > 0 else App(sig.inv, (v,))

    word = tuple(word)
    if not word:
        return App(sig.unit)
    out = letter(word[-1])
    for l in reversed(word[:-1]):
        out = App(sig.mul, (letter(l), out))
    return out


def reduced_words(n_generators: int, max_letters: int) -> list[tuple[int, ...]]:
    """All reduced words of length <= max_letters, shortest first, then in
    letter-rank order (+1 < -1 < +2 < -2 < ...)."""
    letters = [s * g for g in range(1, n_generators + 1) for s in (1, -1)]
    out: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_letters):
        step: list[tuple[int, ...]] = []
        for w in frontier:
            for l in letters:
                if w and w[-1] == -l:
                    continue
                step.append(w + (l,))
        frontier = step
        out.extend(step)
    return out


# ---------------------------------------------------------------------------
# Rewrite-system normalization


def _match(pattern: Term, term: Term, binding: dict[Variable, Term]) -> bool:
    if isinstance(pattern, Variable):
        bound = binding.get(pattern)
        if bound is None:
            binding[pattern] = term
            return True
        return bound == term
    if isinstance(term, Variable) or pattern.symbol != term.symbol:
        return False
    return all(_match(p, t, binding) for p, t in zip(pattern.args, term.args))


def _rewrite_once(term: Term, rules) -> Term | None:
    # innermost first, leftmost argument first, first matching rule wins
    if isinstance(term, App):
        for i, arg in enumerate(term.args):
            done = _rewrite_once(arg, rules)
            if done is not None:
                args = list(term.args)
                args[i] = done
                return App(term.symbol, tuple(args))
    for rule in rules:
        binding: dict[Variable, Term] = {}
        if _match(rule.lhs, term, binding):
            return substitute(rule.rhs, binding)
    return None


def rewrite_normal_form(term: Term, rules) -> Term:
    for _ in range(_REWRITE_STEP_CAP):
        nxt = _rewrite_once(term, rules)
        if nxt is None:
            return term
        term = nxt
    raise CapacityExceededError(f"rewriting did not terminate within {_REWRITE_STEP_CAP} steps")


# ---------------------------------------------------------------------------
# The normalize operation


def _normalizer(theory: Theory, sig: GroupSignature | None) -> Callable[[Term], Term]:
    """The theory's normal-form function: the free-group word decision when
    sig is its detected group signature, else its rewrite system."""
    if sig is not None:

        def by_words(term: Term) -> Term:
            names = sorted({v.name for v in free_vars(term)})
            generators = [Variable(n, sig.sort) for n in names]
            word = word_of_term(term, sig, {n: i for i, n in enumerate(names)})
            return term_of_word(word, sig, generators)

        return by_words
    rules = theory.rewrites
    if rules:
        # binds the rules, not the theory: the theory's memo keeps this
        # function, and capturing the theory would make a reference cycle
        return lambda term: rewrite_normal_form(term, rules)
    raise NoNormalizerError(
        f"theory {theory.name} is not a group presentation and declares no rewrite system"
    )


def _prepared(theory: Theory) -> tuple[GroupSignature | None, Callable[[Term], Term]]:
    """The theory's group signature (or None) and normal-form function,
    derived on first use and kept in the theory's memo."""
    memo = theory._memo
    if "normal" not in memo:
        sig = detect_group_presentation(theory)
        memo["normal"] = (sig, _normalizer(theory, sig))
    return memo["normal"]


def normalize(theory: Theory, term: Term) -> Term:
    """Unique normal form of a term under the theory's decision procedure.

    Idempotent; terms provably equal under the axioms share a normal form
    (for a group presentation this is the free-group word decision).
    """
    return _prepared(theory)[1](term)


# ---------------------------------------------------------------------------
# Categories


@dataclass(frozen=True)
class Context:
    """Variable context Gamma: distinct variables, each at its sort."""

    variables: tuple[Variable, ...]

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("context variable names must be distinct")

    def __str__(self) -> str:
        inner = ", ".join(f"{v.name}:{v.sort.name}" for v in self.variables)
        return f"[{inner}]"


@dataclass(frozen=True)
class SynMorphism:
    """Substitution tuple: one source-context term per target variable."""

    source: Context
    target: Context
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.target.variables):
            raise ValueError("one term per target variable required")


@dataclass(frozen=True)
class PosetArrow:
    """The unique morphism a -> b of a poset category, when a <= b."""

    source: int
    target: int


@dataclass
class SynCategory:
    """A small category presentation with a decidable morphism equality.

    `hom` enumerates (a truncation of) the morphisms between two objects and
    `compose(g, f)` is g after f. Morphisms are kept in normal form, so `==`
    decides their equality. The callables are plain data so tests can swap
    in deliberately broken ones.
    """

    theory: Theory
    kind: str
    objects: tuple
    hom: Callable
    compose: Callable
    identity: Callable
    random_object: Callable
    random_morphism: Callable
    count_morphisms: Callable | None = None

    def morphism_count(self) -> int:
        if self.count_morphisms is not None:
            return self.count_morphisms()
        return sum(len(self.hom(a, b)) for a in self.objects for b in self.objects)


def syn_prop(theory: Theory) -> SynCategory:
    """Lindenbaum poset category: at most one morphism a -> b, iff a <= b."""
    if theory.fragment is not Fragment.PROP:
        raise FragmentViolationError(f"theory {theory.name} is not propositional")
    lin = lindenbaum_algebra(theory)
    alg = lin.algebra
    objects = tuple(alg.elements())

    def hom(a: int, b: int):
        return (PosetArrow(a, b),) if alg.leq(a, b) else ()

    def compose(g: PosetArrow, f: PosetArrow) -> PosetArrow:
        if f.target != g.source:
            raise ValueError("arrows not composable")
        return PosetArrow(f.source, g.target)

    def identity(a: int) -> PosetArrow:
        return PosetArrow(a, a)

    def random_object(rng: random.Random) -> int:
        return rng.choice(objects)

    def random_morphism(rng: random.Random, a: int, b: int):
        arrows = hom(a, b)
        return arrows[0] if arrows else None

    return SynCategory(
        theory=theory,
        kind="prop-poset",
        objects=objects,
        hom=hom,
        compose=compose,
        identity=identity,
        random_object=random_object,
        random_morphism=random_morphism,
        # pairs a <= b in the powerset of n atoms: each atom is in neither,
        # the upper set only, or both
        count_morphisms=lambda: 3**alg.atom_count,
    )


def syn_eq(theory: Theory, depth_bound: int, max_context_size: int = 2) -> SynCategory:
    """Category of variable contexts for an equational theory.

    Objects are contexts with at most max_context_size variables; hom-set
    enumeration truncates at depth_bound (word letters for group theories,
    tree depth otherwise). Composition substitutes and renormalizes, so it is
    total even beyond the truncation. `hom` raises CapacityExceededError
    rather than build a hom-set of more than SYN_HOM_BOUND morphisms.
    """
    if theory.fragment is not Fragment.EQ:
        raise FragmentViolationError(f"theory {theory.name} is not equational")
    check_well_formed(theory)
    sig, norm = _prepared(theory)

    objects = []
    for size in range(max_context_size + 1):
        for sorts in product(theory.sorts, repeat=size):
            objects.append(Context(tuple(Variable(f"x{i + 1}", s) for i, s in enumerate(sorts))))
    objects = tuple(objects)

    def candidate_terms(ctx: Context, sort: Sort) -> list[Term]:
        if sig is not None:
            gens = [v for v in ctx.variables]  # single-sorted by detection
            return [term_of_word(w, sig, gens) for w in reduced_words(len(gens), depth_bound)]
        return _terms_to_depth(theory, norm, ctx.variables, sort, depth_bound)

    hom_cache: dict[tuple[Context, Context], tuple] = {}

    def hom(a: Context, b: Context):
        key = (a, b)
        if key not in hom_cache:
            pools = [candidate_terms(a, v.sort) for v in b.variables]
            count = math.prod(map(len, pools))
            if count > SYN_HOM_BOUND:
                raise CapacityExceededError(
                    f"hom {a} -> {b} has {count} morphisms at depth {depth_bound},"
                    f" past the bound {SYN_HOM_BOUND}"
                )
            hom_cache[key] = tuple(
                SynMorphism(a, b, terms) for terms in product(*pools)
            )
        return hom_cache[key]

    def compose(g: SynMorphism, f: SynMorphism) -> SynMorphism:
        if f.target != g.source:
            raise ValueError("morphisms not composable")
        mapping = dict(zip(g.source.variables, f.terms))
        terms = tuple(norm(substitute(t, mapping)) for t in g.terms)
        return SynMorphism(f.source, g.target, terms)

    def identity(ctx: Context) -> SynMorphism:
        return SynMorphism(ctx, ctx, tuple(norm(v) for v in ctx.variables))

    def random_object(rng: random.Random) -> Context:
        return rng.choice(objects)

    def random_morphism(rng: random.Random, a: Context, b: Context):
        arrows = hom(a, b)
        return rng.choice(arrows) if arrows else None

    return SynCategory(
        theory=theory,
        kind="eq-contexts",
        objects=objects,
        hom=hom,
        compose=compose,
        identity=identity,
        random_object=random_object,
        random_morphism=random_morphism,
    )


def _terms_to_depth(theory: Theory, norm, variables, sort: Sort, depth: int) -> list[Term]:
    """Normal forms of all terms of tree depth <= depth at the given sort."""
    by_depth: dict[int, dict[Sort, list[Term]]] = {}
    level0: dict[Sort, list[Term]] = {s: [] for s in theory.sorts}
    for v in variables:
        level0[v.sort].append(v)
    for f in theory.functions:
        if f.arity == 0:
            level0[f.codomain].append(App(f))
    by_depth[0] = level0
    for d in range(1, depth + 1):
        prev = by_depth[d - 1]
        level = {s: list(prev[s]) for s in theory.sorts}
        for f in theory.functions:
            if f.arity == 0:
                continue
            pools = [prev[s] for s in f.domain]
            for args in product(*pools):
                # rebuilds some smaller-depth terms; the normal-form dedupe
                # below absorbs them
                level[f.codomain].append(App(f, args))
        by_depth[d] = level
    seen: set[Term] = set()
    out: list[Term] = []
    for t in by_depth[depth][sort]:
        nf = norm(t)
        if nf not in seen:
            seen.add(nf)
            out.append(nf)
    return out


@dataclass
class LawReport:
    """Outcome of a category-law check: counts and verbatim counterexamples."""

    identity_checked: int = 0
    associativity_checked: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def check_category_laws(cat: SynCategory, sample: int, seed: int = 0) -> LawReport:
    """Spot-check identity neutrality and associativity on random data.

    Composable triples are drawn through the category's own random-morphism
    hooks; failures are reported verbatim so they can be replayed.
    """
    rng = random.Random(seed)
    report = LawReport()

    attempts = 0
    while report.identity_checked < sample and attempts < sample * 20:
        attempts += 1
        a = cat.random_object(rng)
        b = cat.random_object(rng)
        f = cat.random_morphism(rng, a, b)
        if f is None:
            continue
        left = cat.compose(cat.identity(b), f)
        right = cat.compose(f, cat.identity(a))
        if not (left == f and right == f):
            report.counterexamples.append(("identity", f, left, right))
        report.identity_checked += 1

    attempts = 0
    while report.associativity_checked < sample and attempts < sample * 20:
        attempts += 1
        a, b, c, d = (cat.random_object(rng) for _ in range(4))
        f = cat.random_morphism(rng, a, b)
        g = cat.random_morphism(rng, b, c)
        h = cat.random_morphism(rng, c, d)
        if f is None or g is None or h is None:
            continue
        left = cat.compose(h, cat.compose(g, f))
        right = cat.compose(cat.compose(h, g), f)
        if left != right:
            report.counterexamples.append(("associativity", f, g, h, left, right))
        report.associativity_checked += 1

    return report
