"""Finite SET-realizations: model checking, exhaustive enumeration, model
homomorphisms, models as functors, and the homomorphism / natural
transformation correspondence.

Models live on canonical labelled carriers {0, ..., n-1}; isomorphic models
with different labellings are counted separately, which keeps every count
reproducible by brute force.

Enumeration has two code paths. `prune=False` is the oracle: a raw scan of
the full operation-table space (rejected above 10**9 candidates).
`prune=True` walks the same space as a backtracking search that checks axiom
instances as soon as their cells fill in; both paths emit the identical
canonical order (ascending lexicographic in the concatenated tables). Both
run in the `_core` table kernels on the axioms' postfix bytecode; the pure
kernels specialise it to Python source once per call, and the interpreters
they replaced are kept in tests/reference_kernels.py as the reference.
Every sort gets the same carrier size, so the kernels need only each
symbol's arity, and multi-sorted theories take the same two paths. Neither
kernel has a node or result budget yet, so multi-sorted theories keep the
raw-scan bound whatever `prune` says: under the search bound a two-sort
search such as `g(f(x, y)) = x` at size 4 (4**20 candidates) does not
finish in two minutes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from . import _core
from .boolalg import eval_formula, letter_shifts, letter_values, satisfying_assignments
from .errors import CapacityExceededError, SignatureMismatchError
from .kernel import (
    Equation,
    Fragment,
    FunctionSymbol,
    Term,
    Theory,
    Variable,
    check_well_formed,
    free_vars,
)
from .syncat import Context, SynCategory, SynMorphism, syn_eq

NAIVE_CANDIDATE_BOUND = 10**9
SEARCH_CANDIDATE_BOUND = 10**18
HOM_CANDIDATE_BOUND = 10**7


@dataclass(frozen=True)
class FiniteModel:
    """Carriers plus one total operation table per function symbol.

    `sizes` aligns with theory.sorts; tables are flat row-major over the
    argument tuple. PROP models carry one truth value per sorted letter
    instead.
    """

    theory: Theory
    sizes: tuple[int, ...] = ()
    tables: tuple[tuple[int, ...], ...] = ()
    letter_values: tuple[int, ...] = ()

    def size_of(self, sort) -> int:
        return self.sizes[self.theory.sorts.index(sort)]

    def carrier(self, sort) -> range:
        return range(self.size_of(sort))

    def table(self, name: str) -> tuple[int, ...]:
        for f, tab in zip(self.theory.functions, self.tables):
            if f.name == name:
                return tab
        raise KeyError(name)

    def apply(self, symbol: FunctionSymbol, args: tuple[int, ...]) -> int:
        tab = self.tables[self.theory.functions.index(symbol)]
        idx = 0
        for a, s in zip(args, symbol.domain):
            idx = idx * self.size_of(s) + a
        return tab[idx]

    def describe(self) -> dict:
        if self.theory.fragment is Fragment.PROP:
            return {"letters": dict(zip(self.theory.letters, self.letter_values))}
        return {
            "sizes": dict(zip((s.name for s in self.theory.sorts), self.sizes)),
            "tables": {f.name: list(t) for f, t in zip(self.theory.functions, self.tables)},
        }


def eval_term(model: FiniteModel, term: Term, env: dict[Variable, int]) -> int:
    if isinstance(term, Variable):
        return env[term]
    return model.apply(term.symbol, tuple(eval_term(model, a, env) for a in term.args))


def check_model(theory: Theory, model: FiniteModel) -> bool:
    """Exhaustively evaluate every axiom under every environment."""
    if model.theory != theory:
        raise SignatureMismatchError("model was built for a different theory")
    if theory.fragment is Fragment.PROP:
        letters, values = theory.letters, model.letter_values
        if len(values) != len(letters):
            raise ValueError("letters and values differ in length")
        shifts = letter_shifts(letters)
        mask = sum(v << shifts[l] for l, v in zip(letters, values))
        return all(eval_formula(ax, mask, shifts) for ax in theory.axioms)
    for ax in theory.axioms:
        assert isinstance(ax, Equation)
        variables = sorted(free_vars(ax), key=lambda v: v.name)
        pools = [model.carrier(v.sort) for v in variables]
        for values in product(*pools):
            env = dict(zip(variables, values))
            if eval_term(model, ax.lhs, env) != eval_term(model, ax.rhs, env):
                return False
    return True


# ---------------------------------------------------------------------------
# Enumeration


def _compile_axioms(theory: Theory) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Postfix bytecode per axiom for the backend kernels."""
    sym_index = {f.name: i for i, f in enumerate(theory.functions)}
    compiled = []
    for ax in theory.axioms:
        variables = sorted(free_vars(ax), key=lambda v: v.name)
        var_index = {v: i for i, v in enumerate(variables)}

        def emit(term: Term, out: list[int]) -> None:
            if isinstance(term, Variable):
                out.append(var_index[term])
            else:
                for a in term.args:
                    emit(a, out)
                out.append(-(sym_index[term.symbol.name] + 1))

        lhs: list[int] = []
        rhs: list[int] = []
        emit(ax.lhs, lhs)
        emit(ax.rhs, rhs)
        compiled.append((len(variables), tuple(lhs), tuple(rhs)))
    return compiled


def _power_exceeds(base: int, exponent: int, bound: int) -> bool:
    """Whether base**exponent > bound, without building a huge power: for
    base >= 2 the product passes the bound within log2(bound) + 1 factors."""
    if base < 2:
        return base**exponent > bound  # 0 or 1
    value = 1
    for _ in range(exponent):
        value *= base
        if value > bound:
            return True
    return False


def enumerate_models(theory: Theory, size: int, prune: bool = True) -> list[FiniteModel]:
    """All models on the labelled carrier {0, ..., size-1}, canonical order.

    PROP theories ignore `size` and return one model per satisfying
    assignment. For EQ theories `prune=False` is the independent raw-scan
    oracle and `prune=True` the axiom-driven backtracking search; the output
    lists are identical.
    """
    check_well_formed(theory)
    if size < 0:
        raise ValueError("size must be nonnegative")
    if theory.fragment is Fragment.PROP:
        n, found = len(theory.letters), satisfying_assignments(theory)
        return [FiniteModel(theory, letter_values=letter_values(m, n)) for m in found]

    cells = [size**f.arity for f in theory.functions]
    total_cells = sum(cells)
    bound = SEARCH_CANDIDATE_BOUND if prune and len(theory.sorts) == 1 else NAIVE_CANDIDATE_BOUND
    if _power_exceeds(size, total_cells, bound):
        raise CapacityExceededError(
            f"table space of {size}**{total_cells} candidates exceeds the bound {bound}"
        )

    kernel = _core.search_tables if prune else _core.scan_tables
    flats = kernel(size, [f.arity for f in theory.functions], _compile_axioms(theory))
    sizes = tuple(size for _ in theory.sorts)
    models = []
    for flat in flats:
        tables = []
        pos = 0
        for count in cells:
            tables.append(tuple(flat[pos : pos + count]))
            pos += count
        models.append(FiniteModel(theory, sizes, tuple(tables)))
    return models


# ---------------------------------------------------------------------------
# Homomorphisms


@dataclass(frozen=True)
class ModelHomomorphism:
    """Sort-indexed component functions commuting with every operation."""

    source: FiniteModel
    target: FiniteModel
    components: tuple[tuple[int, ...], ...]

    def component(self, sort) -> tuple[int, ...]:
        return self.components[self.source.theory.sorts.index(sort)]

    def apply(self, sort, value: int) -> int:
        return self.component(sort)[value]

    def compose(self, other: "ModelHomomorphism") -> "ModelHomomorphism":
        """self after other."""
        if other.target != self.source:
            raise ValueError("homomorphisms not composable")
        comps = tuple(
            tuple(mine[v] for v in theirs)
            for mine, theirs in zip(self.components, other.components)
        )
        return ModelHomomorphism(other.source, self.target, comps)

    @staticmethod
    def identity(model: FiniteModel) -> "ModelHomomorphism":
        return ModelHomomorphism(
            model, model, tuple(tuple(range(n)) for n in model.sizes)
        )


def _commutes(theory: Theory, h: ModelHomomorphism) -> bool:
    m, n = h.source, h.target
    for f in theory.functions:
        pools = [m.carrier(s) for s in f.domain]
        comp_out = h.component(f.codomain)
        for args in product(*pools):
            mapped = tuple(h.apply(s, a) for s, a in zip(f.domain, args))
            if comp_out[m.apply(f, args)] != n.apply(f, mapped):
                return False
    return True


def enumerate_homs(m: FiniteModel, n: FiniteModel) -> list[ModelHomomorphism]:
    """All homomorphisms m -> n, exhaustively, in lexicographic order.

    PROP models form a discrete category: the only homomorphism is the
    identity of a model with itself.
    """
    if m.theory != n.theory:
        raise SignatureMismatchError("models belong to different theories")
    theory = m.theory
    if theory.fragment is Fragment.PROP:
        return [ModelHomomorphism(m, n, ())] if m == n else []
    spaces = []
    count = 1
    for ms, ns in zip(m.sizes, n.sizes):
        count *= ns**ms
        spaces.append(list(product(range(ns), repeat=ms)))
    if count > HOM_CANDIDATE_BOUND:
        raise CapacityExceededError(f"{count} candidate maps exceed the bound")
    out = []
    for components in product(*spaces):
        h = ModelHomomorphism(m, n, components)
        if _commutes(theory, h):
            out.append(h)
    return out


# ---------------------------------------------------------------------------
# Models as functors


@dataclass
class FunctorPresentation:
    """A model viewed as a product-preserving functor on the context category.

    Contexts go to cartesian powers of the carrier; a substitution tuple goes
    to the evaluation function between those powers.
    """

    model: FiniteModel
    category: SynCategory

    def object_image(self, ctx: Context) -> list[tuple[int, ...]]:
        pools = [self.model.carrier(v.sort) for v in ctx.variables]
        return list(product(*pools))

    def morphism_image(self, mor: SynMorphism) -> dict[tuple[int, ...], tuple[int, ...]]:
        out = {}
        for point in self.object_image(mor.source):
            env = dict(zip(mor.source.variables, point))
            out[point] = tuple(eval_term(self.model, t, env) for t in mor.terms)
        return out

    def verify(self, samples: int = 50, seed: int = 0) -> bool:
        """Functor laws on identities (all objects) and sampled composites."""
        cat = self.category
        for ctx in cat.objects:
            image = self.morphism_image(cat.identity(ctx))
            if any(k != v for k, v in image.items()):
                return False
        rng = random.Random(seed)
        done = 0
        attempts = 0
        while done < samples and attempts < samples * 20:
            attempts += 1
            a, b, c = (cat.random_object(rng) for _ in range(3))
            f = cat.random_morphism(rng, a, b)
            g = cat.random_morphism(rng, b, c)
            if f is None or g is None:
                continue
            gf = self.morphism_image(cat.compose(g, f))
            fi = self.morphism_image(f)
            gi = self.morphism_image(g)
            if any(gf[p] != gi[fi[p]] for p in fi):
                return False
            done += 1
        return True


def model_as_functor(m: FiniteModel, c: SynCategory) -> FunctorPresentation:
    if c.theory != m.theory:
        raise SignatureMismatchError("category and model present different theories")
    return FunctorPresentation(m, c)


# ---------------------------------------------------------------------------
# Homomorphisms vs natural transformations


@dataclass
class CorrespondenceReport:
    """Outcome of the hom / natural-transformation comparison.

    `pairs` matches each homomorphism (by index) with the natural family it
    induces (by index in the independently enumerated list).
    """

    hom_count: int
    natural_count: int
    pairs: list[tuple[int, int]]
    depth: int
    morphisms_checked: int
    note: str = ""

    @property
    def bijective(self) -> bool:
        return (
            self.hom_count == self.natural_count
            and len(self.pairs) == self.hom_count
            and len({j for _, j in self.pairs}) == self.hom_count
        )


def homs_equal_nat_trans(m: FiniteModel, n: FiniteModel, depth: int) -> CorrespondenceReport:
    """Exhibit the bijection between model homomorphisms and natural families.

    The two sides are enumerated independently: homomorphisms by commuting
    with the operation tables, natural families by checking naturality of a
    single-variable component against every generating morphism (contexts of
    at most two variables, terms truncated at `depth`). Components on larger
    contexts are the pointwise powers, which naturality against projections
    forces; naturality for generators extends to their composites because
    the functor images compose.
    """
    if m.theory != n.theory:
        raise SignatureMismatchError("models belong to different theories")
    theory = m.theory
    if len(theory.sorts) != 1:
        raise SignatureMismatchError("the correspondence check needs a single-sorted theory")
    cat = syn_eq(theory, depth)
    fm = FunctorPresentation(m, cat)
    fn = FunctorPresentation(n, cat)
    m_size, n_size = m.sizes[0], n.sizes[0]

    # naturality against tuple morphisms holds componentwise, so morphisms
    # into one-variable contexts generate all the conditions
    generating = []
    for a in cat.objects:
        for b in cat.objects:
            if len(b.variables) != 1:
                continue
            for mor in cat.hom(a, b):
                generating.append((fm.morphism_image(mor), fn.morphism_image(mor)))

    naturals: list[tuple[int, ...]] = []
    for alpha in product(range(n_size), repeat=m_size):
        ok = True
        for fi, gi in generating:
            for point, image in fi.items():
                lifted = tuple(alpha[v] for v in point)
                if (alpha[image[0]],) != gi[lifted]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            naturals.append(alpha)

    homs = enumerate_homs(m, n)
    pairs = []
    for i, h in enumerate(homs):
        component = h.components[0]
        if component in naturals:
            pairs.append((i, naturals.index(component)))

    return CorrespondenceReport(
        hom_count=len(homs),
        natural_count=len(naturals),
        pairs=pairs,
        depth=depth,
        morphisms_checked=len(generating),
        note=(
            "components on k-variable contexts are pointwise powers (forced by "
            "naturality at projections) and tuple morphisms hold componentwise; "
            "generators checked up to the stated depth, composites follow by "
            "functoriality"
        ),
    )


# ---------------------------------------------------------------------------
# The category of realizations


@dataclass
class CategoryPresentation:
    """Objects, a full hom table, and replayable law-check evidence."""

    theory: Theory
    objects: list[FiniteModel]
    hom_table: dict[tuple[int, int], list[ModelHomomorphism]]
    law_failures: list = field(default_factory=list)

    @property
    def laws_hold(self) -> bool:
        return not self.law_failures

    def hom_counts(self) -> dict[tuple[int, int], int]:
        return {k: len(v) for k, v in self.hom_table.items()}


def real_category(theory: Theory, max_size: int) -> CategoryPresentation:
    """All models of carrier size <= max_size with all homomorphisms.

    PROP models form a discrete category (identity morphisms only). Identity
    and composition-closure laws are verified on the enumerated homs.
    """
    check_well_formed(theory)
    objects: list[FiniteModel] = []
    if theory.fragment is Fragment.PROP:
        if max_size > 0:
            objects = enumerate_models(theory, 0)
    else:
        for size in range(max_size + 1):
            objects.extend(enumerate_models(theory, size))
    hom_table: dict[tuple[int, int], list[ModelHomomorphism]] = {}
    for i, a in enumerate(objects):
        for j, b in enumerate(objects):
            hom_table[(i, j)] = enumerate_homs(a, b)

    failures = []
    for i, a in enumerate(objects):
        if ModelHomomorphism.identity(a) not in hom_table[(i, i)]:
            failures.append(("missing-identity", i))
    for (i, j), fs in hom_table.items():
        for (j2, k), gs in hom_table.items():
            if j2 != j:
                continue
            for f in fs:
                for g in gs:
                    if g.compose(f) not in hom_table[(i, k)]:
                        failures.append(("composition-escapes", i, j, k))
    return CategoryPresentation(theory, objects, hom_table, failures)
