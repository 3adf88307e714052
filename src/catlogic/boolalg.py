"""Finite Boolean algebras: the Lindenbaum quotient of a propositional
theory, free algebras, entailment, and homomorphism enumeration.

An algebra with n atoms is represented as the powerset of its atom set;
elements are n-bit masks, join is bitwise or, meet bitwise and, complement
bitwise xor with the full mask. All Boolean-algebra laws hold by
construction, and equality of elements is integer equality. Atom order is
canonical (for Lindenbaum algebras: lexicographic on truth assignments), so
every enumeration below is deterministic.

A model of a propositional theory on n letters is an int: bit n-1-i holds
letter i of theory.letters. Read as an n-digit binary numeral, its digits
are the letters' values in letter order, so counting through range(2**n)
walks the assignments in lexicographic order and the Lindenbaum atoms keep
that order. Callers decode a model with letter_values.

Homomorphisms are encoded dually by their atom maps: a hom B -> C is the
function atoms(C) -> atoms(B) sending each target atom to the unique source
atom whose image lies above it. Composition of homs composes atom maps
contravariantly, and enumeration of all homs is enumeration of all such
functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product
from typing import Iterable, Iterator

from . import _core
from .errors import CapacityExceededError, FragmentViolationError, UnknownSymbolError
from .kernel import (
    And,
    Atom,
    Bottom,
    Equation,
    Formula,
    Fragment,
    Implies,
    Not,
    Or,
    RelationSymbol,
    Theory,
    Top,
    check_well_formed,
)

DEFAULT_ATOM_BOUND = 20
HOM_BOUND = 1_000_000


@dataclass(frozen=True)
class FiniteBooleanAlgebra:
    """Powerset algebra on atom_count atoms; elements are bit masks."""

    atom_count: int
    atom_labels: tuple = None  # type: ignore[assignment]
    # facts derived from this object (adjunction keeps lang(B), the canonical
    # iso and its inverse here); outside init, ==, hash and repr
    _memo: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self) -> None:
        if self.atom_count < 0:
            raise ValueError("negative atom count")
        if self.atom_labels is not None and len(self.atom_labels) != self.atom_count:
            raise ValueError("one label per atom required")

    # -- structure ---------------------------------------------------------

    @property
    def top(self) -> int:
        return (1 << self.atom_count) - 1

    @property
    def bottom(self) -> int:
        return 0

    @property
    def element_count(self) -> int:
        return 1 << self.atom_count

    def elements(self) -> range:
        return range(1 << self.atom_count)

    def atoms(self) -> Iterator[int]:
        return (1 << i for i in range(self.atom_count))

    # -- operations ---------------------------------------------------------

    def join(self, a: int, b: int) -> int:
        return a | b

    def meet(self, a: int, b: int) -> int:
        return a & b

    def complement(self, a: int) -> int:
        return self.top ^ a

    def implies(self, a: int, b: int) -> int:
        return self.complement(a) | b

    def leq(self, a: int, b: int) -> bool:
        return a | b == b

    def is_atom(self, e: int) -> bool:
        return e != 0 and e & (e - 1) == 0

    def check(self, e: int) -> int:
        if not 0 <= e < self.element_count:
            raise ValueError(f"{e} is not an element of this algebra")
        return e


@dataclass(frozen=True)
class BoolHom:
    """Boolean homomorphism, dual-encoded by its atom map.

    atom_map[j] is the source atom under target atom j; the induced element
    map sends e to the set of target atoms whose source atom lies below e.
    """

    source: FiniteBooleanAlgebra
    target: FiniteBooleanAlgebra
    atom_map: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.atom_map) != self.target.atom_count:
            raise ValueError("atom_map must cover every target atom")
        for i in self.atom_map:
            if not 0 <= i < self.source.atom_count:
                raise ValueError(f"atom index {i} outside the source algebra")

    @classmethod
    def _trusted(cls, source, target, atom_map) -> "BoolHom":
        # skips __post_init__: only for atom maps valid by construction
        h = object.__new__(cls)
        h.__dict__.update(source=source, target=target, atom_map=atom_map)
        return h

    def __call__(self, element: int) -> int:
        self.source.check(element)
        out = 0
        for j, i in enumerate(self.atom_map):
            if (element >> i) & 1:
                out |= 1 << j
        return out

    def atom_images(self) -> tuple[int, ...]:
        """Image of each source atom, read off the atom map in one pass.

        Entry i is self(1 << i): the set of target atoms mapped to atom i.
        """
        out = [0] * self.source.atom_count
        for j, i in enumerate(self.atom_map):
            out[i] |= 1 << j
        return tuple(out)

    def image_table(self) -> list[int]:
        """Image of every source element, via the backend kernel."""
        return _core.hom_image_table(self.atom_map, self.source.atom_count, self.target.atom_count)

    def compose(self, other: "BoolHom") -> "BoolHom":
        """self after other (other's target must be self's source).

        The composite of two valid homs is valid, so it is built unchecked.
        """
        if other.target is not self.source and other.target != self.source:
            raise ValueError("homs not composable")
        amap = other.atom_map
        return BoolHom._trusted(other.source, self.target, tuple([amap[j] for j in self.atom_map]))

    @staticmethod
    def identity(algebra: FiniteBooleanAlgebra) -> "BoolHom":
        return BoolHom(algebra, algebra, tuple(range(algebra.atom_count)))

    @property
    def is_isomorphism(self) -> bool:
        return (
            self.source.atom_count == self.target.atom_count
            and sorted(self.atom_map) == list(range(self.source.atom_count))
        )

    def inverse(self) -> "BoolHom":
        """The inverse isomorphism, built afresh on every call (adjunction
        keeps each canonical iso's inverse in its algebra's memo)."""
        if not self.is_isomorphism:
            raise ValueError("hom is not an isomorphism")
        inv = [0] * len(self.atom_map)
        for j, i in enumerate(self.atom_map):
            inv[i] = j
        return BoolHom._trusted(self.target, self.source, tuple(inv))


def verify_hom(h: BoolHom) -> bool:
    """Check that a hom preserves top, bottom, meet, join and complement.

    The default pass checks the backend's image table: complements
    element-wise plus atomic join decompositions, which forces pairwise
    meet/join preservation. A table that passes the join check is the join of
    its atom entries, so it still holds for a table built with the wrong atom
    images (say, permuted ones). The pass therefore also compares the table
    at each of the m source atoms with the atom images h reads off its own
    atom map in one pass (BoolHom.atom_images); agreeing there, the two agree
    on every element, which makes the check exact at O(m + k) extra cost.
    """
    img = h.image_table()
    if not _core.check_hom_table(img, h.source.atom_count, h.target.atom_count):
        return False
    for i, image in enumerate(h.atom_images()):
        if img[1 << i] != image:
            return False
    return True


# (m, k, hom_image_table, check_hom_table) of every shape whose whole atom-map
# family has passed verify_hom; shapes only, never hom lists
_VERIFIED_SHAPES: set[tuple] = set()


def enumerate_homs(B: FiniteBooleanAlgebra, C: FiniteBooleanAlgebra) -> list[BoolHom]:
    """All homomorphisms B -> C, in lexicographic atom-map order.

    There are |atoms(B)| ** |atoms(C)| of them; in particular none when B is
    degenerate and C is not. Each atom map is in range by construction, so
    the homs are built unchecked. verify_hom reads only (atom map, m, k),
    through the two backend hom kernels, so whether every map of a shape
    passes is a fact of (m, k) and the kernel pair: the first call per shape
    and pair verifies every map, raising AssertionError at the first
    failure, and later calls build the same homs without re-verifying. A
    shape past HOM_BOUND is rejected before it is recorded.
    """
    m, k = B.atom_count, C.atom_count
    count = m**k
    if count > HOM_BOUND:
        raise CapacityExceededError(f"{count} homs exceed the bound {HOM_BOUND}")
    trusted = BoolHom._trusted
    maps = product(range(m), repeat=k)
    shape = (m, k, _core.hom_image_table, _core.check_hom_table)
    if shape in _VERIFIED_SHAPES:
        return [trusted(B, C, atom_map) for atom_map in maps]
    out = []
    for atom_map in maps:
        h = trusted(B, C, atom_map)
        if not verify_hom(h):
            raise AssertionError(f"enumerated hom failed preservation: {atom_map}")
        out.append(h)
    _VERIFIED_SHAPES.add(shape)
    return out


# ---------------------------------------------------------------------------
# Lindenbaum algebras


def letter_shifts(letters: tuple[str, ...]) -> dict[str, int]:
    """Each letter's bit in a model: letter i of n sits at bit n-1-i."""
    return {letter: len(letters) - 1 - i for i, letter in enumerate(letters)}


def letter_values(model: int, count: int) -> tuple[int, ...]:
    """The 0/1 value of each of `count` letters in a model, in letter order."""
    return tuple((model >> shift) & 1 for shift in range(count - 1, -1, -1))


def eval_formula(formula: Formula, model: int, shifts: dict[str, int]) -> int:
    """Classical truth value (0/1) of a propositional formula in a model.

    Letter l is bit shifts[l] of the model (letter_shifts: letter i of n at
    bit n-1-i); a letter outside shifts raises UnknownSymbolError."""
    if isinstance(formula, Top):
        return 1
    if isinstance(formula, Bottom):
        return 0
    if isinstance(formula, Atom):
        try:
            return (model >> shifts[formula.symbol.name]) & 1
        except KeyError:
            raise UnknownSymbolError(f"letter {formula.symbol.name} not assigned") from None
    if isinstance(formula, Not):
        return 1 - eval_formula(formula.operand, model, shifts)
    if isinstance(formula, And):
        return eval_formula(formula.lhs, model, shifts) & eval_formula(formula.rhs, model, shifts)
    if isinstance(formula, Or):
        return eval_formula(formula.lhs, model, shifts) | eval_formula(formula.rhs, model, shifts)
    if isinstance(formula, Implies):
        return (1 - eval_formula(formula.lhs, model, shifts)) | eval_formula(formula.rhs, model, shifts)
    if isinstance(formula, Equation):
        raise FragmentViolationError("equation in a propositional formula")
    raise TypeError(f"not a formula: {formula!r}")


def _require_prop(theory: Theory) -> Theory:
    if theory.fragment is not Fragment.PROP:
        raise FragmentViolationError(f"theory {theory.name} is not propositional")
    return check_well_formed(theory)


def _iter_models(theory: Theory) -> Iterator[int]:
    _require_prop(theory)
    letters = theory.letters
    if len(letters) > DEFAULT_ATOM_BOUND:
        raise CapacityExceededError(
            f"{len(letters)} letters exceed the assignment bound {DEFAULT_ATOM_BOUND}"
        )
    shifts = letter_shifts(letters)
    for model in range(1 << len(letters)):
        if all(eval_formula(ax, model, shifts) for ax in theory.axioms):
            yield model


def satisfying_assignments(theory: Theory) -> list[int]:
    """The models (masks) making every axiom true, in lexicographic order."""
    return list(_iter_models(theory))


@dataclass(frozen=True)
class LindenbaumAlgebra:
    """F(V)/A for a propositional theory: formulae modulo provable equivalence.

    Atoms are the satisfying models, labelled by their masks; the quotient
    map sends a formula to its truth set, so provably equivalent formulae
    collapse to the same element and every axiom lands on top. An
    inconsistent theory yields the one-element algebra.
    """

    theory: Theory
    algebra: FiniteBooleanAlgebra

    def quotient(self, formula: Formula) -> int:
        shifts = letter_shifts(self.theory.letters)
        for name in sorted(a.symbol.name for a in _atoms_of(formula)):
            if name not in shifts:
                raise UnknownSymbolError(f"letter {name} not in theory {self.theory.name}")
        mask = 0
        for i, model in enumerate(self.algebra.atom_labels):
            if eval_formula(formula, model, shifts):
                mask |= 1 << i
        return mask


def _atoms_of(formula: Formula) -> list[Atom]:
    if isinstance(formula, Atom):
        return [formula]
    if isinstance(formula, Not):
        return _atoms_of(formula.operand)
    if isinstance(formula, (And, Or, Implies)):
        return _atoms_of(formula.lhs) + _atoms_of(formula.rhs)
    return []


def lindenbaum_algebra(theory: Theory) -> LindenbaumAlgebra:
    """The Lindenbaum algebra of a propositional theory.

    The algebra is built by one model walk per theory and kept in the
    theory's memo; each call wraps it afresh, since a stored wrapper would
    point back at the theory. Raises CapacityExceededError as soon as the
    walk finds more than DEFAULT_ATOM_BOUND satisfying assignments, without
    walking the rest, and stores nothing, so a theory past the bound raises
    on every call.
    """
    memo = theory._memo
    if "lindenbaum" not in memo:
        models = tuple(islice(_iter_models(theory), DEFAULT_ATOM_BOUND + 1))
        if len(models) > DEFAULT_ATOM_BOUND:
            raise CapacityExceededError(
                f"{DEFAULT_ATOM_BOUND + 1} or more atoms exceed the bound {DEFAULT_ATOM_BOUND}"
            )
        memo["lindenbaum"] = FiniteBooleanAlgebra(len(models), models)
    return LindenbaumAlgebra(theory, memo["lindenbaum"])


def free_boolean_algebra(letters: Iterable[str]) -> LindenbaumAlgebra:
    """F(V): the Lindenbaum algebra of the axiomless theory on V.

    Carrier size is 2**(2**|V|); raises CapacityExceededError once the atom
    count 2**|V| passes the bound.
    """
    letters = tuple(sorted(letters))
    if 2 ** len(letters) > DEFAULT_ATOM_BOUND:
        raise CapacityExceededError(
            f"free algebra on {len(letters)} letters needs {2 ** len(letters)} atoms (bound {DEFAULT_ATOM_BOUND})"
        )
    relations = tuple(RelationSymbol(l) for l in letters)
    return lindenbaum_algebra(Theory(name="FREE", fragment=Fragment.PROP, relations=relations))


def entails(theory: Theory, formula: Formula) -> bool:
    """Whether the axioms semantically force the formula (quotient hits top)."""
    lin = lindenbaum_algebra(theory)
    return lin.quotient(formula) == lin.algebra.top
