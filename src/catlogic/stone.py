"""Finite Stone duality: the prime-filter space of a finite Boolean algebra,
the algebra of its clopen sets, the double dual isomorphism, and the duals of
homomorphisms.

Every space here is the Stone space of a finite algebra, so it is finite
and Hausdorff. A finite Hausdorff space is discrete: its points are closed,
so every subset, a finite union of points, is closed, and so is every
complement (Johnstone, *Stone Spaces*, 1982). Every subset is therefore
clopen and every point function is continuous, so a space is just its
points: `FiniteSpace` keeps a point count and labels, a map between spaces
is its tuple of point images, and the clopen algebra is the powerset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolalg import BoolHom, FiniteBooleanAlgebra, verify_hom


@dataclass(frozen=True)
class FiniteSpace:
    """Finite discrete space: points 0..point_count-1, optionally labelled."""

    point_count: int
    point_labels: tuple = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.point_count < 0:
            raise ValueError("negative point count")
        if self.point_labels is not None and len(self.point_labels) != self.point_count:
            raise ValueError("one label per point required")


@dataclass(frozen=True)
class StonePoint:
    """Prime filter of a finite Boolean algebra, encoded by its atom."""

    algebra: FiniteBooleanAlgebra
    atom_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.atom_index < self.algebra.atom_count:
            raise ValueError(f"atom index {self.atom_index} out of range")

    def contains(self, element: int) -> bool:
        self.algebra.check(element)
        return (element >> self.atom_index) & 1 == 1

    def filter_elements(self) -> list[int]:
        return [e for e in self.algebra.elements() if self.contains(e)]

    def is_prime_filter(self) -> bool:
        """Verify the definition directly: proper, upward closed, meet-closed
        and prime. Exponential in atoms; meant for the test corpus."""
        alg = self.algebra
        members = set(self.filter_elements())
        if not members or 0 in members or alg.top not in members:
            return False
        for a in members:
            for b in alg.elements():
                if alg.leq(a, b) and b not in members:
                    return False
            for b in members:
                if a & b not in members:
                    return False
        for a in alg.elements():
            for b in alg.elements():
                if (a | b) in members and a not in members and b not in members:
                    return False
        return True


def stone_points(B: FiniteBooleanAlgebra) -> list[StonePoint]:
    """The prime filters of B, one per atom, in atom order."""
    return [StonePoint(B, i) for i in range(B.atom_count)]


def stone_space(B: FiniteBooleanAlgebra) -> FiniteSpace:
    """The space of prime filters, labelled by the filters themselves."""
    return FiniteSpace(B.atom_count, tuple(stone_points(B)))


def bool_of_space(X: FiniteSpace) -> FiniteBooleanAlgebra:
    """The algebra of clopen subsets of X under the pointwise operations.

    Every subset is clopen, so the atoms are the singletons, labelled by
    their point masks in point order.
    """
    return FiniteBooleanAlgebra(X.point_count, tuple(1 << p for p in range(X.point_count)))


def double_dual_iso(B: FiniteBooleanAlgebra) -> BoolHom:
    """The canonical iso B -> Bool(Stone(B)), b |-> {p : b in p}, verified.

    Must succeed for every finite algebra; an unverifiable result raises
    AssertionError (a defect, not an input error).
    """
    X = stone_space(B)
    C = bool_of_space(X)
    # target atom j is a singleton clopen; recover the B-atom generating
    # that point's prime filter
    atom_map = tuple(X.point_labels[label.bit_length() - 1].atom_index for label in C.atom_labels)
    hom = BoolHom(B, C, atom_map)
    assert hom.is_isomorphism, "double dual map is not bijective"
    assert verify_hom(hom), "double dual map does not preserve the operations"
    return hom


def stone_dual_of_hom(h: BoolHom) -> tuple[int, ...]:
    """Contravariant dual: a hom B -> C becomes the point map Stone(C) ->
    Stone(B) taking preimages of prime filters, which is exactly the atom
    map. Every point map between discrete spaces is continuous."""
    return h.atom_map


def dual_by_preimage(h: BoolHom, point: StonePoint) -> StonePoint:
    """Oracle-style dual: pull a prime filter back through the hom and find
    its generating atom by intersecting the preimage filter."""
    members = [e for e in h.source.elements() if point.contains(h(e))]
    acc = h.source.top
    for e in members:
        acc &= e
    if not h.source.is_atom(acc):  # pragma: no cover - guards misuse
        raise ValueError("preimage filter is not prime")
    return StonePoint(h.source, acc.bit_length() - 1)
