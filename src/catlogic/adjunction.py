"""The Lang and Syn functors between finite Boolean algebras and
propositional theories, with exhaustive verification of the hom-set
bijection THEORIES(Lang(B), T) = CATEGORIES(B, Syn(T)) and its naturality.

Lang takes an algebra to its full diagram theory: one letter per element and
axioms recording the operation tables, so Syn(Lang(B)) is canonically
isomorphic to B. Theory morphisms are defined through Syn, which would make
the bijection definitional if both sides were enumerated the same way; the
check therefore enumerates the right-hand side by a second, independent
method (labelled partitions of the target's atoms) so it has teeth.

Lang is covariant on homs: lang_hom(h: B' -> B) runs Lang(B') -> Lang(B) by
conjugation with the canonical isomorphisms.

transpose and untranspose are the plain maps across the bijection;
check_adjunction verifies their round trip once per morphism and samples
naturality triples by index (its docstring gives the order). Each naturality
square's t . f and syn(t) . transpose(f) depend on (t, f) alone, so the check
builds them once per (t, f) and reuses them for every (B', b); the squares,
their order and the transpose_fn calls are those of a check without reuse.
lang keeps at most CACHE_SIZE diagram theories in an lru_cache keyed by
algebra value. syn is the Lindenbaum algebra, which boolalg keeps in the
theory's memo (kernel.Theory). Each algebra object's own memo
(FiniteBooleanAlgebra._memo) keeps lang(B), canonical_iso(B) and its
inverse, built on the first canonical_iso(B); canonical_iso, transpose and
untranspose read that memo, so a warm algebra is never hashed. The aux
algebras of the naturality check are module constants, so their memos
outlive one check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from .boolalg import (
    BoolHom,
    FiniteBooleanAlgebra,
    enumerate_homs,
    lindenbaum_algebra,
    verify_hom,
)
from .errors import CapacityExceededError
from .kernel import (
    And,
    Atom,
    Formula,
    Fragment,
    Not,
    Or,
    RelationSymbol,
    Theory,
    iff,
)

LANG_ATOM_BOUND = 4
CACHE_SIZE = 128  # lang's diagram theories; a brain audit uses at most 5 (0-4 atoms)
BLOCK_ENUM_BOUND = 2**22
DEFAULT_SEED = 20_260_809
NATURALITY_EXHAUSTIVE_LIMIT = 10_000
NATURALITY_SAMPLES = 500
AUX_THEORY = Theory(name="AUX", fragment=Fragment.PROP)  # the aux target T' of naturality
AUX_ALGEBRAS = (FiniteBooleanAlgebra(1), FiniteBooleanAlgebra(2))  # the aux sources B' of naturality


@lru_cache(maxsize=CACHE_SIZE)
def lang(B: FiniteBooleanAlgebra) -> Theory:
    """The diagram theory of B: a letter per element, axioms per table entry.

    Letters are e0, e1, ... (zero padded) indexed by element mask. The
    Lindenbaum algebra of the result is canonically isomorphic to B; see
    canonical_iso for the verified witness.
    """
    if B.atom_count > LANG_ATOM_BOUND:
        raise CapacityExceededError(
            f"lang of a {B.atom_count}-atom algebra exceeds the bound {LANG_ATOM_BOUND}"
        )
    size = B.element_count
    width = len(str(size - 1))
    letters = [RelationSymbol(f"e{i:0{width}d}") for i in range(size)]
    p = [Atom(l) for l in letters]
    axioms: list[Formula] = [p[B.top], Not(p[B.bottom])]
    for a in B.elements():
        axioms.append(iff(Not(p[a]), p[B.complement(a)]))
    for a in B.elements():
        for b in B.elements():
            axioms.append(iff(And(p[a], p[b]), p[a & b]))
            axioms.append(iff(Or(p[a], p[b]), p[a | b]))
    return Theory(
        name=f"LANG{B.atom_count}",
        fragment=Fragment.PROP,
        relations=tuple(letters),
        axioms=tuple(axioms),
    )


def syn(theory: Theory) -> FiniteBooleanAlgebra:
    """Syn of a propositional theory: its Lindenbaum algebra, which
    lindenbaum_algebra keeps in the theory's memo."""
    return lindenbaum_algebra(theory).algebra


def canonical_iso(B: FiniteBooleanAlgebra) -> BoolHom:
    """The verified isomorphism B -> Syn(Lang(B)), kept in B's memo.

    Each satisfying assignment of the diagram theory is a Boolean
    homomorphism B -> 2, i.e. a principal ultrafilter; its generating atom is
    the meet of the elements it sends to true. The first call on an algebra
    object also keeps lang(B) and the iso's inverse in its memo, so each is
    built once per object.
    """
    memo = B._memo
    if "iso" in memo:
        return memo["iso"]
    langB = lang(B)
    L = syn(langB)
    atom_map = []
    for assignment in L.atom_labels:
        acc = B.top
        for e, value in enumerate(assignment.values):
            if value:
                acc &= e
        if not B.is_atom(acc):  # pragma: no cover - diagram axioms force this
            raise AssertionError("diagram-theory assignment is not an ultrafilter")
        atom_map.append(acc.bit_length() - 1)
    iso = BoolHom(B, L, tuple(atom_map))
    assert iso.is_isomorphism, "Syn(Lang(B)) has the wrong atom count"
    assert verify_hom(iso), "canonical comparison map is not a homomorphism"
    memo.update(lang=langB, iso=iso, iso_inverse=iso.inverse())
    return iso


@dataclass(frozen=True)
class TheoryMorphism:
    """Morphism of propositional theories: a hom between their Syn images."""

    source: Theory
    target: Theory
    hom: BoolHom

    def compose(self, other: "TheoryMorphism") -> "TheoryMorphism":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("theory morphisms not composable")
        return TheoryMorphism(other.source, self.target, self.hom.compose(other.hom))

    @staticmethod
    def identity(theory: Theory) -> "TheoryMorphism":
        return TheoryMorphism(theory, theory, BoolHom.identity(syn(theory)))


def theory_morphisms(t1: Theory, t2: Theory) -> list[TheoryMorphism]:
    """All morphisms t1 -> t2, i.e. all homs Syn(t1) -> Syn(t2)."""
    return [TheoryMorphism(t1, t2, h) for h in enumerate_homs(syn(t1), syn(t2))]


def lang_hom(h: BoolHom) -> TheoryMorphism:
    """Lang on homs (covariant): conjugate by the canonical isomorphisms,
    i.e. untranspose canonical_iso(h.target) . h."""
    iso = canonical_iso(h.target)
    return untranspose(h.source, h.target._memo["lang"], iso.compose(h))


def transpose(B: FiniteBooleanAlgebra, f: TheoryMorphism) -> BoolHom:
    """Move f: Lang(B) -> T across the bijection to a hom B -> Syn(T)."""
    memo = B._memo
    iso = memo["iso"] if "iso" in memo else canonical_iso(B)
    return f.hom.compose(iso)


def untranspose(B: FiniteBooleanAlgebra, T: Theory, g: BoolHom) -> TheoryMorphism:
    """Inverse transposition: a hom B -> Syn(T) as a morphism Lang(B) -> T."""
    memo = B._memo
    if "iso" not in memo:
        canonical_iso(B)
    return TheoryMorphism(memo["lang"], T, g.compose(memo["iso_inverse"]))


def enumerate_homs_by_blocks(
    B: FiniteBooleanAlgebra, C: FiniteBooleanAlgebra
) -> list[tuple[int, ...]]:
    """Second, independent hom enumeration: homs B -> C as atom-image tuples.

    A hom is exactly a choice of pairwise-disjoint images for B's atoms that
    join to C's top (a labelled partition of C's atom set). The partitions
    are built by placing each atom of C in one block, m**k leaves in all,
    and returned in sorted order. This shares no code with
    boolalg.enumerate_homs, and the two agree (see the test suite).
    """
    m = B.atom_count
    if m**C.atom_count > BLOCK_ENUM_BOUND:
        raise CapacityExceededError("block enumeration out of capacity")
    out: list[tuple[int, ...]] = []
    images = [0] * m

    def place(j: int) -> None:
        if j == C.atom_count:
            out.append(tuple(images))
            return
        bit = 1 << j
        for i in range(m):
            images[i] |= bit
            place(j + 1)
            images[i] ^= bit

    place(0)
    out.sort()
    return out


def _hom_from_images(B: FiniteBooleanAlgebra, C: FiniteBooleanAlgebra, images) -> BoolHom:
    # one walk over the set bits of each image; a partition of C's atoms
    # into B's atom images is exactly a valid atom map, so it is built
    # unchecked once the partition is confirmed
    k = C.atom_count
    atom_map = [-1] * k
    for i, c in enumerate(images):
        while c:
            low = c & -c
            j = low.bit_length() - 1
            if j >= k or atom_map[j] >= 0:
                raise AssertionError("images do not partition the target atoms")
            atom_map[j] = i
            c ^= low
    if -1 in atom_map or len(images) != B.atom_count:
        raise AssertionError("images do not partition the target atoms")
    return BoolHom._trusted(B, C, tuple(atom_map))


@dataclass
class AdjunctionReport:
    """Both hom-set cardinalities, the transposition pairing, and verdicts.

    `pairing` lists (left index, right index) pairs; verdicts are
    recomputable from it together with the seed.
    """

    left_count: int
    right_count: int
    expected_count: int
    pairing: list[tuple[int, int]]
    bijection_ok: bool
    round_trip_ok: bool
    naturality_ok: bool
    naturality_checked: int
    naturality_total: int
    seed: int
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.bijection_ok
            and self.round_trip_ok
            and self.naturality_ok
            and self.left_count == self.right_count == self.expected_count
        )


def check_adjunction(
    B: FiniteBooleanAlgebra,
    T: Theory,
    seed: int = DEFAULT_SEED,
    transpose_fn=None,
) -> AdjunctionReport:
    """Verify the hom-set bijection for one (algebra, theory) pair.

    Enumerates THEORIES(Lang(B), T) and CATEGORIES(B, Syn(T)) by independent
    code paths, checks that transposition is a bijection with inverse
    untransposition, and checks naturality squares
    transpose(t . f . lang(b)) = syn(t) . transpose(f) . b over auxiliary
    objects. Every left and right morphism is transposed once and its round
    trip verified here; transpose itself does not re-verify.

    Naturality triples are indexed in the nested order (B', b) x (T', t) x f:
    B' of 1 then 2 atoms, T' being T (only while Syn(T) has at most 2 atoms)
    then the empty theory, each hom list in enumeration order. At most 10**4
    triples are all checked in index order; beyond that, 500 indices drawn by
    random.Random(seed).randrange(total) are decoded in mixed radix.

    t . f and syn(t) . transpose(f) are composed once per (t, f), keyed by the
    index's (T', t) x f remainder in a dict local to the call (at most
    min(#t * #f, checked) entries), and reused for every (B', b). Squares are
    still checked in index order with the same `nat:{idx}` ids, and
    transpose_fn is called exactly left + right + naturality_checked times,
    in the same order as without the reuse.
    """
    if transpose_fn is None:
        transpose_fn = transpose
    synL = canonical_iso(B).target
    langB = B._memo["lang"]
    synT = syn(T)
    counterexamples: list[dict] = []

    left = [TheoryMorphism(langB, T, h) for h in enumerate_homs(synL, synT)]
    right = enumerate_homs_by_blocks(B, synT)
    expected = B.atom_count ** synT.atom_count
    transposed = [transpose_fn(B, f) for f in left]

    right_index = {images: j for j, images in enumerate(right)}
    pairing: list[tuple[int, int]] = []
    seen: set[int] = set()
    bijection_ok = len(left) == len(right)
    for i, g in enumerate(transposed):
        key = g.atom_images()
        j = right_index.get(key)
        if j is None or j in seen:
            bijection_ok = False
            counterexamples.append(
                {
                    "id": f"bij:{i}",
                    "kind": "bijection",
                    "left_index": i,
                    "images": list(key),
                    "reason": "duplicate" if j in seen else "not a partition hom",
                }
            )
            continue
        seen.add(j)
        pairing.append((i, j))
    if len(seen) != len(right):
        bijection_ok = False

    round_trip_ok = True
    for i, (f, g) in enumerate(zip(left, transposed)):
        if untranspose(B, T, g).hom != f.hom:
            round_trip_ok = False
            counterexamples.append({"id": f"rt:left:{i}", "kind": "round-trip", "side": "left", "index": i})
    for j, images in enumerate(right):
        g = _hom_from_images(B, synT, images)
        again = transpose_fn(B, untranspose(B, T, g))
        if again != g:
            round_trip_ok = False
            counterexamples.append({"id": f"rt:right:{j}", "kind": "round-trip", "side": "right", "index": j})

    # Naturality: vary B through b: B' -> B and T through t: T -> T'.
    # Keeping T as its own aux target is affordable only while its endo-hom
    # set is small.
    aux_theories = [T, AUX_THEORY] if synT.atom_count <= 2 else [AUX_THEORY]
    bs = [(Bp, b, lang_hom(b)) for Bp in AUX_ALGEBRAS for b in enumerate_homs(Bp, B)]
    ts = [TheoryMorphism(T, Tp, h) for Tp in aux_theories for h in enumerate_homs(synT, syn(Tp))]
    total = len(bs) * len(ts) * len(left)
    indices = range(total)
    if total > NATURALITY_EXHAUSTIVE_LIMIT:
        rng = random.Random(seed)
        indices = [rng.randrange(total) for _ in range(NATURALITY_SAMPLES)]

    # t . f and syn(t) . transpose(f) depend on (t, f) alone, i.e. on the
    # remainder `rest`: build them once and reuse them for every (B', b)
    naturality_ok = True
    by_tf: dict[int, tuple[TheoryMorphism, BoolHom]] = {}
    for idx, index in enumerate(indices):
        ib, rest = divmod(index, len(ts) * len(left))
        it, i = divmod(rest, len(left))
        (Bp, b, lang_b), t, f = bs[ib], ts[it], left[i]
        pair = by_tf.get(rest)
        if pair is None:
            pair = by_tf[rest] = (t.compose(f), t.hom.compose(transposed[i]))
        tf, tg = pair
        lhs = transpose_fn(Bp, tf.compose(lang_b))
        rhs = tg.compose(b)
        if lhs != rhs:
            naturality_ok = False
            counterexamples.append(
                {
                    "id": f"nat:{idx}",
                    "kind": "naturality",
                    "b_atom_map": list(b.atom_map),
                    "b_source_atoms": Bp.atom_count,
                    "t_atom_map": list(t.hom.atom_map),
                    "f_atom_map": list(f.hom.atom_map),
                }
            )

    return AdjunctionReport(
        left_count=len(left),
        right_count=len(right),
        expected_count=expected,
        pairing=pairing,
        bijection_ok=bijection_ok,
        round_trip_ok=round_trip_ok,
        naturality_ok=naturality_ok,
        naturality_checked=len(indices),
        naturality_total=total,
        seed=seed,
        counterexamples=counterexamples,
    )
