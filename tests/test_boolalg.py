import random
from itertools import product

import pytest

from catlogic import boolalg
from catlogic.boolalg import (
    BoolHom,
    FiniteBooleanAlgebra,
    enumerate_homs,
    entails,
    eval_formula,
    free_boolean_algebra,
    letter_shifts,
    letter_values,
    lindenbaum_algebra,
    satisfying_assignments,
    verify_hom,
)
from catlogic.dsl import parse_theory
from catlogic.errors import CapacityExceededError, FragmentViolationError, UnknownSymbolError
from catlogic.kernel import And, Atom, Implies, Not, Or

from corpus import theory_corpus
from oracles import hom_preserves_everything, satisfying_valuations


def letters_of(theory):
    return {r.name: Atom(r) for r in theory.relations}


class TestSatisfyingAssignments:
    def test_xor_pair(self, xor_pair):
        sats = satisfying_assignments(xor_pair)
        assert [dict(zip("xy", letter_values(m, 2))) for m in sats] == [{"x": 0, "y": 1}, {"x": 1, "y": 0}]

    def test_free_letter(self, prop_theories):
        sats = satisfying_assignments(prop_theories["FREE1"])
        assert [letter_values(m, 1) for m in sats] == [(0,), (1,)]

    def test_inconsistent(self, prop_theories):
        assert satisfying_assignments(prop_theories["CONTRA"]) == []

    def test_eq_rejected(self, group_theory):
        with pytest.raises(FragmentViolationError):
            satisfying_assignments(group_theory)

    def test_matches_oracle_on_corpus(self):
        for theory in theory_corpus(seed=424, count=60):
            n = len(theory.letters)
            got = [dict(zip(theory.letters, letter_values(m, n))) for m in satisfying_assignments(theory)]
            want = [{k: int(v) for k, v in val.items()} for val in satisfying_valuations(theory)]
            assert got == want, theory


class TestLindenbaum:
    def test_xor_pair_sizes(self, xor_pair):
        lin = lindenbaum_algebra(xor_pair)
        assert lin.algebra.atom_count == 2
        assert lin.algebra.element_count == 4

    def test_empty_theory_is_two(self, prop_theories):
        lin = lindenbaum_algebra(prop_theories["EMPTY"])
        assert lin.algebra.element_count == 2

    def test_inconsistent_is_one(self, prop_theories):
        lin = lindenbaum_algebra(prop_theories["CONTRA"])
        assert lin.algebra.element_count == 1
        assert lin.algebra.top == lin.algebra.bottom

    def test_model_walk_stops_past_the_bound(self):
        # 16 + 4 models on five letters: exactly the bound
        at = parse_theory("theory F prop { letters a, b, c, d, e; axiom or(a, and(b, c)); }")
        assert lindenbaum_algebra(at).algebra.atom_count == 20
        # 28 models; a theory past the bound raises on every call
        past = parse_theory("theory G prop { letters a, b, c, d, e; axiom or(a, or(b, c)); }")
        for _ in range(2):
            with pytest.raises(CapacityExceededError, match="^21 or more atoms exceed the bound 20$"):
                lindenbaum_algebra(past)

    def test_axioms_land_on_top(self, xor_pair):
        lin = lindenbaum_algebra(xor_pair)
        for ax in xor_pair.axioms:
            assert lin.quotient(ax) == lin.algebra.top

    def test_quotient_is_homomorphism(self):
        # quotient(f op g) == quotient(f) op quotient(g) on random formulae
        from corpus import random_formula

        rng = random.Random(2024)
        for theory in theory_corpus(seed=77, count=20, max_letters=3):
            lin = lindenbaum_algebra(theory)
            alg = lin.algebra
            for _ in range(20):
                f = random_formula(rng, theory.relations, 3)
                g = random_formula(rng, theory.relations, 3)
                qf, qg = lin.quotient(f), lin.quotient(g)
                assert lin.quotient(And(f, g)) == alg.meet(qf, qg)
                assert lin.quotient(Or(f, g)) == alg.join(qf, qg)
                assert lin.quotient(Not(f)) == alg.complement(qf)
                assert lin.quotient(Implies(f, g)) == alg.implies(qf, qg)

    def test_unknown_letter_rejected(self, xor_pair):
        from catlogic.kernel import RelationSymbol

        lin = lindenbaum_algebra(xor_pair)
        with pytest.raises(UnknownSymbolError):
            lin.quotient(Atom(RelationSymbol("zz")))


class TestFreeAlgebra:
    @pytest.mark.parametrize("n,size", [(0, 2), (1, 4), (2, 16), (3, 256)])
    def test_sizes(self, n, size):
        free = free_boolean_algebra([f"v{i}" for i in range(n)])
        assert free.algebra.element_count == size

    def test_capacity(self):
        with pytest.raises(CapacityExceededError):
            free_boolean_algebra([f"v{i}" for i in range(6)])


class TestEntails:
    def test_axiom_entailed(self, xor_pair):
        p = letters_of(xor_pair)
        assert entails(xor_pair, Or(p["x"], p["y"]))

    def test_derived(self, xor_pair):
        p = letters_of(xor_pair)
        assert entails(xor_pair, Implies(p["x"], Not(p["y"])))

    def test_not_entailed(self, xor_pair):
        p = letters_of(xor_pair)
        assert not entails(xor_pair, p["x"])

    def test_agrees_with_truth_table_oracle(self):
        # all formulae to depth 4 over <= 3 letters would be huge; sample a
        # seeded batch per theory instead, evaluated by the independent oracle
        from corpus import random_formula

        from oracles import truth_value

        rng = random.Random(31)
        for theory in theory_corpus(seed=99, count=25, max_letters=3):
            sats = satisfying_valuations(theory)
            for _ in range(40):
                f = random_formula(rng, theory.relations, 4)
                expected = all(truth_value(f, v) for v in sats)
                assert entails(theory, f) == expected


class TestHoms:
    def test_two_to_two(self):
        two = FiniteBooleanAlgebra(1)
        homs = enumerate_homs(two, two)
        assert len(homs) == 1
        assert homs[0].atom_map == (0,)

    def test_free_one_to_two(self):
        f1 = free_boolean_algebra(["x"]).algebra
        two = FiniteBooleanAlgebra(1)
        homs = enumerate_homs(f1, two)
        assert len(homs) == 2

    def test_four_to_four(self):
        four = FiniteBooleanAlgebra(2)
        assert len(enumerate_homs(four, four)) == 4

    def test_degenerate_source(self):
        degen = FiniteBooleanAlgebra(0)
        two = FiniteBooleanAlgebra(1)
        assert enumerate_homs(degen, two) == []
        assert len(enumerate_homs(two, degen)) == 1
        assert len(enumerate_homs(degen, degen)) == 1

    def test_homs_to_two_match_atoms(self):
        for n in range(1, 5):
            B = FiniteBooleanAlgebra(n)
            assert len(enumerate_homs(B, FiniteBooleanAlgebra(1))) == n

    def test_counts(self):
        for m, k in product(range(4), range(4)):
            B, C = FiniteBooleanAlgebra(m), FiniteBooleanAlgebra(k)
            assert len(enumerate_homs(B, C)) == m**k

    def test_all_enumerated_homs_preserve_exhaustively(self):
        # pairwise-exhaustive oracle on algebras with <= 4 atoms
        for m, k in [(1, 1), (2, 2), (3, 2), (4, 3), (2, 4)]:
            B, C = FiniteBooleanAlgebra(m), FiniteBooleanAlgebra(k)
            for h in enumerate_homs(B, C):
                assert hom_preserves_everything(h)
                assert verify_hom(h)

    def test_capacity(self):
        with pytest.raises(CapacityExceededError):
            enumerate_homs(FiniteBooleanAlgebra(10), FiniteBooleanAlgebra(10))

    def test_composition_associative_and_unital(self):
        rng = random.Random(8)
        for _ in range(50):
            sizes = [rng.randint(1, 3) for _ in range(4)]
            A, B, C, D = (FiniteBooleanAlgebra(n) for n in sizes)
            f = BoolHom(A, B, tuple(rng.randrange(sizes[0]) for _ in range(sizes[1])))
            g = BoolHom(B, C, tuple(rng.randrange(sizes[1]) for _ in range(sizes[2])))
            h = BoolHom(C, D, tuple(rng.randrange(sizes[2]) for _ in range(sizes[3])))
            assert h.compose(g.compose(f)) == h.compose(g).compose(f)
            assert f.compose(BoolHom.identity(A)) == f
            assert BoolHom.identity(B).compose(f) == f

    def test_atom_images_match_per_bit_element_map(self):
        rng = random.Random(10)
        for m in range(7):
            for k in range(7):
                if m == 0 and k > 0:
                    continue  # no homs from the one-element algebra
                A, B = FiniteBooleanAlgebra(m), FiniteBooleanAlgebra(k)
                for _ in range(5):
                    h = BoolHom(A, B, tuple(rng.randrange(m) for _ in range(k)))
                    assert h.atom_images() == tuple(h(1 << i) for i in range(m))

    def test_composition_matches_element_maps(self):
        rng = random.Random(9)
        for _ in range(30):
            m, k, l = (rng.randint(1, 3) for _ in range(3))
            A, B, C = FiniteBooleanAlgebra(m), FiniteBooleanAlgebra(k), FiniteBooleanAlgebra(l)
            f = BoolHom(A, B, tuple(rng.randrange(m) for _ in range(k)))
            g = BoolHom(B, C, tuple(rng.randrange(k) for _ in range(l)))
            gf = g.compose(f)
            for e in A.elements():
                assert gf(e) == g(f(e))


class TestShapeRecord:
    """enumerate_homs verifies each (m, k, kernel pair) shape once."""

    @staticmethod
    def _count_verifications(monkeypatch):
        seen = []
        real = boolalg.verify_hom
        monkeypatch.setattr(boolalg, "verify_hom", lambda h: seen.append(h.atom_map) or real(h))
        monkeypatch.setattr(boolalg, "_VERIFIED_SHAPES", set())
        return seen

    def test_first_call_verifies_every_map_and_later_calls_none(self, monkeypatch):
        seen = self._count_verifications(monkeypatch)
        B, C = FiniteBooleanAlgebra(3), FiniteBooleanAlgebra(4)
        first = enumerate_homs(B, C)
        assert seen == [h.atom_map for h in first] and len(seen) == 81
        seen.clear()
        # a shape is a fact of (m, k): other algebra objects of it skip too
        again = enumerate_homs(FiniteBooleanAlgebra(3), FiniteBooleanAlgebra(4, tuple("abcd")))
        assert seen == []
        assert [h.atom_map for h in again] == [h.atom_map for h in first]
        assert again[5].target.atom_labels == tuple("abcd")
        enumerate_homs(B, FiniteBooleanAlgebra(3))
        assert len(seen) == 27

    def test_a_failing_kernel_on_a_fresh_shape_still_raises(self, monkeypatch):
        self._count_verifications(monkeypatch)
        monkeypatch.setattr(boolalg._core, "check_hom_table", lambda img, m, k: False)
        B, C = FiniteBooleanAlgebra(2), FiniteBooleanAlgebra(2)
        for _ in range(2):  # a failed shape is not recorded
            with pytest.raises(AssertionError, match=r"failed preservation: \(0, 0\)"):
                enumerate_homs(B, C)
        assert boolalg._VERIFIED_SHAPES == set()

    def test_swapping_the_kernels_verifies_again(self, monkeypatch):
        seen = self._count_verifications(monkeypatch)
        B, C = FiniteBooleanAlgebra(2), FiniteBooleanAlgebra(3)
        enumerate_homs(B, C)
        enumerate_homs(B, C)
        assert len(seen) == 8
        real = boolalg._core.hom_image_table
        monkeypatch.setattr(boolalg._core, "hom_image_table", lambda *args: real(*args))
        enumerate_homs(B, C)
        enumerate_homs(B, C)
        assert len(seen) == 16

    def test_a_shape_past_the_bound_is_not_recorded(self, monkeypatch):
        self._count_verifications(monkeypatch)
        with pytest.raises(CapacityExceededError):
            enumerate_homs(FiniteBooleanAlgebra(10), FiniteBooleanAlgebra(10))
        assert boolalg._VERIFIED_SHAPES == set()


class TestEvalFormula:
    def test_rejects_equation(self, group_theory):
        with pytest.raises(FragmentViolationError):
            eval_formula(group_theory.axioms[0], 0, {})

    def test_rejects_a_letter_outside_the_shifts(self, xor_pair):
        with pytest.raises(UnknownSymbolError):
            eval_formula(xor_pair.axioms[0], 0, letter_shifts(("x",)))


class TestModelLayout:
    @pytest.mark.parametrize("n", range(7))
    def test_counting_order_is_lexicographic(self, n):
        assert [letter_values(m, n) for m in range(1 << n)] == list(product((0, 1), repeat=n))
