import random

import pytest

from catlogic.boolalg import BoolHom, FiniteBooleanAlgebra, lindenbaum_algebra
from catlogic.stone import (
    FiniteSpace,
    bool_of_space,
    double_dual_iso,
    dual_by_preimage,
    stone_dual_of_hom,
    stone_points,
    stone_space,
)

from oracles import hom_preserves_everything, prime_filters


class TestStoneSpace:
    def test_xor_pair_two_points(self, xor_pair):
        alg = lindenbaum_algebra(xor_pair).algebra
        space = stone_space(alg)
        assert space.point_count == 2

    def test_two_gives_one_point(self):
        assert stone_space(FiniteBooleanAlgebra(1)).point_count == 1

    def test_degenerate_gives_empty_space(self):
        assert stone_space(FiniteBooleanAlgebra(0)).point_count == 0

    def test_point_count_matches_atoms_up_to_2_20_elements(self):
        for n in (0, 1, 3, 7, 12, 20):
            assert stone_space(FiniteBooleanAlgebra(n)).point_count == n

    def test_points_are_prime_filters_by_definition(self):
        for n in (1, 2, 3):
            B = FiniteBooleanAlgebra(n)
            points = stone_points(B)
            assert all(p.is_prime_filter() for p in points)
            got = [frozenset(p.filter_elements()) for p in points]
            assert sorted(got) == sorted(prime_filters(B))


class TestBoolOfSpace:
    def test_discrete_two_point(self):
        assert bool_of_space(FiniteSpace(2)).element_count == 4

    def test_empty_space(self):
        assert bool_of_space(FiniteSpace(0)).element_count == 1

    def test_discrete_fast_path_matches_generic(self):
        # oracle: the minimal clopen around each point, intersected over
        # every subset containing it, must be the singleton atom label
        for n in (1, 2, 3):
            fast = bool_of_space(FiniteSpace(n))
            clp = set(range(1 << n))
            minimal = []
            for p in range(n):
                acc = (1 << n) - 1
                for s in clp:
                    if (s >> p) & 1:
                        acc &= s
                if acc not in minimal:
                    minimal.append(acc)
            assert list(fast.atom_labels) == sorted(minimal)

    def test_atom_count_preserved_through_duality(self):
        for n in range(5):
            B = FiniteBooleanAlgebra(n)
            assert bool_of_space(stone_space(B)).atom_count == B.atom_count


class TestDoubleDual:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 8])
    def test_iso_on_plain_algebras(self, n):
        iso = double_dual_iso(FiniteBooleanAlgebra(n))
        assert iso.is_isomorphism

    def test_xor_pair_hits_the_four_clopens(self, xor_pair):
        alg = lindenbaum_algebra(xor_pair).algebra
        iso = double_dual_iso(alg)
        images = sorted(iso(e) for e in alg.elements())
        assert images == list(range(4))

    def test_free_three_letters_element_wise(self):
        from catlogic.boolalg import free_boolean_algebra

        alg = free_boolean_algebra(["a", "b", "c"]).algebra
        assert alg.element_count == 256
        iso = double_dual_iso(alg)
        seen = set()
        for e in alg.elements():
            image = iso(e)
            assert image not in seen
            seen.add(image)
        assert hom_preserves_everything(iso)


class TestDualOfHom:
    """Duals are point tuples: Stone(C) point j goes to Stone(B) point dual[j]."""

    def test_identity_dualizes_to_identity(self):
        B = FiniteBooleanAlgebra(3)
        assert stone_dual_of_hom(BoolHom.identity(B)) == (0, 1, 2)

    def test_unique_hom_from_two_collapses(self):
        two, B = FiniteBooleanAlgebra(1), FiniteBooleanAlgebra(3)
        # three points of Stone(B), all sent to the one point of Stone(2)
        assert stone_dual_of_hom(BoolHom(two, B, (0, 0, 0))) == (0, 0, 0)

    def test_two_homs_from_free_one_dualize_to_point_inclusions(self):
        from catlogic.boolalg import enumerate_homs, free_boolean_algebra

        f1 = free_boolean_algebra(["x"]).algebra
        two = FiniteBooleanAlgebra(1)
        duals = [stone_dual_of_hom(h) for h in enumerate_homs(f1, two)]
        assert sorted(duals) == [(0,), (1,)]

    def test_matches_filter_preimage_oracle(self):
        rng = random.Random(6)
        for _ in range(40):
            m, k = rng.randint(1, 4), rng.randint(1, 4)
            B, C = FiniteBooleanAlgebra(m), FiniteBooleanAlgebra(k)
            h = BoolHom(B, C, tuple(rng.randrange(m) for _ in range(k)))
            dual = stone_dual_of_hom(h)
            assert len(dual) == C.atom_count
            for point in stone_points(C):
                assert dual[point.atom_index] == dual_by_preimage(h, point).atom_index

    def test_contravariant_functoriality(self):
        rng = random.Random(60)
        for _ in range(40):
            m, k, l = (rng.randint(1, 4) for _ in range(3))
            A, B, C = FiniteBooleanAlgebra(m), FiniteBooleanAlgebra(k), FiniteBooleanAlgebra(l)
            h = BoolHom(A, B, tuple(rng.randrange(m) for _ in range(k)))
            g = BoolHom(B, C, tuple(rng.randrange(k) for _ in range(l)))
            lhs = stone_dual_of_hom(g.compose(h))
            # dual(h) after dual(g): Stone(C) -> Stone(B) -> Stone(A)
            dual_h, dual_g = stone_dual_of_hom(h), stone_dual_of_hom(g)
            assert lhs == tuple(dual_h[q] for q in dual_g)
