import random
from itertools import product

import pytest

from catlogic.errors import CapacityExceededError, SignatureMismatchError
from catlogic.kernel import App, Variable
from catlogic.models import (
    FiniteModel,
    ModelHomomorphism,
    check_model,
    enumerate_homs,
    enumerate_models,
    homs_equal_nat_trans,
    model_as_functor,
    real_category,
)
from catlogic.syncat import SynMorphism, syn_eq


@pytest.fixture(scope="module")
def z2(group_theory):
    models = enumerate_models(group_theory, 2)
    return next(m for m in models if m.table("u") == (0,))


@pytest.fixture(scope="module")
def z3(group_theory):
    models = enumerate_models(group_theory, 3)
    return next(m for m in models if m.table("u") == (0,))


@pytest.fixture(scope="module")
def trivial(group_theory):
    return enumerate_models(group_theory, 1)[0]


class TestCheckModel:
    def test_z2_is_a_group(self, group_theory, z2):
        assert z2.table("mul") == (0, 1, 1, 0)
        assert check_model(group_theory, z2)

    def test_broken_unit_fails(self, group_theory, z2):
        broken = FiniteModel(group_theory, z2.sizes, (z2.table("mul"), z2.table("inv"), (1,)))
        assert not check_model(group_theory, broken)

    def test_prop_model(self, xor_pair):
        sat = FiniteModel(xor_pair, letter_values=(1, 0))
        unsat = FiniteModel(xor_pair, letter_values=(1, 1))
        assert check_model(xor_pair, sat)
        assert not check_model(xor_pair, unsat)

    def test_prop_model_of_the_wrong_length(self, xor_pair):
        with pytest.raises(ValueError):
            check_model(xor_pair, FiniteModel(xor_pair, letter_values=(1,)))

    def test_signature_mismatch(self, group_theory, group_alt_theory, z2):
        with pytest.raises(SignatureMismatchError):
            check_model(group_alt_theory, z2)


class TestEnumerateModels:
    @pytest.mark.parametrize("size,count", [(0, 0), (1, 1), (2, 2), (3, 3), (4, 16)])
    def test_group_counts(self, group_theory, size, count):
        assert len(enumerate_models(group_theory, size)) == count

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_pruned_equals_raw_scan(self, group_theory, size):
        pruned = enumerate_models(group_theory, size, prune=True)
        raw = enumerate_models(group_theory, size, prune=False)
        assert pruned == raw

    def test_every_output_passes_check_model(self, group_theory):
        for size in (1, 2, 3):
            for m in enumerate_models(group_theory, size):
                assert check_model(group_theory, m)

    def test_no_non_model_passes(self, group_theory):
        # complement check at size 2: every table combination not in the
        # output must fail check_model
        found = set(enumerate_models(group_theory, 2))
        total = 0
        for mul in product(range(2), repeat=4):
            for inv in product(range(2), repeat=2):
                for u in product(range(2), repeat=1):
                    m = FiniteModel(group_theory, (2,), (mul, inv, u))
                    ok = check_model(group_theory, m)
                    assert ok == (m in found)
                    total += ok
        assert total == 2

    def test_size_four_cross_check(self, group_theory):
        # 4!/|Aut(Z4)| + 4!/|Aut(V4)| = 12 + 4
        models = enumerate_models(group_theory, 4)
        assert len(models) == 16
        commutative = sum(
            all(
                m.table("mul")[4 * a + b] == m.table("mul")[4 * b + a]
                for a in range(4)
                for b in range(4)
            )
            for m in models
        )
        assert commutative == 16  # all groups of order 4 are abelian
        self_inverse_everywhere = sum(m.table("inv") == (0, 1, 2, 3) for m in models)
        assert self_inverse_everywhere == 4  # the Klein four-tables

    def test_prop_enumeration(self, xor_pair):
        models = enumerate_models(xor_pair, 99)
        assert [m.letter_values for m in models] == [(0, 1), (1, 0)]

    def test_naive_capacity_rejected(self, group_theory):
        with pytest.raises(CapacityExceededError):
            enumerate_models(group_theory, 4, prune=False)

    def test_alt_presentation_same_counts(self, group_theory, group_alt_theory):
        for size in (1, 2, 3, 4):
            assert len(enumerate_models(group_alt_theory, size)) == len(
                enumerate_models(group_theory, size)
            )

    @pytest.mark.parametrize("prune", [True, False])
    def test_multi_sorted_search_equals_scan(self, prune):
        from catlogic.dsl import parse_theory

        free = parse_theory("theory F2 eq { sort A; sort B; op f : A -> B; }")
        const = parse_theory(
            "theory C2 eq { sort A; sort B; op f : A -> B; axiom f(x) = f(y); }"
        )
        for n in (1, 2, 3):
            for theory, count in ((free, n**n), (const, n)):
                models = enumerate_models(theory, n, prune=prune)
                assert models == enumerate_models(theory, n, prune=not prune)
                assert len(models) == count
                assert all(check_model(theory, m) for m in models)
                if theory is const:
                    assert all(len(set(m.table("f"))) == 1 for m in models)

    def test_two_sort_retraction_at_size_three(self):
        import time

        from catlogic.dsl import parse_theory

        t = parse_theory(
            "theory R eq { sort A; sort B; op f : A, A -> B; op g : B -> A;"
            " axiom g(f(x, y)) = x; }"
        )
        t0 = time.perf_counter()
        models = enumerate_models(t, 3)
        assert time.perf_counter() - t0 < 1.0
        # g must be onto, so a bijection, and then f(x, y) = g^-1(x)
        assert len(models) == 6
        for m in models:
            g = m.table("g")
            assert sorted(g) == [0, 1, 2]
            assert m.table("f") == tuple(g.index(x) for x in range(3) for _ in range(3))

    def test_sizes_apply_per_sort(self):
        from catlogic.dsl import parse_theory

        t = parse_theory("theory F2 eq { sort A; sort B; op f : A -> B; }")
        m = enumerate_models(t, 3)[0]
        assert m.sizes == (3, 3)
        assert len(m.table("f")) == 3


class TestEnumerateHoms:
    def test_z2_to_z2(self, z2):
        homs = enumerate_homs(z2, z2)
        assert len(homs) == 2
        assert sorted(h.components[0] for h in homs) == [(0, 0), (0, 1)]

    def test_z2_to_z3(self, z2, z3):
        assert len(enumerate_homs(z2, z3)) == 1

    def test_terminal(self, z2, z3, trivial):
        for m in (z2, z3, trivial):
            assert len(enumerate_homs(m, trivial)) == 1

    def test_homs_compose(self, z2, z3):
        for f in enumerate_homs(z2, z3):
            for g in enumerate_homs(z3, z2):
                assert g.compose(f) in enumerate_homs(z2, z2)

    def test_identity_is_hom(self, z3):
        assert ModelHomomorphism.identity(z3) in enumerate_homs(z3, z3)


class TestModelAsFunctor:
    def test_object_images(self, group_theory, z2):
        cat = syn_eq(group_theory, 2)
        F = model_as_functor(z2, cat)
        by_size = {len(o.variables): o for o in cat.objects}
        assert F.object_image(by_size[1]) == [(0,), (1,)]
        assert F.object_image(by_size[0]) == [()]
        assert len(F.object_image(by_size[2])) == 4

    def test_multiplication_morphism_is_xor(self, group_theory, z2):
        cat = syn_eq(group_theory, 2)
        by_size = {len(o.variables): o for o in cat.objects}
        pair, single = by_size[2], by_size[1]
        mul = group_theory.function("mul")
        mor = SynMorphism(pair, single, (App(mul, (pair.variables[0], pair.variables[1])),))
        F = model_as_functor(z2, cat)
        image = F.morphism_image(mor)
        assert image == {(0, 0): (0,), (0, 1): (1,), (1, 0): (1,), (1, 1): (0,)}

    def test_functor_laws(self, group_theory, z2, z3):
        cat = syn_eq(group_theory, 2)
        assert model_as_functor(z2, cat).verify(50, seed=1)
        assert model_as_functor(z3, cat).verify(50, seed=2)

    @pytest.mark.parametrize(
        "depth,max_ctx", [(1, 2), (2, 1)]
    )  # tuple morphisms at depth 1, longer words on single-variable contexts
    def test_exhaustive_composites(self, group_theory, z2, depth, max_ctx):
        cat = syn_eq(group_theory, depth, max_context_size=max_ctx)
        F = model_as_functor(z2, cat)
        images = {}
        for a in cat.objects:
            for b in cat.objects:
                for f in cat.hom(a, b):
                    images[f] = F.morphism_image(f)
        for a in cat.objects:
            assert all(k == v for k, v in F.morphism_image(cat.identity(a)).items())
            for b in cat.objects:
                for c in cat.objects:
                    for f in cat.hom(a, b):
                        for g in cat.hom(b, c):
                            fi, gi = images[f], images[g]
                            composed = F.morphism_image(cat.compose(g, f))
                            assert all(composed[p] == gi[fi[p]] for p in fi)

    def test_mismatched_category(self, xor_pair, z2):
        from catlogic.syncat import syn_prop

        with pytest.raises(SignatureMismatchError):
            model_as_functor(z2, syn_prop(xor_pair))


class TestHomNatTransCorrespondence:
    def test_z2_z2(self, z2):
        rep = homs_equal_nat_trans(z2, z2, 3)
        assert rep.bijective and rep.hom_count == 2

    def test_z2_z3(self, z2, z3):
        rep = homs_equal_nat_trans(z2, z3, 3)
        assert rep.bijective and rep.hom_count == 1

    def test_trivial_to_z2(self, trivial, z2):
        rep = homs_equal_nat_trans(trivial, z2, 3)
        assert rep.bijective and rep.hom_count == 1

    def test_all_pairs_up_to_size_three(self, group_theory):
        models = []
        for size in (1, 2, 3):
            models.extend(enumerate_models(group_theory, size))
        for m in models:
            for n in models:
                rep = homs_equal_nat_trans(m, n, 2)
                assert rep.bijective, (m.describe(), n.describe())
                assert rep.hom_count == len(enumerate_homs(m, n))


class TestRealCategory:
    def test_group_max_two(self, group_theory):
        rc = real_category(group_theory, 2)
        assert len(rc.objects) == 3
        assert rc.laws_hold
        for (i, j), homs in rc.hom_table.items():
            assert len(homs) == len(enumerate_homs(rc.objects[i], rc.objects[j]))

    def test_prop_discrete(self, xor_pair):
        rc = real_category(xor_pair, 1)
        assert len(rc.objects) == 2
        counts = rc.hom_counts()
        assert counts[(0, 0)] == counts[(1, 1)] == 1
        assert counts[(0, 1)] == counts[(1, 0)] == 0

    def test_max_zero_empty(self, group_theory, xor_pair):
        assert real_category(group_theory, 0).objects == []
        assert real_category(xor_pair, 0).objects == []
