import random
from itertools import product

import pytest

from catlogic.adjunction import (
    TheoryMorphism,
    canonical_iso,
    check_adjunction,
    enumerate_homs_by_blocks,
    lang,
    lang_hom,
    syn,
    theory_morphisms,
    transpose,
    untranspose,
)
from catlogic import boolalg
from catlogic.boolalg import (
    BoolHom,
    FiniteBooleanAlgebra,
    entails,
    enumerate_homs,
    lindenbaum_algebra,
    verify_hom,
)
from catlogic.dsl import parse_file
from catlogic.errors import CapacityExceededError, FragmentViolationError
from catlogic.kernel import Fragment, Theory
from catlogic.syncat import syn_prop

from corpus import theory_corpus
from oracles import hom_preserves_everything


class TestLang:
    def test_lang_of_two(self):
        t = lang(FiniteBooleanAlgebra(1))
        assert len(t.relations) == 2
        assert syn(t).atom_count == 1

    def test_lang_of_four_element_algebra(self):
        t = lang(FiniteBooleanAlgebra(2))
        assert len(t.relations) == 4
        assert syn(t).atom_count == 2

    def test_degenerate(self):
        t = lang(FiniteBooleanAlgebra(0))
        assert syn(t).atom_count == 0

    def test_capacity(self):
        with pytest.raises(CapacityExceededError):
            lang(FiniteBooleanAlgebra(6))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_syn_lang_iso_verified(self, n):
        iso = canonical_iso(FiniteBooleanAlgebra(n))
        assert iso.is_isomorphism
        assert verify_hom(iso)
        assert hom_preserves_everything(iso)


class TestSyn:
    def test_xor_pair(self, xor_pair):
        assert syn(xor_pair).atom_count == 2

    def test_empty(self, prop_theories):
        assert syn(prop_theories["EMPTY"]).atom_count == 1

    def test_inconsistent(self, prop_theories):
        assert syn(prop_theories["CONTRA"]).atom_count == 0

    def test_eq_rejected(self, group_theory):
        with pytest.raises(FragmentViolationError):
            syn(group_theory)


class TestTheoryMorphisms:
    def test_endomorphisms_of_xor_pair(self, xor_pair):
        assert len(theory_morphisms(xor_pair, xor_pair)) == 4

    def test_into_inconsistent(self, xor_pair, prop_theories):
        assert len(theory_morphisms(xor_pair, prop_theories["CONTRA"])) == 1

    def test_empty_theory_initial(self, xor_pair, prop_theories):
        assert len(theory_morphisms(prop_theories["EMPTY"], xor_pair)) == 1

    def test_composition_and_identity(self, xor_pair, prop_theories):
        free1 = prop_theories["FREE1"]
        rng = random.Random(3)
        fs = theory_morphisms(xor_pair, free1)
        gs = theory_morphisms(free1, xor_pair)
        for _ in range(20):
            f, g = rng.choice(fs), rng.choice(gs)
            gf = g.compose(f)
            assert gf.source == xor_pair and gf.target == xor_pair
            assert gf.hom == g.hom.compose(f.hom)
        ident = TheoryMorphism.identity(xor_pair)
        assert all(f.compose(ident).hom == f.hom for f in fs)


class TestTranspose:
    def test_round_trips_exhaustive(self, xor_pair):
        B = FiniteBooleanAlgebra(2)
        for f in theory_morphisms(lang(B), xor_pair):
            g = transpose(B, f)
            assert untranspose(B, xor_pair, g).hom == f.hom
        for g in enumerate_homs(B, syn(xor_pair)):
            f = untranspose(B, xor_pair, g)
            assert transpose(B, f) == g

    def test_unique_case(self, xor_pair):
        two = FiniteBooleanAlgebra(1)
        (f,) = theory_morphisms(lang(two), xor_pair)
        (g,) = enumerate_homs(two, syn(xor_pair))
        assert transpose(two, f) == g

    def test_comparison_hom_when_b_is_syn_t(self, xor_pair):
        B = syn(xor_pair)
        ident = TheoryMorphism(lang(B), lang(B), BoolHom.identity(syn(lang(B))))
        # transposing lang(B)'s identity gives exactly the canonical iso
        assert transpose(B, ident) == canonical_iso(B)


class TestBlockEnumeration:
    def test_counts_match_atom_map_enumeration(self):
        for m in range(4):
            for k in range(4):
                B, C = FiniteBooleanAlgebra(m), FiniteBooleanAlgebra(k)
                blocks = enumerate_homs_by_blocks(B, C)
                assert len(blocks) == len(enumerate_homs(B, C))

    def test_blocks_are_the_atom_images(self):
        B, C = FiniteBooleanAlgebra(2), FiniteBooleanAlgebra(3)
        by_maps = {tuple(h(1 << i) for i in range(2)) for h in enumerate_homs(B, C)}
        assert by_maps == set(enumerate_homs_by_blocks(B, C))

    def test_blocks_rebuild_the_enumerated_atom_maps(self):
        from catlogic.adjunction import _hom_from_images

        for m in range(4):
            for k in range(5):
                B, C = FiniteBooleanAlgebra(m), FiniteBooleanAlgebra(k)
                rebuilt = [_hom_from_images(B, C, images) for images in enumerate_homs_by_blocks(B, C)]
                # same maps, each once (block order is not atom-map order)
                assert sorted(h.atom_map for h in rebuilt) == [h.atom_map for h in enumerate_homs(B, C)]
                assert all(h.source is B and h.target is C for h in rebuilt)

    @pytest.mark.parametrize(
        "images",
        [(0b011, 0b110), (0b001, 0b010), (0b1000, 0b0111), (0b111,), (0b001, 0b010, 0b100)],
    )
    def test_non_partition_images_rejected(self, images):
        from catlogic.adjunction import _hom_from_images

        with pytest.raises(AssertionError, match="partition"):
            _hom_from_images(FiniteBooleanAlgebra(2), FiniteBooleanAlgebra(3), images)

    def test_scan_and_recursive_placement_agree(self):
        # reference: every tuple of C's elements whose entries are pairwise
        # disjoint and join to C's top, in lexicographic order
        def blocks_by_scan(B, C):
            out = []
            for images in product(C.elements(), repeat=B.atom_count):
                union = 0
                for c in images:
                    if union & c:
                        break
                    union |= c
                else:
                    if union == C.top:
                        out.append(images)
            return out

        for m in range(4):
            for k in range(5):
                B, C = FiniteBooleanAlgebra(m), FiniteBooleanAlgebra(k)
                assert enumerate_homs_by_blocks(B, C) == blocks_by_scan(B, C)


class TestCheckAdjunction:
    def test_two_against_xor_pair(self, xor_pair):
        rep = check_adjunction(FiniteBooleanAlgebra(1), xor_pair)
        assert rep.passed
        assert rep.left_count == rep.right_count == 1

    def test_free_one_letter_against_xor_pair(self, xor_pair):
        rep = check_adjunction(FiniteBooleanAlgebra(2), xor_pair)
        assert rep.passed
        assert rep.left_count == 4
        assert rep.expected_count == 2**2

    def test_cardinality_formula(self, prop_theories):
        free1 = prop_theories["FREE1"]
        for atoms in (0, 1, 2, 3):
            B = FiniteBooleanAlgebra(atoms)
            rep = check_adjunction(B, free1)
            assert rep.passed
            assert rep.left_count == atoms ** syn(free1).atom_count

    def test_random_campaign(self):
        rng = random.Random(515)
        theories = theory_corpus(seed=515, count=50, max_letters=3)
        for theory in theories:
            B = FiniteBooleanAlgebra(rng.randint(0, 3))
            rep = check_adjunction(B, theory, seed=99)
            assert rep.passed, (theory, B.atom_count, rep.counterexamples[:3])

    @staticmethod
    def _corrupt(B, f):
        g = transpose(B, f)
        if g.source.atom_count >= 2:
            amap = list(g.atom_map)
            if amap:
                amap[0] = (amap[0] + 1) % g.source.atom_count
            return BoolHom(g.source, g.target, tuple(amap))
        return g

    def test_corrupted_transpose_fails(self, xor_pair):
        rep = check_adjunction(FiniteBooleanAlgebra(2), xor_pair, transpose_fn=self._corrupt)
        assert not rep.passed
        assert rep.counterexamples
        ids = {c["id"] for c in rep.counterexamples}
        assert len(ids) == len(rep.counterexamples)  # replayable: unique ids

    @staticmethod
    def _shift_at(k):
        # corrupts every transpose out of a k-atom algebra; out of 2 (k = 1)
        # there is one hom, so that shift is the identity
        def shift(A, f):
            g = transpose(A, f)
            if A.atom_count == k:
                return BoolHom(g.source, g.target, tuple((i + 1) % k for i in g.atom_map))
            return g

        return shift

    _shift_at_three = staticmethod(_shift_at(3))  # every transpose out of the 3-atom B, none out of B'

    @staticmethod
    def _one_atom_target(A, f):
        # picks the wrong ultrafilter of A for every transpose into 2
        g = transpose(A, f)
        if g.target.atom_count == 1 and A.atom_count >= 2:
            return BoolHom(g.source, g.target, ((g.atom_map[0] + 1) % A.atom_count,))
        return g

    @staticmethod
    def _aux_theories(theory):
        aux = Theory(name="AUX", fragment=Fragment.PROP)
        return (theory, aux) if syn(theory).atom_count <= 2 else (aux,)

    @classmethod
    def _naturality_reference(cls, B, theory, corrupt):
        # the joint squares transpose(t . f . Lang b) = syn(t) . transpose(f) . b,
        # every (B', b, t, f) materialised and checked from scratch with no
        # reuse; yields the failing ones in (B', b) x (T', t) x f order
        left = theory_morphisms(lang(B), theory)
        triples = [
            (Bp, b, t, f)
            for Bp in (FiniteBooleanAlgebra(1), FiniteBooleanAlgebra(2))
            for b in enumerate_homs(Bp, B)
            for Tp in cls._aux_theories(theory)
            for t in theory_morphisms(theory, Tp)
            for f in left
        ]
        for Bp, b, t, f in triples:
            lhs = corrupt(Bp, t.compose(f).compose(lang_hom(b)))
            rhs = t.hom.compose(corrupt(B, f)).compose(b)
            if lhs != rhs:
                yield Bp, b, t, f

    @classmethod
    def _split_reference(cls, B, theory, corrupt, t_indices):
        # both families materialised and checked from scratch with no reuse:
        # every (B', b, g) square, then the (t, f) squares at t_indices
        aux = cls._aux_theories(theory)
        left = theory_morphisms(lang(B), theory)
        b_squares = [
            (Bp, b, g)
            for Bp in (FiniteBooleanAlgebra(1), FiniteBooleanAlgebra(2))
            for b in enumerate_homs(Bp, B)
            for Tp in aux
            for g in theory_morphisms(lang(B), Tp)
        ]
        t_squares = [(t, f) for Tp in aux for t in theory_morphisms(theory, Tp) for f in left]
        expected = []
        for idx, (Bp, b, g) in enumerate(b_squares):
            if corrupt(Bp, g.compose(lang_hom(b))) != corrupt(B, g).compose(b):
                expected.append(
                    {
                        "id": f"nat:{idx}",
                        "kind": "naturality",
                        "variable": "B",
                        "b_atom_map": list(b.atom_map),
                        "b_source_atoms": Bp.atom_count,
                        "g_atom_map": list(g.hom.atom_map),
                    }
                )
        sampled = [t_squares[index] for index in t_indices(len(t_squares))]
        for idx, (t, f) in enumerate(sampled, start=len(b_squares)):
            if corrupt(B, t.compose(f)) != t.hom.compose(corrupt(B, f)):
                expected.append(
                    {
                        "id": f"nat:{idx}",
                        "kind": "naturality",
                        "variable": "T",
                        "t_atom_map": list(t.hom.atom_map),
                        "f_atom_map": list(f.hom.atom_map),
                    }
                )
        return len(b_squares) + len(t_squares), len(b_squares) + len(sampled), expected

    @staticmethod
    def _naturality_findings(rep):
        return [c for c in rep.counterexamples if c["id"].startswith("nat:")]

    def test_exhaustive_naturality_matches_materialised_reference(self, xor_pair):
        B = FiniteBooleanAlgebra(3)
        rep = check_adjunction(B, xor_pair, transpose_fn=self._one_atom_target)
        total, checked, expected = self._split_reference(B, xor_pair, self._one_atom_target, range)
        assert rep.naturality_total == rep.naturality_checked == total == checked == 162
        assert {c["variable"] for c in expected} == {"B", "T"}
        assert self._naturality_findings(rep) == expected

    def test_sampled_naturality_matches_materialised_reference(self):
        # Syn T has 8 atoms: 8 * 3**8 T-squares, past the exhaustive limit
        (theory,) = parse_file("theory FREE3 prop { letters x, y, z; }")
        B, seed = FiniteBooleanAlgebra(3), 41
        assert syn(theory).atom_count == 8

        rep = check_adjunction(B, theory, seed=seed, transpose_fn=self._one_atom_target)

        def sample(n):
            assert n > 10**4
            rng = random.Random(seed)
            return [rng.randrange(n) for _ in range(500)]

        total, checked, expected = self._split_reference(B, theory, self._one_atom_target, sample)
        assert rep.naturality_total == total == 27 + 8 * 3**8
        assert rep.naturality_checked == checked == 27 + 500
        assert {c["variable"] for c in expected} == {"B", "T"}
        assert self._naturality_findings(rep) == expected

    def test_transpose_called_once_per_morphism_and_sample(self, xor_pair):
        # left + right + one per g: Lang(B) -> AUX + one per checked square
        for B, T, calls_expected in [
            (FiniteBooleanAlgebra(2), xor_pair, 4 + 4 + 2 + 5 * 6 + 6 * 4),
            (FiniteBooleanAlgebra(3), lang(FiniteBooleanAlgebra(3)), 27 + 27 + 3 + 9 * 3 + 3 * 27),
        ]:
            calls = []

            def counting(A, f):
                calls.append(A)
                return transpose(A, f)

            rep = check_adjunction(B, T, transpose_fn=counting)
            assert rep.passed
            assert len(calls) == calls_expected
            assert len(calls) == rep.left_count + rep.right_count + B.atom_count + rep.naturality_checked

    def test_brain_pair_checks_108_squares(self):
        rep = check_adjunction(FiniteBooleanAlgebra(3), lang(FiniteBooleanAlgebra(3)))
        assert rep.passed
        assert rep.naturality_total == rep.naturality_checked == 9 * 3 + 3 * 27 == 108

    def test_split_check_fails_wherever_the_joint_check_fails(self):
        # Mac Lane II.3: natural in each variable implies natural jointly, so
        # under any corruption a joint failure must show as a split failure
        corruptions = [
            self._corrupt,
            *(self._shift_at(k) for k in (1, 2, 3, 4)),
            self._one_atom_target,
        ]
        joint_failures = 0
        for corrupt in corruptions:
            for m in range(5):
                for k in range(5):
                    B, T = FiniteBooleanAlgebra(m), lang(FiniteBooleanAlgebra(k))
                    if next(self._naturality_reference(B, T, corrupt), None) is None:
                        continue
                    joint_failures += 1
                    rep = check_adjunction(B, T, transpose_fn=corrupt)
                    assert not rep.naturality_ok, (corrupt, m, k)
        assert joint_failures == 56

    @staticmethod
    def _mutated_compose(monkeypatch, source):
        # a wrong composite for every theory morphism out of `source`
        real = TheoryMorphism.compose

        def compose(self, other):
            r = real(self, other)
            if self.source is not source or r.hom.source.atom_count < 2:
                return r
            n = r.hom.source.atom_count
            hom = BoolHom(r.hom.source, r.hom.target, tuple((i + 1) % n for i in r.hom.atom_map))
            return TheoryMorphism(r.source, r.target, hom)

        monkeypatch.setattr(TheoryMorphism, "compose", compose)

    @pytest.mark.parametrize("variable", ["B", "T"])
    def test_a_family_only_mutation_is_reported_with_its_variable(self, monkeypatch, xor_pair, variable):
        # Lang(B) is the source of the B-family's g . Lang b, T that of the
        # T-family's t . f; nothing else composes theory morphisms
        B = FiniteBooleanAlgebra(3)
        self._mutated_compose(monkeypatch, lang(B) if variable == "B" else xor_pair)
        rep = check_adjunction(B, xor_pair)
        assert rep.bijection_ok and rep.round_trip_ok and not rep.naturality_ok
        findings = self._naturality_findings(rep)
        assert findings == rep.counterexamples
        assert {c["variable"] for c in findings} == {variable}
        b_total = 9 * (9 + 3)
        assert all((int(c["id"][4:]) < b_total) == (variable == "B") for c in findings)


def _fresh(text):
    # a newly parsed theory: nothing is in its memo yet
    return parse_file(text)[0]


class TestMemo:
    @staticmethod
    def _count_model_walks(monkeypatch):
        seen = []
        real = boolalg._iter_models
        monkeypatch.setattr(boolalg, "_iter_models", lambda t: seen.append(t) or real(t))
        return seen

    def test_syn_of_a_theory_is_derived_once(self, monkeypatch):
        T = _fresh("theory MEMO_SYN prop { letters p, q; axiom or(p, q); }")
        seen = self._count_model_walks(monkeypatch)
        first = check_adjunction(FiniteBooleanAlgebra(2), T)
        second = check_adjunction(FiniteBooleanAlgebra(2), T)
        assert first.passed and second.passed
        assert sum(t is T for t in seen) == 1

    def test_one_model_walk_serves_every_lindenbaum_caller(self, monkeypatch):
        T = _fresh("theory MEMO_WALK prop { letters p, q; axiom implies(p, q); }")
        seen = self._count_model_walks(monkeypatch)
        B = syn(T)
        assert len(syn_prop(T).objects) == B.element_count == 8
        assert entails(T, T.axioms[0])
        lin = lindenbaum_algebra(T)
        assert lin.algebra is B and lin.theory is T
        assert seen == [T]

    def test_canonical_iso_and_its_inverse_are_built_once(self, monkeypatch):
        # once per algebra object: an equal algebra built apart has its own
        T = _fresh("theory MEMO_ISO prop { letters memo_a, memo_b; axiom or(memo_a, memo_b); }")
        B = syn(T)
        twin = FiniteBooleanAlgebra(B.atom_count, B.atom_labels)
        inverses = []
        real = BoolHom.inverse
        monkeypatch.setattr(BoolHom, "inverse", lambda h: inverses.append(h) or real(h))
        iso = canonical_iso(B)
        assert all(canonical_iso(B) is iso for _ in range(3))
        homs = enumerate_homs(B, syn(T))
        for g in homs:
            assert transpose(B, untranspose(B, T, g)) == g
        assert len(homs) == 27 and inverses == [iso]
        twin_iso = canonical_iso(twin)
        assert twin_iso is not iso and twin_iso == iso
        assert canonical_iso(twin) is twin_iso
        assert inverses == [iso, twin_iso]
        assert B._memo["lang"] is twin._memo["lang"] is lang(B)

    def test_transposition_on_a_warm_algebra_does_not_hash_it(self, xor_pair):
        # the isos are read off the algebra's memo, not looked up in lang's cache
        B = FiniteBooleanAlgebra(2)
        canonical_iso(B)
        homs = enumerate_homs(B, syn(xor_pair))
        before = lang.cache_info()
        for g in homs:
            assert transpose(B, untranspose(B, xor_pair, g)) == g
        assert lang.cache_info() == before


class TestLangFunctorial:
    def test_identity_and_composition(self):
        rng = random.Random(12)
        for _ in range(15):
            sizes = [rng.randint(1, 3) for _ in range(3)]
            A, B, C = (FiniteBooleanAlgebra(n) for n in sizes)
            h = BoolHom(A, B, tuple(rng.randrange(sizes[0]) for _ in range(sizes[1])))
            g = BoolHom(B, C, tuple(rng.randrange(sizes[1]) for _ in range(sizes[2])))
            assert lang_hom(BoolHom.identity(A)).hom == BoolHom.identity(syn(lang(A)))
            assert lang_hom(g.compose(h)).hom == lang_hom(g).hom.compose(lang_hom(h).hom)

    def test_lang_hom_direction_covariant(self):
        A, B = FiniteBooleanAlgebra(1), FiniteBooleanAlgebra(2)
        h = BoolHom(A, B, (0, 0))
        m = lang_hom(h)
        assert m.source == lang(A) and m.target == lang(B)
