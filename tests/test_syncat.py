import gc
import random
import weakref

import pytest

from catlogic.adjunction import syn
from catlogic.dsl import parse_file, parse_theory
from catlogic.errors import NoNormalizerError
from catlogic.kernel import App, Variable
from catlogic.syncat import (
    Context,
    SynMorphism,
    check_category_laws,
    detect_group_presentation,
    normalize,
    reduced_words,
    syn_eq,
    syn_prop,
    word_of_term,
)

from conftest import fixture_text
from oracles import reduce_word_random_order


@pytest.fixture(scope="module")
def group(group_theory):
    return group_theory


@pytest.fixture(scope="module")
def gsig(group):
    sig = detect_group_presentation(group)
    assert sig is not None
    return sig


def gterm(group, expr):
    """Tiny helper: build group terms from nested tuples."""
    mul, inv, u = group.function("mul"), group.function("inv"), group.function("u")
    X = group.sorts[0]

    def build(e):
        if isinstance(e, str):
            return App(u) if e == "u" else Variable(e, X)
        op, *args = e
        if op == "*":
            return App(mul, (build(args[0]), build(args[1])))
        return App(inv, (build(args[0]),))

    return build(expr)


class TestGroupDetection:
    def test_fixture_detected(self, group, gsig):
        assert gsig.mul.name == "mul" and gsig.inv.name == "inv" and gsig.unit.name == "u"

    def test_different_names_detected(self):
        src = """
        theory G2 eq {
          sort G;
          op star : G, G -> G;
          op neg : G -> G;
          op e : -> G;
          axiom star(star(a, b), c) = star(a, star(b, c));
          axiom star(e, a) = a;
          axiom star(a, e) = a;
          axiom star(neg(a), a) = e;
          axiom star(a, neg(a)) = e;
        }
        """
        sig = detect_group_presentation(parse_theory(src))
        assert sig is not None and sig.mul.name == "star"

    def test_alt_presentation_not_detected(self, group_alt_theory):
        assert detect_group_presentation(group_alt_theory) is None

    def test_prop_not_detected(self, xor_pair):
        assert detect_group_presentation(xor_pair) is None


class TestNormalize:
    def test_cancellation(self, group):
        # (x*y)*y^-1 reduces to x
        t = gterm(group, ("*", ("*", "x", "y"), ("-", "y")))
        assert normalize(group, t) == gterm(group, "x")

    def test_unit_axioms(self, group):
        t = gterm(group, ("*", ("*", "x", "u"), ("-", "x")))
        assert normalize(group, t) == gterm(group, "u")

    def test_unit_fixed_point(self, group):
        assert normalize(group, gterm(group, "u")) == gterm(group, "u")

    def test_inverse_of_product_distributes(self, group, gsig):
        t = gterm(group, ("-", ("*", "x", "y")))
        w = word_of_term(t, gsig, {"x": 0, "y": 1})
        assert w == (-2, -1)

    def test_idempotent_random(self, group):
        rng = random.Random(17)
        X = group.sorts[0]
        pool = [Variable(n, X) for n in ("x", "y", "z")]
        mul, inv, u = group.function("mul"), group.function("inv"), group.function("u")

        def random_term(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(pool + [App(u)])
            if rng.random() < 0.4:
                return App(inv, (random_term(depth - 1),))
            return App(mul, (random_term(depth - 1), random_term(depth - 1)))

        for _ in range(300):
            t = random_term(4)
            once = normalize(group, t)
            assert normalize(group, once) == once

    def test_word_length_never_grows(self, group, gsig):
        # the syn_eq truncation measure: reduced letters vs raw letters
        rng = random.Random(18)
        letters = [s * g for g in (1, 2) for s in (1, -1)]
        for _ in range(500):
            raw = [rng.choice(letters) for _ in range(rng.randint(0, 12))]
            from catlogic._core import reduce_word

            assert len(reduce_word(raw)) <= len(raw)

    def test_reduction_order_independent(self):
        from catlogic._core import reduce_word

        rng = random.Random(19)
        letters = [s * g for g in (1, 2, 3) for s in (1, -1)]
        for _ in range(2000):
            raw = [rng.choice(letters) for _ in range(rng.randint(0, 16))]
            assert reduce_word(raw) == reduce_word_random_order(raw, rng)

    def test_normal_forms_sound_for_finite_models(self, group):
        # s and normalize(s) must evaluate identically in every model of
        # size <= 3 under every environment
        from catlogic.models import enumerate_models, eval_term

        models = []
        for size in (1, 2, 3):
            models.extend(enumerate_models(group, size))
        rng = random.Random(23)
        X = group.sorts[0]
        pool = [Variable(n, X) for n in ("x", "y")]
        mul, inv, u = group.function("mul"), group.function("inv"), group.function("u")

        def random_term(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(pool + [App(u)])
            if rng.random() < 0.4:
                return App(inv, (random_term(depth - 1),))
            return App(mul, (random_term(depth - 1), random_term(depth - 1)))

        from itertools import product as prod

        for _ in range(300):
            s = random_term(4)
            t = normalize(group, s)
            for m in models:
                n = m.sizes[0]
                for values in prod(range(n), repeat=2):
                    env = dict(zip(pool, values))
                    assert eval_term(m, s, env) == eval_term(m, t, env)

    def test_rewrite_system_theory(self):
        squash = parse_theory(fixture_text("idempotent.thy"))
        f = squash.function("f")
        A = squash.sorts[0]
        x = Variable("x", A)
        t = App(f, (App(f, (App(f, (x,)),)),))
        assert normalize(squash, t) == App(f, (x,))

    def test_no_normalizer(self, group_alt_theory):
        X = group_alt_theory.sorts[0]
        with pytest.raises(NoNormalizerError):
            normalize(group_alt_theory, Variable("x", X))

    @pytest.mark.parametrize("name", ["group.thy", "idempotent.thy"])
    def test_normalizer_derived_once_per_theory(self, monkeypatch, name):
        import catlogic.syncat as syncat

        theory = parse_theory(fixture_text(name))  # a fresh instance: nothing derived yet
        real = syncat.detect_group_presentation
        fresh = syncat._normalizer(theory, real(theory))
        calls = []

        def counting(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(syncat, "detect_group_presentation", counting)
        sort = theory.sorts[0]
        rng = random.Random(40)

        def term(depth):
            if depth == 0 or rng.random() < 0.3:
                return Variable(rng.choice("xyz"), sort)
            fn = rng.choice(theory.functions)
            return App(fn, tuple(term(depth - 1) for _ in range(fn.arity)))

        terms = [term(4) for _ in range(40)]
        assert [normalize(theory, t) for t in terms] == [fresh(t) for t in terms]
        assert calls == [theory]
        syn_eq(theory, 2)
        assert calls == [theory]
        assert theory == parse_theory(fixture_text(name))  # not a field


def _normalize_a_variable(theory):
    normalize(theory, Variable("x", theory.sorts[0]))


class TestMemoLifetime:
    @pytest.mark.parametrize(
        "fixture,name,derive,key",
        [
            ("props.thy", "XOR_PAIR", syn, "lindenbaum"),
            ("group.thy", "GROUP", _normalize_a_variable, "normal"),
            ("idempotent.thy", "SQUASH", _normalize_a_variable, "normal"),
        ],
    )
    def test_memo_keeps_no_theory_alive(self, fixture, name, derive, key):
        # with the cycle collector off only refcounting frees a theory, so a
        # memo entry that refers back to its theory would keep it alive
        gc.disable()
        try:
            theory = next(t for t in parse_file(fixture_text(fixture)) if t.name == name)
            derive(theory)
            assert key in theory._memo
            ref = weakref.ref(theory)
            del theory
            assert ref() is None
        finally:
            gc.enable()


class TestReducedWords:
    def test_one_generator_length_three(self):
        words = reduced_words(1, 3)
        assert len(words) == 7
        assert set(words) == {(), (1,), (-1,), (1, 1), (-1, -1), (1, 1, 1), (-1, -1, -1)}

    def test_no_cancellable_pairs(self):
        for w in reduced_words(2, 4):
            assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))

    def test_counts_follow_recurrence(self):
        # k generators: 2k words of length 1, each extended (2k-1) ways
        for k in (1, 2, 3):
            words = reduced_words(k, 4)
            by_len = {}
            for w in words:
                by_len[len(w)] = by_len.get(len(w), 0) + 1
            assert by_len[0] == 1
            if k >= 1:
                assert by_len[1] == 2 * k
                for l in (2, 3, 4):
                    assert by_len[l] == by_len[l - 1] * (2 * k - 1)


class TestSynProp:
    def test_xor_pair_poset(self, xor_pair):
        cat = syn_prop(xor_pair)
        assert len(cat.objects) == 4
        assert cat.morphism_count() == 9

    def test_inconsistent(self, prop_theories):
        cat = syn_prop(prop_theories["CONTRA"])
        assert len(cat.objects) == 1
        assert cat.morphism_count() == 1

    def test_empty_theory_chain(self, prop_theories):
        cat = syn_prop(prop_theories["EMPTY"])
        assert len(cat.objects) == 2
        assert cat.morphism_count() == 3

    def test_hom_iff_leq(self, xor_pair):
        from catlogic.boolalg import lindenbaum_algebra

        cat = syn_prop(xor_pair)
        alg = lindenbaum_algebra(xor_pair).algebra
        for a in cat.objects:
            for b in cat.objects:
                assert bool(cat.hom(a, b)) == alg.leq(a, b)

    def test_closed_form_count_matches_scan(self):
        from catlogic.kernel import Fragment, RelationSymbol, Theory

        for n_letters in (0, 1, 2, 3):
            t = Theory(
                name="FREE",
                fragment=Fragment.PROP,
                relations=tuple(RelationSymbol(f"p{i}") for i in range(n_letters)),
            )
            cat = syn_prop(t)
            scanned = sum(len(cat.hom(a, b)) for a in cat.objects for b in cat.objects)
            assert cat.morphism_count() == scanned

    def test_composition_total_on_composables(self, xor_pair):
        cat = syn_prop(xor_pair)
        for a in cat.objects:
            for b in cat.objects:
                for c in cat.objects:
                    for f in cat.hom(a, b):
                        for g in cat.hom(b, c):
                            assert cat.compose(g, f) in cat.hom(a, c)


class TestSynEq:
    def test_seven_morphisms_at_depth_three(self, group):
        cat = syn_eq(group, 3)
        one = [o for o in cat.objects if len(o.variables) == 1]
        homs = cat.hom(one[0], one[0])
        assert len(homs) == 7

    def test_depth_enumeration_matches_raw_word_oracle(self, group, gsig):
        # enumerate every raw word of length <= 3, reduce, dedupe
        from itertools import product as prod

        from catlogic._core import reduce_word

        cat = syn_eq(group, 3)
        one = [o for o in cat.objects if len(o.variables) == 1][0]
        got = {m.terms[0] for m in cat.hom(one, one)}
        from catlogic.syncat import term_of_word

        expected = set()
        for length in range(4):
            for raw in prod([1, -1], repeat=length):
                expected.add(term_of_word(reduce_word(raw), gsig, list(one.variables)))
        assert got == expected

    def test_identity_is_variable_tuple(self, group):
        cat = syn_eq(group, 2)
        two = [o for o in cat.objects if len(o.variables) == 2][0]
        ident = cat.identity(two)
        assert ident.terms == two.variables

    def test_compose_example(self, group):
        cat = syn_eq(group, 2)
        by_size = {len(o.variables): o for o in cat.objects}
        mul, u = group.function("mul"), group.function("u")
        pair, single, empty = by_size[2], by_size[1], by_size[0]
        f = SynMorphism(empty, pair, (App(u), App(u)))
        g = SynMorphism(pair, single, (App(mul, (pair.variables[0], pair.variables[1])),))
        assert cat.compose(g, f).terms == (App(u),)

    def test_identity_neutral_exhaustive_depth_two(self, group):
        cat = syn_eq(group, 2)
        for a in cat.objects:
            for b in cat.objects:
                for f in cat.hom(a, b):
                    assert cat.compose(f, cat.identity(a)) == f
                    assert cat.compose(cat.identity(b), f) == f

    def test_no_normalizer_rejected(self, group_alt_theory):
        with pytest.raises(NoNormalizerError):
            syn_eq(group_alt_theory, 2)

    def test_rewrite_theory_category(self):
        squash = parse_theory(fixture_text("idempotent.thy"))
        cat = syn_eq(squash, 2)
        one = [o for o in cat.objects if len(o.variables) == 1][0]
        # normal forms over one variable at depth 2: x, f(x)
        assert len(cat.hom(one, one)) == 2


class TestCategoryLaws:
    def test_prop_laws(self, xor_pair):
        rep = check_category_laws(syn_prop(xor_pair), 100, seed=5)
        assert rep.passed
        assert rep.identity_checked == 100
        assert rep.associativity_checked == 100

    def test_group_laws(self, group):
        rep = check_category_laws(syn_eq(group, 3), 100, seed=6)
        assert rep.passed

    def test_corrupted_composition_reported(self, group):
        cat = syn_eq(group, 2)
        good_compose = cat.compose

        def broken_compose(g, f):
            out = good_compose(g, f)
            if len(out.target.variables) == 1 and len(out.source.variables) >= 1:
                # misreport x as the composite, whatever it was
                return SynMorphism(out.source, out.target, (out.source.variables[0],))
            return out

        cat.compose = broken_compose
        rep = check_category_laws(cat, 60, seed=7)
        assert not rep.passed
        assert rep.counterexamples
