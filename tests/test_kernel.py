import random

import pytest

from catlogic.errors import (
    ArityMismatchError,
    InvalidTheoryError,
    SortMismatchError,
    UnboundVariableError,
)
from catlogic.kernel import (
    App,
    Atom,
    Equation,
    Fragment,
    FunctionSymbol,
    Implies,
    Not,
    RelationSymbol,
    RewriteRule,
    Sort,
    Theory,
    Top,
    Variable,
    check_well_formed,
    diagnose,
    free_vars,
    sort_conflicts,
    sort_of_term,
    substitute,
)

from oracles import substitute_term_once

X = Sort("X")
MUL = FunctionSymbol("mul", (X, X), X)
INV = FunctionSymbol("inv", (X,), X)
U = FunctionSymbol("u", (), X)

x, y, z = Variable("x", X), Variable("y", X), Variable("z", X)


def mul(a, b):
    return App(MUL, (a, b))


def inv(a):
    return App(INV, (a,))


u = App(U)


class TestSortOfTerm:
    def test_variable(self):
        assert sort_of_term(x, [x]) == X

    def test_group_term(self):
        assert sort_of_term(mul(x, inv(y)), [x, y]) == X

    def test_arity_violation(self):
        with pytest.raises(ArityMismatchError):
            sort_of_term(App(MUL, (x,)), [x])

    def test_unbound(self):
        with pytest.raises(UnboundVariableError):
            sort_of_term(mul(x, y), [x])

    def test_wrong_argument_sort(self):
        other = Sort("Y")
        w = Variable("w", other)
        with pytest.raises(SortMismatchError):
            sort_of_term(mul(x, w), [x, w])

    def test_context_with_a_name_at_two_sorts_is_rejected_in_one_way(self):
        # the message names the variable and both sorts in sorted order,
        # whatever the order (or hash order) of the context
        A, B = Sort("A"), Sort("B")
        xa, xb = Variable("x", A), Variable("x", B)
        ax = Equation(App(FunctionSymbol("f", (A, B), A), (xa, xb)), xa)
        messages = set()
        for context in (free_vars(ax), [xa, xb], [xb, xa]):
            with pytest.raises(SortMismatchError) as err:
                sort_of_term(ax.lhs, context)
            messages.add(str(err.value))
        assert messages == {"variable x bound at sorts A and B"}


class TestSubstitute:
    def test_simple(self):
        assert substitute(mul(x, y), {x: u, y: u}) == mul(u, u)

    def test_variable_hit(self):
        assert substitute(x, {x: inv(z)}) == inv(z)

    def test_simultaneous_not_sequential(self):
        # one-pass oracle vs the kernel, against the sequential reading
        swapped = substitute(mul(x, y), {x: y, y: x})
        assert swapped == mul(y, x)
        assert swapped == substitute_term_once(mul(x, y), {x: y, y: x})
        sequential = substitute(substitute(mul(x, y), {x: y}), {y: x})
        assert sequential == mul(x, x)
        assert swapped != sequential

    def test_identity_mapping(self):
        t = mul(x, inv(mul(y, z)))
        assert substitute(t, {x: x, y: y, z: z}) == t
        assert substitute(t, {}) == t

    def test_sort_respecting_required(self):
        w = Variable("w", Sort("Y"))
        with pytest.raises(SortMismatchError):
            substitute(x, {x: w})

    def test_composition_law_random(self):
        # substitute(substitute(e, s), t) == substitute(e, t.s)
        rng = random.Random(11)
        pool = [x, y, z]

        def random_term(depth):
            if depth == 0 or rng.random() < 0.4:
                return rng.choice(pool + [u])
            if rng.random() < 0.5:
                return inv(random_term(depth - 1))
            return mul(random_term(depth - 1), random_term(depth - 1))

        for _ in range(200):
            e = random_term(3)
            sigma = {v: random_term(2) for v in pool if rng.random() < 0.7}
            tau = {v: random_term(2) for v in pool if rng.random() < 0.7}
            composed = {v: substitute(t, tau) for v, t in sigma.items()}
            for v in tau:
                composed.setdefault(v, tau[v])
            assert substitute(substitute(e, sigma), tau) == substitute(e, composed)

    def test_free_vars_of_substitution(self):
        e = mul(x, inv(y))
        sigma = {x: mul(y, z), y: u}
        expected = free_vars(sigma[x]) | free_vars(sigma[y])
        assert free_vars(substitute(e, sigma)) == expected

    def test_free_vars_of_substitution_random(self):
        rng = random.Random(13)
        pool = [x, y, z]

        def random_term(depth):
            if depth == 0 or rng.random() < 0.4:
                return rng.choice(pool + [u])
            if rng.random() < 0.5:
                return inv(random_term(depth - 1))
            return mul(random_term(depth - 1), random_term(depth - 1))

        for _ in range(200):
            e = random_term(3)
            sigma = {v: random_term(2) for v in pool if rng.random() < 0.7}
            total = sigma | {v: v for v in pool if v not in sigma}
            expected = frozenset().union(
                *(free_vars(total[v]) for v in free_vars(e)), frozenset()
            )
            assert free_vars(substitute(e, sigma)) == expected


class TestFreeVars:
    def test_constant(self):
        assert free_vars(u) == frozenset()

    def test_single(self):
        assert free_vars(mul(x, inv(x))) == {x}

    def test_three(self):
        assert free_vars(mul(x, mul(y, z))) == {x, y, z}

    def test_formulas(self):
        p, r = RelationSymbol("p"), RelationSymbol("r", (X, X))
        assert free_vars(Top()) == frozenset()
        assert free_vars(Atom(p)) == frozenset()
        assert free_vars(Not(Atom(r, (x, inv(y))))) == {x, y}
        assert free_vars(Implies(Atom(p), Equation(mul(z, u), x))) == {x, z}

    def test_rejects_a_non_node(self):
        with pytest.raises(TypeError, match="not a term or formula"):
            free_vars(Not(3))

    def test_sort_conflicts_sorted_across_parts(self):
        B = Sort("B")
        assert sort_conflicts(mul(x, y)) == []
        assert sort_conflicts(Variable("y", B), mul(x, Variable("x", B)), y, x) == ["x", "y"]


class TestMemo:
    def test_memo_is_outside_init_equality_hash_and_repr(self):
        t = Theory(name="T", fragment=Fragment.EQ, sorts=(X,), functions=(MUL,), axioms=(Equation(mul(x, y), x),))
        twin = Theory(name="T", fragment=Fragment.EQ, sorts=(X,), functions=(MUL,), axioms=(Equation(mul(x, y), x),))
        check_well_formed(t)
        assert t._memo and not twin._memo
        assert t == twin and hash(t) == hash(twin) and repr(t) == repr(twin)
        assert "_memo" not in repr(t)
        with pytest.raises(TypeError):
            Theory(name="T", fragment=Fragment.EQ, _memo={})

    def test_replace_starts_an_empty_memo(self):
        import dataclasses

        t = check_well_formed(Theory(name="T", fragment=Fragment.EQ, sorts=(X,), functions=(MUL,)))
        assert "well_formed" in t._memo
        bad = dataclasses.replace(t, axioms=(Equation(App(MUL, (x,)), x),))
        assert bad._memo == {}
        with pytest.raises(InvalidTheoryError):
            check_well_formed(bad)


class TestCheckWellFormed:
    def test_group_valid(self, group_theory):
        t = check_well_formed(group_theory)
        assert len(t.sorts) == 1
        assert len(t.functions) == 3
        assert len(t.axioms) == 5

    def test_prop_valid(self, xor_pair):
        t = check_well_formed(xor_pair)
        assert len(t.relations) == 2
        assert len(t.axioms) == 2

    def test_idempotent(self, group_theory):
        assert check_well_formed(check_well_formed(group_theory)) == group_theory

    def test_a_pass_is_kept_and_a_failure_raises_every_time(self, monkeypatch):
        import catlogic.kernel as kernel

        calls = []
        real = kernel.diagnose
        monkeypatch.setattr(kernel, "diagnose", lambda t: calls.append(t.name) or real(t))
        good = Theory(name="GOOD", fragment=Fragment.EQ, sorts=(X,), functions=(MUL,), axioms=(Equation(mul(x, y), x),))
        bad = Theory(name="BAD", fragment=Fragment.EQ, sorts=(X,), functions=(MUL,), axioms=(Equation(App(MUL, (x,)), x),))
        for _ in range(2):
            assert check_well_formed(good) is good
            with pytest.raises(InvalidTheoryError):
                check_well_formed(bad)
        assert calls == ["GOOD", "BAD", "BAD"]

    def test_arity_violation(self):
        bad = Theory(
            name="BAD",
            fragment=Fragment.EQ,
            sorts=(X,),
            functions=(MUL, U),
            axioms=(Equation(App(MUL, (x,)), App(U)),),
        )
        with pytest.raises(InvalidTheoryError) as err:
            check_well_formed(bad)
        assert any(d.code == "arity-mismatch" for d in err.value.diagnostics)

    def test_fragment_violation_equation_in_prop(self):
        bad = Theory(
            name="BAD",
            fragment=Fragment.PROP,
            relations=(RelationSymbol("p"),),
            axioms=(Equation(x, x),),
        )
        diags = diagnose(bad)
        assert any(d.code == "fragment-violation" for d in diags)

    def test_fragment_violation_connective_in_eq(self, group_theory):
        from catlogic.kernel import Top

        bad = Theory(
            name="BAD",
            fragment=Fragment.EQ,
            sorts=group_theory.sorts,
            functions=group_theory.functions,
            axioms=(Top(),),
        )
        assert any(d.code == "fragment-violation" for d in diagnose(bad))

    def test_duplicate_names(self):
        bad = Theory(
            name="BAD",
            fragment=Fragment.PROP,
            relations=(RelationSymbol("p"), RelationSymbol("p")),
        )
        assert any(d.code == "duplicate-name" for d in diagnose(bad))

    def test_one_sort_conflict_per_name_in_name_order(self):
        A, B = Sort("A"), Sort("B")
        f = FunctionSymbol("f", (A, B, A, B), A)
        xa, xb, ya, yb = Variable("x", A), Variable("x", B), Variable("y", A), Variable("y", B)
        bad = Theory(
            name="BAD",
            fragment=Fragment.EQ,
            sorts=(A, B),
            functions=(f,),
            axioms=(Equation(App(f, (ya, yb, xa, xb)), xa), Equation(App(f, (xa, xb, xa, xb)), xb)),
            rewrites=(RewriteRule(App(f, (ya, xb, xa, yb)), ya),),
        )
        found = [(d.code, d.message, d.path) for d in diagnose(bad)]
        assert found == [
            ("sort-mismatch", "variable x used at two different sorts", "axiom[0]"),
            ("sort-mismatch", "variable y used at two different sorts", "axiom[0]"),
            # the sides check is skipped once the equation has a finding
            ("sort-mismatch", "variable x used at two different sorts", "axiom[1]"),
            ("sort-mismatch", "variable x used at two different sorts", "rewrite[0]"),
            ("sort-mismatch", "variable y used at two different sorts", "rewrite[0]"),
        ]

    def test_accepts_exactly_sortable_terms(self, group_theory):
        # every axiom side sort-checks over its free variables
        for ax in group_theory.axioms:
            ctx = free_vars(ax)
            assert sort_of_term(ax.lhs, ctx) == sort_of_term(ax.rhs, ctx)
