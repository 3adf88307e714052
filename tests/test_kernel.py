import random

import pytest

from catlogic.errors import InvalidTheoryError, SortMismatchError
from catlogic.kernel import (
    And,
    App,
    Atom,
    Equation,
    Fragment,
    FunctionSymbol,
    Implies,
    Not,
    Or,
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
        p = RelationSymbol("p")
        assert free_vars(Top()) == frozenset()
        assert free_vars(Atom(p)) == frozenset()
        assert free_vars(Not(Equation(x, inv(y)))) == {x, y}
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


A, B = Sort("A"), Sort("B")
a, b = Variable("a", A), Variable("b", B)
p, q = RelationSymbol("p"), RelationSymbol("q")
F_AB = FunctionSymbol("f", (A, B), A)
G_A = FunctionSymbol("g", (A,), A)
K_B = FunctionSymbol("k", (), B)


def _eq(**parts):
    return Theory(name="T", fragment=Fragment.EQ, **parts)


def _prop(**parts):
    return Theory(name="T", fragment=Fragment.PROP, **parts)


# (id, theory, every finding as (code, message, path)); hand-built, so the
# branches the DSL never reaches are pinned too
DIAGNOSE_ROWS = [
    ("sort-twice", _eq(sorts=(X, X)), [("duplicate-name", "sort X declared twice", "sort X")]),
    ("op-twice", _eq(sorts=(X,), functions=(U, U)), [("duplicate-name", "op u declared twice", "op u")]),
    (
        "op-undeclared-sort",
        _eq(sorts=(A,), functions=(F_AB,)),
        [("unknown-symbol", "op f uses undeclared sort B", "op f")],
    ),
    ("relation-twice", _prop(relations=(p, p)), [("duplicate-name", "relation p declared twice", "rel p")]),
    (
        "prop-sorts-and-ops",
        _prop(sorts=(X,), functions=(U,)),
        [
            ("fragment-violation", "PROP theory declares sorts", "sorts"),
            ("fragment-violation", "PROP theory declares function symbols", "ops"),
        ],
    ),
    (
        "prop-rewrites",
        _prop(rewrites=(RewriteRule(x, x),)),
        [
            ("fragment-violation", "PROP theory declares rewrite rules", "rewrites"),
            ("unknown-symbol", "variable x has undeclared sort", "rewrite[0]/lhs"),
            ("unknown-symbol", "variable x has undeclared sort", "rewrite[0]/rhs"),
        ],
    ),
    ("eq-relations", _eq(relations=(p,)), [("fragment-violation", "EQ theory declares relation symbols", "rels")]),
    (
        "equation-in-prop",
        _prop(relations=(p,), axioms=(Or(Atom(p), Not(Equation(x, x))),)),
        [("fragment-violation", "equation in a PROP theory", "axiom[0]/or[1]/not")],
    ),
    ("eq-not-bare", _eq(sorts=(X,), axioms=(Top(),)), [("fragment-violation", "EQ axioms must be bare equations", "axiom[0]")]),
    (
        "undeclared-relation",
        _prop(relations=(p,), axioms=(And(Atom(p), Atom(q)),)),
        [("unknown-symbol", "undeclared relation q", "axiom[0]/and[1]")],
    ),
    (
        "unrecognized-formula",
        _prop(axioms=(Implies(Top(), "r"),)),
        [("unknown-symbol", "unrecognized formula node 'r'", "axiom[0]/implies[1]")],
    ),
    (
        "equation-sides",
        _eq(sorts=(A, B), axioms=(Equation(a, b),)),
        [("sort-mismatch", "equation sides have sorts A and B", "axiom[0]")],
    ),
    (
        "equation-variable-at-two-sorts",
        _eq(sorts=(A, B), functions=(F_AB,), axioms=(Equation(App(F_AB, (a, Variable("a", B))), a),)),
        [("sort-mismatch", "variable a used at two different sorts", "axiom[0]")],
    ),
    (
        "variable-undeclared-sort",
        _eq(sorts=(A,), axioms=(Equation(a, Variable("w", X)),)),
        [("unknown-symbol", "variable w has undeclared sort", "axiom[0]/rhs")],
    ),
    (
        "argument-sort",
        _eq(sorts=(A, B), functions=(G_A,), axioms=(Equation(App(G_A, (b,)), a),)),
        [("sort-mismatch", "b has sort B, expected A", "axiom[0]/lhs/arg[0]")],
    ),
    ("undeclared-op", _eq(sorts=(X,), axioms=(Equation(u, x),)), [("unknown-symbol", "undeclared op u", "axiom[0]/lhs")]),
    (
        "op-arity",
        _eq(sorts=(X,), functions=(MUL,), axioms=(Equation(x, App(MUL, (x,))),)),
        [("arity-mismatch", "mul expects 2 argument(s), got 1", "axiom[0]/rhs")],
    ),
    (
        "op-result-sort",
        _eq(sorts=(A, B), functions=(G_A, K_B), axioms=(Equation(App(G_A, (App(K_B),)), a),)),
        [("sort-mismatch", "k returns B, expected A", "axiom[0]/lhs/arg[0]")],
    ),
    (
        "unrecognized-term",
        _eq(sorts=(X,), axioms=(Equation(Top(), x),)),
        [("unknown-symbol", "unrecognized term node Top()", "axiom[0]/lhs")],
    ),
    (
        "rewrite-variable-at-two-sorts",
        _eq(sorts=(A, B), functions=(F_AB,), rewrites=(RewriteRule(App(F_AB, (a, Variable("a", B))), a),)),
        [("sort-mismatch", "variable a used at two different sorts", "rewrite[0]")],
    ),
    (
        "rewrite-undeclared-op",
        _eq(sorts=(X,), functions=(INV,), rewrites=(RewriteRule(inv(x), mul(x, x)),)),
        [("unknown-symbol", "undeclared op mul", "rewrite[0]/rhs")],
    ),
    (
        "rewrite-introduces-variables",
        _eq(sorts=(X,), functions=(INV,), rewrites=(RewriteRule(inv(x), inv(inv(z))), RewriteRule(x, y))),
        [
            ("unknown-symbol", "rewrite rhs introduces variables: z", "rewrite[0]"),
            ("unknown-symbol", "rewrite rhs introduces variables: y", "rewrite[1]"),
        ],
    ),
    (
        "rewrite-sides",
        _eq(sorts=(A, B), functions=(K_B,), rewrites=(RewriteRule(App(K_B), App(K_B)), RewriteRule(a, App(K_B)))),
        [("sort-mismatch", "rewrite sides have sorts A and B", "rewrite[1]")],
    ),
]


@pytest.mark.parametrize("theory, expected", [pytest.param(t, e, id=i) for i, t, e in DIAGNOSE_ROWS])
def test_every_diagnose_finding(theory, expected):
    assert [(d.code, d.message, d.path) for d in diagnose(theory)] == expected


class TestLettersAreZeroAry:
    def test_a_relation_symbol_has_no_argument_sorts(self):
        with pytest.raises(TypeError):
            RelationSymbol("r", (X,))

    def test_an_atom_has_no_arguments(self):
        with pytest.raises(TypeError):
            Atom(RelationSymbol("p"), (x,))

    def test_substitute_takes_a_term(self):
        with pytest.raises(TypeError, match="not a term"):
            substitute(Not(Equation(x, x)), {})
