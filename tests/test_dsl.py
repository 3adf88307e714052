import pytest

from catlogic.dsl import MAX_NESTING, parse_file, parse_theory, print_theory
from catlogic.errors import InvalidTheoryError, TheorySyntaxError
from catlogic.kernel import And, Fragment, Implies, Or

from conftest import fixture_text


class TestParse:
    def test_group_fixture(self, group_theory):
        assert group_theory.fragment is Fragment.EQ
        assert len(group_theory.sorts) == 1
        assert len(group_theory.functions) == 3
        assert len(group_theory.axioms) == 5

    def test_prop_example(self):
        t = parse_theory("theory P prop { letters x, y; axiom or(x,y); axiom not(and(x,y)); }")
        assert t.letters == ("x", "y")
        assert len(t.axioms) == 2

    def test_empty_prop(self):
        t = parse_theory("theory E prop { }")
        assert t.letters == ()
        assert t.axioms == ()

    def test_iff_desugars(self):
        t = parse_theory("theory I prop { letters a, b; axiom iff(a, b); }")
        ax = t.axioms[0]
        assert isinstance(ax, And)
        assert isinstance(ax.lhs, Implies) and isinstance(ax.rhs, Implies)

    def test_comments_ignored(self):
        t = parse_theory("# leading\ntheory C prop { # inline\n letters a; }\n# trailing")
        assert t.letters == ("a",)

    def test_multiple_theories_per_file(self):
        ts = parse_file(fixture_text("props.thy"))
        assert [t.name for t in ts] == ["XOR_PAIR", "EMPTY", "FREE1", "CONTRA"]

    def test_duplicate_theory_names_rejected(self):
        with pytest.raises(TheorySyntaxError):
            parse_file("theory A prop { } theory A prop { }")

    def test_rewrite_declaration(self):
        t = parse_theory(fixture_text("idempotent.thy"))
        assert len(t.rewrites) == 1

    def test_deterministic(self):
        src = fixture_text("group.thy")
        assert parse_theory(src) == parse_theory(src)


class TestParseErrors:
    def test_syntax_error_has_span_in_bounds(self):
        src = "theory B prop { letters }"
        with pytest.raises(TheorySyntaxError) as err:
            parse_theory(src)
        assert 0 <= err.value.span.start <= err.value.span.end <= len(src)

    def test_arity_error_is_diagnostic(self):
        src = "theory B eq { sort X; op f : X -> X; axiom f(x, x) = x; }"
        with pytest.raises(InvalidTheoryError) as err:
            parse_theory(src)
        d = err.value.diagnostics[0]
        assert d.code == "arity-mismatch"
        assert d.span is not None and d.span.start < len(src)

    def test_unknown_letter(self):
        with pytest.raises(InvalidTheoryError) as err:
            parse_theory("theory B prop { letters a; axiom or(a, q); }")
        assert err.value.diagnostics[0].code == "unknown-symbol"

    def test_equation_in_prop(self):
        with pytest.raises(InvalidTheoryError) as err:
            parse_theory("theory B prop { letters a; axiom a = a; }")
        assert err.value.diagnostics[0].code == "fragment-violation"

    def test_sort_conflict(self):
        src = """
        theory B eq {
          sort X; sort Y;
          op f : X -> X; op g : Y -> Y;
          axiom f(x) = f(x);
          axiom g(x) = g(x);
          axiom f(x) = g(x);
        }
        """
        with pytest.raises(InvalidTheoryError):
            parse_theory(src)

    def test_unexpected_character(self):
        with pytest.raises(TheorySyntaxError):
            parse_theory("theory B prop { letters a; } %")

    def test_empty_input(self):
        with pytest.raises(TheorySyntaxError):
            parse_file("   # nothing here\n")

    @pytest.mark.parametrize(
        "inner,levels",
        [
            ("a", 0),
            ("and(a, a)", 1),
            ("iff(a, a)", 2),  # desugars to and(implies(a, a), implies(a, a))
        ],
    )
    def test_nesting_limit(self, inner, levels):
        def theory(depth):
            formula = "not(" * depth + inner + ")" * depth
            return "theory D prop { letters a; axiom " + formula + "; }"

        parse_theory(theory(MAX_NESTING - levels))
        with pytest.raises(TheorySyntaxError, match="nested deeper"):
            parse_theory(theory(MAX_NESTING - levels + 1))

    def test_term_nesting_limit(self):
        def theory(depth):
            term = "f(" * depth + "x" + ")" * depth
            return "theory D eq { sort X; op f : X -> X; axiom " + term + " = x; }"

        parse_theory(theory(MAX_NESTING))
        with pytest.raises(TheorySyntaxError, match="nested deeper"):
            parse_theory(theory(MAX_NESTING + 1))

    def test_mutated_sources_error_with_spans_in_bounds(self):
        # whatever we do to the input, a syntax error must point inside it
        import random

        from catlogic.errors import InvalidTheoryError

        rng = random.Random(404)
        base = fixture_text("group.thy") + fixture_text("props.thy")
        junk = "{}();,=->#@$"
        for _ in range(300):
            text = base
            for _ in range(rng.randint(1, 4)):
                kind = rng.randrange(3)
                pos = rng.randrange(len(text) + 1)
                if kind == 0:
                    text = text[:pos] + rng.choice(junk) + text[pos:]
                elif kind == 1 and text:
                    cut = rng.randrange(len(text))
                    text = text[:cut]
                else:
                    text = text[:pos] + rng.choice(["axiom", "zz", "sort"]) + text[pos:]
            try:
                parse_file(text)
            except TheorySyntaxError as err:
                assert 0 <= err.span.start <= err.span.end <= len(text)
            except InvalidTheoryError as err:
                for d in err.diagnostics:
                    if d.span is not None:
                        assert 0 <= d.span.start <= d.span.end <= len(text)


class TestPrint:
    @pytest.mark.parametrize(
        "name", ["group.thy", "group_alt.thy", "props.thy", "idempotent.thy"]
    )
    def test_round_trip_fixtures(self, name):
        for theory in parse_file(fixture_text(name)):
            assert parse_theory(print_theory(theory)) == theory

    def test_axiom_order_preserved(self, group_theory):
        reparsed = parse_theory(print_theory(group_theory))
        assert reparsed.axioms == group_theory.axioms

    def test_print_deterministic(self, group_theory):
        assert print_theory(group_theory) == print_theory(group_theory)

    def test_connective_surface(self):
        t = parse_theory("theory P prop { letters a, b; axiom implies(not(a), or(a, b)); }")
        assert "implies(not(a), or(a, b))" in print_theory(t)
