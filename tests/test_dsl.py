import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catlogic.dsl import MAX_NESTING, _Lexer, parse_file, parse_theory, print_file, print_theory
from catlogic.errors import InvalidTheoryError, SourceSpan, TheorySyntaxError
from catlogic.kernel import (
    And,
    App,
    Atom,
    Bottom,
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
    free_vars,
)

from conftest import FIXTURES, fixture_text


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


class TestDiagnosedOnce:
    def test_a_parsed_theory_is_not_diagnosed_again_downstream(self, monkeypatch):
        import catlogic.kernel as kernel
        from catlogic.boolalg import lindenbaum_algebra
        from catlogic.models import enumerate_models
        from catlogic.syncat import syn_eq

        calls = []
        real = kernel.diagnose
        monkeypatch.setattr(kernel, "diagnose", lambda t: calls.append(t.name) or real(t))
        by_name = {t.name: t for t in parse_file(fixture_text("group.thy") + fixture_text("props.thy"))}
        group, xor_pair = by_name["GROUP"], by_name["XOR_PAIR"]
        for _ in range(2):
            enumerate_models(group, 2)
            syn_eq(group, 1)
            enumerate_models(xor_pair, 0)
            lindenbaum_algebra(xor_pair)
        assert sorted(calls) == sorted(by_name)


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


# ---------------------------------------------------------------------------
# Reference lexer: a character-by-character scan, independent of the
# package's regular expression, kept as an oracle. It gives (kind, text,
# line, column, start, end) tuples and, like the package, leaves the column
# where it was across a comment.

_REF_IDENT_START = frozenset(string.ascii_letters + "_")
_REF_IDENT_CONT = frozenset(string.ascii_letters + string.digits + "_")
_REF_PUNCT = frozenset("{}();,:=.[]")


def reference_tokens(text: str) -> list[tuple]:
    out = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start, scol = i, col
        if c in _REF_IDENT_START:
            while i < n and text[i] in _REF_IDENT_CONT:
                i += 1
            kind = "ident"
        elif c == "-" and i + 1 < n and text[i + 1] == ">":
            i += 2
            kind = "arrow"
        elif c in _REF_PUNCT:
            i += 1
            kind = "punct"
        elif c in string.digits:
            while i < n and text[i] in string.digits:
                i += 1
            kind = "number"
        else:
            raise TheorySyntaxError(f"unexpected character {c!r}", SourceSpan(line, col, i, i + 1))
        col += i - start
        out.append((kind, text[start:i], line, scol, start, i))
    out.append(("eof", "", line, col, n, n))
    return out


def _lex(text: str):
    try:
        return [(t.kind, t.text, t.line, t.column, t.start, t.end) for t in _Lexer(text).tokens]
    except TheorySyntaxError as err:
        return str(err)


def _reference(text: str):
    try:
        return reference_tokens(text)
    except TheorySyntaxError as err:
        return str(err)


# inserted by the mutations; every digit is ASCII, where both scans agree
_FRAGMENTS = [
    *("#", "# note", "\r", "\r\n", "\t", "\n", " ", "é", "%", "->", "-", ">"),
    *"(){}[];,:=.",
    *("0", "12", "x1", "_"),
]


def _mutations(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    bases = [p.read_text() for p in sorted(FIXTURES.iterdir())]
    out = list(bases)
    for _ in range(count):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(text) + 1)
            kind = rng.randrange(3)
            if kind == 0:
                text = text[:pos]
            elif kind == 1:
                text = text[:pos] + rng.choice(_FRAGMENTS) + text[pos:]
            else:
                text = text[:pos] + text[pos + rng.randint(1, 4):]
        out.append(text)
    return out


class TestLexer:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agrees_with_reference_scan(self, seed):
        for text in _mutations(seed, 400):
            assert _lex(text) == _reference(text), repr(text)

    @pytest.mark.parametrize(
        "text",
        ["", "#", "a # tail", "a\n# tail", "a\r\n\tb", "x->y-", "1 2 3", "\t#x\n\t"],
    )
    def test_edge_inputs_agree_with_reference_scan(self, text):
        assert _lex(text) == _reference(text)

    def test_eof_after_trailing_comment_keeps_the_comment_column(self):
        assert _lex("ab  # tail")[-1] == ("eof", "", 1, 5, 10, 10)

    @pytest.mark.parametrize("digit", ["²", "٣", "０"])
    def test_numbers_are_ascii_digits(self, digit):
        assert _lex(f"atoms={digit}") == f"1:7: unexpected character {digit!r}"

    def test_span_built_on_demand(self):
        tok = _Lexer("  theory").tokens[0]
        assert tok.span == SourceSpan(1, 3, 2, 8)
        assert not hasattr(tok, "__dict__")


# ---------------------------------------------------------------------------
# print_file then parse_file gives back the same theories

# formulas and terms nest at most 4 levels; every strategy is built once
_LETTERS = tuple(RelationSymbol(n) for n in "abcd")
_X = Sort("X")
_OPS = (FunctionSymbol("m", (_X, _X), _X), FunctionSymbol("i", (_X,), _X), FunctionSymbol("e", (), _X))


def _nested(leaf, branches, depth: int) -> st.SearchStrategy:
    if depth == 0:
        return leaf
    sub = _nested(leaf, branches, depth - 1)
    return st.one_of(leaf, *(build(sub) for build in branches))


_FORMULA = _nested(
    st.one_of(st.just(Top()), st.just(Bottom()), st.builds(Atom, st.sampled_from(_LETTERS))),
    [
        lambda sub: st.builds(Not, sub),
        lambda sub: st.builds(And, sub, sub),
        lambda sub: st.builds(Or, sub, sub),
        lambda sub: st.builds(Implies, sub, sub),
    ],
    4,
)
_TERM = _nested(
    st.one_of(st.builds(Variable, st.sampled_from("xyz"), st.just(_X)), st.just(App(_OPS[2]))),
    [
        lambda sub: st.builds(lambda a: App(_OPS[1], (a,)), sub),
        lambda sub: st.builds(lambda a, b: App(_OPS[0], (a, b)), sub, sub),
    ],
    4,
)
# with one declared sort, a variable alone on an equation side takes that
# sort, so each drawn equation is exactly what parsing its print gives
_PROP_THEORY = st.builds(
    lambda letters, axioms: Theory("P", Fragment.PROP, relations=tuple(letters), axioms=tuple(axioms)),
    st.permutations(_LETTERS),
    st.lists(_FORMULA, max_size=3),
)
_EQ_THEORY = st.builds(
    lambda axioms, rules: Theory(
        "E", Fragment.EQ, sorts=(_X,), functions=_OPS, axioms=tuple(axioms), rewrites=tuple(rules)
    ),
    st.lists(st.builds(Equation, _TERM, _TERM), max_size=3),
    st.lists(
        st.builds(RewriteRule, _TERM, _TERM).filter(lambda r: free_vars(r.rhs) <= free_vars(r.lhs)),
        max_size=2,
    ),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.tuples(_PROP_THEORY, _EQ_THEORY))
def test_print_file_then_parse_file_round_trips(theories):
    theories = list(theories)
    assert parse_file(print_file(theories)) == theories
