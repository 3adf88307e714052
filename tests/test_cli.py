import json

import pytest

from catlogic.cli import main

from conftest import FIXTURES

GROUP = str(FIXTURES / "group.thy")
PROPS = str(FIXTURES / "props.thy")
BRAIN_TWO = str(FIXTURES / "brain_two.brain")
BRAIN_BAD = str(FIXTURES / "brain_bad_composite.brain")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# (kind, theory file, brain file, start of the error message); "{bad}" stands
# for the directory made by the `bad` fixture
_BAD_FILES = [
    ("missing", "{bad}/missing.thy", "{bad}/missing.brain", "[Errno 2] No such file"),
    ("directory", "{bad}", "{bad}", "[Errno 21] Is a directory"),
    ("non-utf8", "{bad}/latin1.thy", "{bad}/latin1.brain", "syntax: 2:"),
    ("syntax", "{bad}/syntax.thy", "{bad}/syntax.brain", "syntax: 1:"),
]
_THEORY_COMMANDS = [
    ("check", "{path}"),
    ("stone", "{path}", "XOR_PAIR"),
    ("models", "{path}", "XOR_PAIR", "1"),
    ("syn", "{path}", "XOR_PAIR"),
    ("adjoint", "{path}", "XOR_PAIR"),
]
# the CLI contract table: (id, argv, start of the error message)
BAD_INPUT_ROWS = (
    [
        (f"{cmd[0]}-{kind}", tuple(a.format(path=thy) for a in cmd), error)
        for kind, thy, _, error in _BAD_FILES
        for cmd in _THEORY_COMMANDS
    ]
    + [
        (f"brain-{sub}-{kind}", ("brain", sub, brain_path), error)
        for kind, _, brain_path, error in _BAD_FILES
        for sub in ("check", "run", "export")
    ]
    + [
        (f"{cmd[0]}-unknown-theory", (cmd[0], PROPS, "NOPE", *cmd[3:]), "'NOPE'")
        for cmd in _THEORY_COMMANDS[1:]
    ]
    + [
        (f"{cmd}-wrong-fragment", (cmd, GROUP, "GROUP"), "theory GROUP is not propositional")
        for cmd in ("stone", "adjoint")
    ]
    + [
        (
            "adjoint-atoms-5",
            ("adjoint", PROPS, "XOR_PAIR", "--atoms", "5"),
            "free algebra on 5 letters needs 32 atoms (bound 20)",
        ),
        ("brain-run-steps-10001", ("brain", "run", BRAIN_TWO, "--steps", "10001"), "10001 steps exceed the bound 10000"),
        # counts are ASCII digits: '²' passed str.isdigit and then broke int()
        (
            "brain-check-superscript-digit",
            ("brain", "check", "{bad}/superscript.brain"),
            "syntax: 2:19: unexpected character '²'",
        ),
        (
            "brain-check-arabic-indic-digit",
            ("brain", "check", "{bad}/arabic.brain"),
            "syntax: 2:19: unexpected character '٣'",
        ),
        ("syn-samples-negative", ("syn", PROPS, "XOR_PAIR", "--samples", "-5"), "samples -5 is negative"),
        ("syn-depth-negative", ("syn", GROUP, "GROUP", "--depth", "-1"), "depth -1 is negative"),
        ("adjoint-atoms-negative", ("adjoint", PROPS, "XOR_PAIR", "--atoms", "-3"), "atoms -3 is negative"),
    ]
)


@pytest.fixture(scope="module")
def bad(tmp_path_factory):
    d = tmp_path_factory.mktemp("bad")
    (d / "latin1.thy").write_bytes(b"theory P prop {\n  letters a\xff; }\n")
    (d / "latin1.brain").write_bytes(b"brain B {\n  neuron n\xff;\n}\n")
    (d / "syntax.thy").write_text("theory ( {")
    (d / "syntax.brain").write_text("brain ( {")
    (d / "superscript.brain").write_text("brain B {\n  neuron n0 atoms=²;\n}\n", encoding="utf-8")
    (d / "arabic.brain").write_text("brain B {\n  neuron n0 atoms=٣;\n}\n", encoding="utf-8")
    return str(d)


class TestCheck:
    def test_group_passes(self, capsys):
        code, report, _ = run_json(capsys, "check", GROUP)
        assert code == 0 and report["pass"]
        assert report["result"]["theories"][0]["axioms"] == 5

    def test_arity_broken_exits_one_with_span(self, capsys, tmp_path):
        bad = tmp_path / "bad.thy"
        bad.write_text(
            "theory B eq { sort X; op mul : X, X -> X; op u : -> X; axiom mul(x) = u; }"
        )
        code, report, _ = run_json(capsys, "check", str(bad))
        assert code == 1
        cx = report["counterexamples"][0]
        assert cx["code"] == "arity-mismatch"
        assert ":" in cx["where"]  # line:column

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "no/such/file.thy")
        assert code == 2

    def test_syntax_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.thy"
        bad.write_text("theory ( {")
        code, _, _ = run(capsys, "check", str(bad))
        assert code == 2

    @staticmethod
    def _nested_not(depth):
        return "theory D prop { letters a; axiom " + "not(" * depth + "a" + ")" * depth + "; }\n"

    def test_deep_nesting_exits_two_without_traceback(self, tmp_path):
        import subprocess
        import sys

        deep = tmp_path / "deep.thy"
        deep.write_text(self._nested_not(3000))
        cmd = [sys.executable, "-m", "catlogic.cli", "check", str(deep)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "nested deeper" in proc.stderr

    def test_non_utf8_input_exits_two_without_traceback(self, tmp_path):
        import subprocess
        import sys

        bad = tmp_path / "bad.thy"
        bad.write_bytes(b"theory P prop {\n  letters a\xff; }\n")
        for argv in (["check", str(bad)], ["stone", str(bad), "P"], ["brain", "check", str(bad)]):
            cmd = [sys.executable, "-m", "catlogic.cli", *argv]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 2, argv
            assert "Traceback" not in proc.stderr
            assert "2:12: input is not UTF-8 (byte 0xff)" in proc.stderr

    def test_moderate_nesting_checks(self, capsys, tmp_path):
        nested = tmp_path / "nested.thy"
        nested.write_text(self._nested_not(150))
        code, report, _ = run_json(capsys, "check", str(nested))
        assert code == 0 and report["pass"]


class TestStone:
    def test_xor_pair(self, capsys):
        code, report, _ = run_json(capsys, "stone", PROPS, "XOR_PAIR")
        assert code == 0
        assert report["result"]["atoms"] == 2
        assert report["result"]["elements"] == 4
        assert report["result"]["points"] == [{"x": 0, "y": 1}, {"x": 1, "y": 0}]

    def test_inconsistent_degenerate(self, capsys):
        code, report, _ = run_json(capsys, "stone", PROPS, "CONTRA")
        assert code == 0
        assert report["result"]["atoms"] == 0
        assert report["result"]["elements"] == 1

    def test_empty_theory(self, capsys):
        code, report, _ = run_json(capsys, "stone", PROPS, "EMPTY")
        assert code == 0
        assert report["result"]["atoms"] == 1
        assert report["result"]["elements"] == 2

    def test_eq_theory_rejected(self, capsys):
        code, _, _ = run(capsys, "stone", GROUP, "GROUP")
        assert code == 2

    def test_unknown_theory_name(self, capsys):
        code, _, _ = run(capsys, "stone", PROPS, "NOPE")
        assert code == 2

    def test_too_many_atoms_is_a_prompt_input_error(self, capsys, tmp_path):
        import time

        # 2**20 models: the walk must stop at the 21st, not enumerate them all
        free = tmp_path / "free20.thy"
        letters = ", ".join(f"p{i:02d}" for i in range(20))
        free.write_text(f"theory FREE20 prop {{ letters {letters}; }}\n")
        t0 = time.perf_counter()
        code, report, _ = run_json(capsys, "stone", str(free), "FREE20")
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert report["error"] == "21 or more atoms exceed the bound 20"

    def test_too_many_letters_is_a_prompt_input_error(self, capsys, tmp_path):
        import time

        # inconsistent, so no model would ever pass the atom bound
        wide = tmp_path / "wide24.thy"
        letters = ", ".join(f"p{i:02d}" for i in range(24))
        wide.write_text(f"theory WIDE24 prop {{ letters {letters}; axiom and(p00, not(p00)); }}\n")
        t0 = time.perf_counter()
        code, report, _ = run_json(capsys, "stone", str(wide), "WIDE24")
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert report["error"] == "24 letters exceed the assignment bound 20"

    def test_atom_bound_is_not_an_option(self, capsys, monkeypatch, tmp_path):
        from catlogic import _core, boolalg

        five = tmp_path / "five.thy"
        five.write_text("theory T prop { letters a, b, c, d, e; }\n")
        reached = []
        monkeypatch.setattr(boolalg, "lindenbaum_algebra", lambda *a, **k: reached.append(a))
        monkeypatch.setattr(_core, "hom_image_table", lambda *a: reached.append(a))
        with pytest.raises(SystemExit) as exc:
            main(["stone", str(five), "T", "--max-atoms", "32"])
        assert exc.value.code == 2 and reached == []
        assert "unrecognized arguments: --max-atoms 32" in capsys.readouterr().err


class TestModels:
    @pytest.mark.parametrize("size,count", [(2, 2), (4, 16)])
    def test_group_counts(self, capsys, size, count):
        code, report, _ = run_json(capsys, "models", GROUP, "GROUP", str(size))
        assert code == 0
        assert report["result"]["count"] == count

    def test_prop_example(self, capsys):
        code, report, _ = run_json(capsys, "models", PROPS, "XOR_PAIR", "1")
        assert code == 0
        assert report["result"]["count"] == 2

    def test_capacity_exit_one(self, capsys):
        code, report, _ = run_json(capsys, "models", GROUP, "GROUP", "4", "--no-prune")
        assert code == 1
        assert report["verdicts"]["capacity"] == "fail"

    def test_negative_size_exits_two(self, capsys):
        code, report, _ = run_json(capsys, "models", GROUP, "GROUP", "--", "-1")
        assert code == 2
        assert "negative" in report["error"]

    @pytest.mark.parametrize("size,cells", [(30, 931), (99999, 9999900001)])
    def test_huge_size_is_a_prompt_capacity_failure(self, capsys, size, cells):
        import time

        t0 = time.perf_counter()
        code, report, _ = run_json(capsys, "models", GROUP, "GROUP", str(size))
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert report["verdicts"] == {"capacity": "fail"}
        assert report["counterexamples"] == [
            {
                "id": "capacity",
                "message": f"table space of {size}**{cells} candidates exceeds the bound {10**18}",
            }
        ]


    @pytest.mark.parametrize("flags", [(), ("--no-prune",)])
    def test_multi_sorted_scan_gets_the_raw_scan_bound(self, capsys, tmp_path, flags):
        import time

        # the search has no node or result budget yet, so multi-sorted
        # theories keep the raw-scan bound even when pruning is asked for
        ms = tmp_path / "ms.thy"
        ms.write_text(
            "theory MS eq { sort A; sort B; op f : A, A -> B; op g : B, B -> A;"
            " op h : A, B -> A; }\n"
        )
        t0 = time.perf_counter()
        code, report, err = run_json(capsys, "models", str(ms), "MS", "3", *flags)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert report["verdicts"] == {"capacity": "fail"}
        message = f"table space of 3**27 candidates exceeds the bound {10**9}"
        assert report["counterexamples"] == [{"id": "capacity", "message": message}]
        assert f"capacity exceeded: {message}" in err


class TestSyn:
    def test_prop_summary(self, capsys):
        code, report, _ = run_json(capsys, "syn", PROPS, "XOR_PAIR")
        assert code == 0
        assert report["result"]["objects"] == 4
        assert report["result"]["morphisms"] == 9

    def test_eq_summary(self, capsys):
        code, report, _ = run_json(capsys, "syn", GROUP, "GROUP", "--depth", "3")
        assert code == 0
        one_to_one = next(
            h
            for h in report["result"]["hom_counts"]
            if h["source"] == "[x1:X]" and h["target"] == "[x1:X]"
        )
        assert one_to_one["count"] == 7

    def test_rewrite_theory_summary(self, capsys):
        code, report, _ = run_json(
            capsys, "syn", str(FIXTURES / "idempotent.thy"), "SQUASH", "--depth", "2"
        )
        assert code == 0
        assert report["verdicts"]["category-laws"] == "pass"

    def test_eq_without_normalizer_exits_two(self, capsys):
        code, _, _ = run(capsys, "syn", str(FIXTURES / "group_alt.thy"), "GROUP_R")
        assert code == 2

    def test_hom_past_the_bound_exits_two_promptly(self, capsys):
        import time

        # depth 7 would build 4,373**2 morphisms for a two-variable hom-set
        t0 = time.perf_counter()
        code, report, err = run_json(capsys, "syn", GROUP, "GROUP", "--depth", "7")
        assert time.perf_counter() - t0 < 3.0
        assert code == 2
        message = (
            "hom [x1:X, x2:X] -> [x1:X, x2:X] has 19123129 morphisms at depth 7,"
            f" past the bound {2**22}"
        )
        assert report["error"] == message
        assert err == f"error: {message}\n"


class TestAdjoint:
    def test_xor_pair_atoms_one(self, capsys):
        code, report, _ = run_json(capsys, "adjoint", PROPS, "XOR_PAIR", "--atoms", "1")
        assert code == 0
        assert report["verdicts"]["adjunction"] == "pass"
        assert len(report["result"]["checks"]) == 11

    def test_atoms_zero_singleton_homsets(self, capsys):
        code, report, _ = run_json(capsys, "adjoint", PROPS, "XOR_PAIR", "--atoms", "0")
        assert code == 0
        free_check = report["result"]["checks"][0]
        assert free_check["left"] == free_check["right"] == 1

    def test_capacity_exceeded_is_a_failed_verdict(self, capsys):
        code, report, _ = run_json(capsys, "adjoint", PROPS, "XOR_PAIR", "--atoms", "3")
        assert code == 1
        assert report["verdicts"]["capacity"] == "fail"

    def test_replay_unknown_id_not_reproduced(self, capsys):
        code, report, _ = run_json(
            capsys, "adjoint", PROPS, "XOR_PAIR", "--replay", "c0/nat:999"
        )
        assert code == 0
        assert report["reproduced"] is False

    def test_corrupted_transpose_build_fails(self, capsys, monkeypatch):
        from catlogic import adjunction
        from catlogic.boolalg import BoolHom

        transpose = adjunction.transpose

        def corrupt(B, f):
            g = transpose(B, f)
            if g.source.atom_count >= 2 and g.atom_map:
                amap = (0,) * len(g.atom_map)
                if amap != g.atom_map:
                    return BoolHom(g.source, g.target, amap)
            return g

        monkeypatch.setattr(adjunction, "transpose", corrupt)
        code, report, _ = run_json(capsys, "adjoint", PROPS, "XOR_PAIR", "--atoms", "1")
        assert code == 1
        assert report["verdicts"]["adjunction"] == "fail"
        assert report["counterexamples"]
        replay_id = report["counterexamples"][0]["id"]
        code, replay, _ = run_json(
            capsys, "adjoint", PROPS, "XOR_PAIR", "--atoms", "1", "--replay", replay_id
        )
        assert code == 1 and replay["reproduced"] is True


class TestBrain:
    def test_check_passes(self, capsys):
        code, report, _ = run_json(capsys, "brain", "check", BRAIN_TWO)
        assert code == 0
        assert report["verdicts"]["adjunction-audit"] == "pass"
        assert len(report["result"]["audits"]) == 4

    def test_corrupted_fixture_fails_with_replayable_id(self, capsys):
        code, report, _ = run_json(capsys, "brain", "check", BRAIN_BAD)
        assert code == 1
        ids = [c["id"] for c in report["counterexamples"]]
        assert "composite:a3" in ids
        code2, replay, _ = run_json(
            capsys, "brain", "check", BRAIN_BAD, "--replay", "composite:a3"
        )
        assert code2 == 1
        assert replay["reproduced"] is True

    def test_check_validates_the_graph_once(self, capsys, monkeypatch):
        from catlogic.brain import BrainGraph

        calls = []
        validate = BrainGraph.validate

        def counting(self, strict=True):
            calls.append(strict)
            return validate(self, strict)

        monkeypatch.setattr(BrainGraph, "validate", counting)
        code, report, _ = run_json(capsys, "brain", "check", BRAIN_BAD)
        assert code == 1
        assert calls == [False]
        assert [c["id"] for c in report["counterexamples"]][0] == "composite:a3"

    def test_run_constant_trace_on_identity(self, capsys, tmp_path):
        code, report, _ = run_json(
            capsys,
            "brain",
            "run",
            str(FIXTURES / "brain_one.brain"),
            "--steps",
            "3",
            "--init",
            "n1=0",
        )
        assert code == 0
        states = [step["states"] for step in report["result"]["trace"]]
        assert states == [{"n1": 0}] * 3

    def test_run_bad_init_exits_two(self, capsys):
        code, _, _ = run(capsys, "brain", "run", BRAIN_TWO, "--init", "zz=0")
        assert code == 2

    def test_run_out_of_range_state_exits_two(self, capsys):
        code, _, _ = run(capsys, "brain", "run", BRAIN_TWO, "--init", "n1=9")
        assert code == 2

    def test_run_negative_steps_exits_two(self, capsys):
        code, _, _ = run(capsys, "brain", "run", BRAIN_TWO, "--steps", "-1")
        assert code == 2

    def test_export_dot_parses(self, capsys):
        code, out, _ = run(capsys, "brain", "export", BRAIN_TWO)
        assert code == 0
        assert out.startswith('digraph "pair" {')
        assert out.rstrip().endswith("}")
        body = [l for l in out.splitlines()[1:-1]]
        assert all(l.startswith("  ") and l.endswith(";") for l in body)

    def test_export_mind(self, capsys):
        code, out, _ = run(capsys, "brain", "export", BRAIN_TWO, "--mind")
        assert code == 0
        assert "letters=4" in out

    @pytest.fixture
    def oversized(self, tmp_path):
        # lang tabulates at most LANG_ATOM_BOUND = 4 atoms
        path = tmp_path / "big.brain"
        path.write_text("brain big { neuron a atoms=5; }")
        return str(path)

    def test_check_oversized_neuron_is_a_capacity_verdict(self, capsys, oversized):
        code, report, err = run_json(capsys, "brain", "check", oversized)
        assert code == 1 and "Traceback" not in err
        assert report["verdicts"]["capacity"] == "fail"
        assert [c["id"] for c in report["counterexamples"]] == ["capacity"]

    def test_export_mind_oversized_neuron_exits_two(self, capsys, oversized):
        code, report, err = run_json(capsys, "brain", "export", oversized, "--mind")
        assert code == 2 and "Traceback" not in err
        assert "exceeds the bound" in report["error"]

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_out_of_range_hom_is_an_input_error(self, capsys, command):
        code, report, err = run_json(capsys, "brain", command, str(FIXTURES / "brain_bad_hom.brain"))
        assert code == 2 and "Traceback" not in err
        assert "atom index 5" in report["error"]


class TestContract:
    @pytest.mark.parametrize(
        "argv, error", [pytest.param(argv, error, id=name) for name, argv, error in BAD_INPUT_ROWS]
    )
    def test_bad_input_is_one_error_line_and_exit_two(self, capsys, bad, argv, error):
        # main returns (no exception escapes it) with one report and one line
        code, out, err = run(capsys, *(a.format(bad=bad) for a in argv))
        report = json.loads(out)
        assert code == 2
        assert report["error"].startswith(error)
        assert err.splitlines() == [f"error: {report['error']}"]


class TestSubprocess:
    def test_reports_identical_across_processes_and_hash_seeds(self, tmp_path):
        import os
        import subprocess
        import sys

        # a variable at two sorts in a rewrite rule: the sort-conflict finding
        # once depended on set order, so hash seeds 1 and 3 located it apart
        conflict = tmp_path / "conflict.thy"
        conflict.write_text("theory R eq { sort A; sort B; op g : A, B -> A; rewrite g(x, x) -> x; }\n")
        rows = [(("brain", "check", BRAIN_TWO), 0), (("check", str(conflict)), 1)]
        for argv, code in rows:
            cmd = [sys.executable, "-m", "catlogic.cli", *argv]
            runs = []
            for hash_seed in ("1", "3"):
                env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                runs.append(subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env))
            assert [r.returncode for r in runs] == [code, code]
            assert runs[0].stdout == runs[1].stdout
            report = json.loads(runs[0].stdout)
            assert report["pass"] is (code == 0)
        # the last row: one finding, at the rule
        assert [cx["where"] for cx in report["counterexamples"]] == ["rewrite[0]"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", GROUP),
            ("stone", PROPS, "XOR_PAIR"),
            ("models", GROUP, "GROUP", "2"),
            ("adjoint", PROPS, "XOR_PAIR", "--atoms", "1"),
            ("brain", "check", BRAIN_TWO),
            ("brain", "export", BRAIN_TWO),
            *(pytest.param(argv, id=name) for name, argv, _ in BAD_INPUT_ROWS),
        ],
    )
    def test_double_invocation_byte_identical(self, capsys, bad, argv):
        argv = [a.format(bad=bad) for a in argv]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_exit_zero_iff_all_verdicts_pass(self, capsys):
        code, report, _ = run_json(capsys, "brain", "check", BRAIN_BAD)
        assert (code == 0) == all(v == "pass" for v in report["verdicts"].values())
