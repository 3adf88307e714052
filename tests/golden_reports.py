"""Golden CLI reports: one expected file per argv row under tests/golden/.

Each file holds the row's argv, exit code, stdout and stderr, as `cli.main`
produces them in-process with the current directory at the repository root,
so every path in a report is relative to it. Regenerate every file with

    PYTHONPATH=src python tests/golden_reports.py

and review the diff: a refactor that keeps the reports leaves it empty.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib

from catlogic.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

THEORY_FILES = [
    "fixtures/group.thy",
    "fixtures/group_alt.thy",
    "fixtures/idempotent.thy",
    "fixtures/props.thy",
    "tests/golden/prop_letters_with_args.thy",
    "tests/golden/eq_with_letters.thy",
    "tests/golden/two_sorts_conflict.thy",
    "tests/golden/prop_with_equation.thy",
]
PROP_THEORIES = ["XOR_PAIR", "EMPTY", "FREE1", "CONTRA"]
EQ_THEORIES = [
    ("fixtures/group.thy", "GROUP"),
    ("fixtures/group_alt.thy", "GROUP_R"),
    ("fixtures/idempotent.thy", "SQUASH"),
]
BRAINS = sorted(f"fixtures/{p.name}" for p in (ROOT / "fixtures").glob("*.brain"))

# 1.15 s each, over half the time of every other row together; test_models
# and the acceptance gate already run both
SLOW_ROWS = {
    ("models", "fixtures/group.thy", "GROUP", "3", "--no-prune"),
    ("models", "fixtures/group_alt.thy", "GROUP_R", "3", "--no-prune"),
}


def _rows() -> list[tuple[str, ...]]:
    rows: list[tuple[str, ...]] = [("check", path) for path in THEORY_FILES]
    props = "fixtures/props.thy"
    for name in PROP_THEORIES:
        rows += [
            ("stone", props, name),
            ("models", props, name, "0"),
            ("syn", props, name),
            *(("adjoint", props, name, "--atoms", str(n)) for n in (1, 2, 3)),
            ("adjoint", props, name, "--seed", "7"),
        ]
    for path, name in EQ_THEORIES:
        for size in range(4):
            rows += [("models", path, name, str(size)), ("models", path, name, str(size), "--no-prune")]
        rows += [("syn", path, name, "--depth", str(depth)) for depth in range(4)]
    for path in BRAINS:
        rows += [
            ("brain", "check", path),
            ("brain", "run", path, "--steps", "3"),
            ("brain", "export", path),
            ("brain", "export", path, "--mind"),
        ]
    return [row for row in rows if row not in SLOW_ROWS]


ROWS = _rows()


def row_id(argv: tuple[str, ...]) -> str:
    """File stem for a row: path arguments by their stem, flags without dashes."""
    parts = [pathlib.Path(a).stem if "/" in a else a.lstrip("-") for a in argv]
    return "-".join(parts)


def render(argv: tuple[str, ...]) -> str:
    """Run one row through cli.main in-process and format what it produced."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return f"$ catlogic {' '.join(argv)}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def path_of(argv: tuple[str, ...]) -> pathlib.Path:
    return GOLDEN / f"{row_id(argv)}.golden"


def regenerate() -> None:
    for old in GOLDEN.glob("*.golden"):
        old.unlink()
    for argv in ROWS:
        path_of(argv).write_text(render(argv), encoding="utf-8")
    print(f"wrote {len(ROWS)} golden reports to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    regenerate()
