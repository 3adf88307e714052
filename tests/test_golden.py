"""Every golden row reproduces its committed report byte for byte."""

import pytest

from golden_reports import GOLDEN, ROWS, SLOW_ROWS, path_of, render, row_id


@pytest.mark.parametrize("argv", [pytest.param(argv, id=row_id(argv)) for argv in ROWS])
def test_report_matches_golden(argv):
    assert render(argv) == path_of(argv).read_text(encoding="utf-8")


def test_every_golden_file_has_a_row():
    assert sorted(p.name for p in GOLDEN.glob("*.golden")) == sorted(path_of(a).name for a in ROWS)


def test_slow_rows_are_left_out():
    # `models GROUP 3 --no-prune` and `models GROUP_R 3 --no-prune` take
    # about a second each; test_models and the acceptance gate cover them
    assert SLOW_ROWS == {
        ("models", "fixtures/group.thy", "GROUP", "3", "--no-prune"),
        ("models", "fixtures/group_alt.thy", "GROUP_R", "3", "--no-prune"),
    }
    assert not SLOW_ROWS & set(ROWS)
