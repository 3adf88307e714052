"""The compiled kernels and the pure-Python twins must agree bit for bit.

The `native` fixture (tests/conftest.py) compiles the kernels when the
package has no built extension, so these run wherever a C compiler exists.
"""

import os
import random

import pytest

from catlogic import boolalg
from catlogic._core import BACKEND, pure


def test_selected_backend_is_native_when_built():
    try:
        import catlogic._core._native  # noqa: F401
    except ImportError:
        pytest.skip("the package's own extension is not built")
    if not os.environ.get("CATLOGIC_PURE"):
        assert BACKEND == "native"


class TestReduceWord:
    def test_random_words_agree(self, native):
        rng = random.Random(101)
        letters = [s * g for g in (1, 2, 3) for s in (1, -1)]
        for _ in range(3000):
            word = [rng.choice(letters) for _ in range(rng.randint(0, 40))]
            assert pure.reduce_word(word) == native.reduce_word(word)

    def test_zero_rejected_by_both(self, native):
        for impl in (pure, native):
            with pytest.raises(ValueError):
                impl.reduce_word([1, 0, -1])


GROUP_AXIOMS = [
    (3, (0, 1, 2, -1, -1), (0, 1, -1, 2, -1)),
    (1, (0, -3, -1), (0,)),
    (1, (-3, 0, -1), (0,)),
    (1, (0, 0, -2, -1), (-3,)),
    (1, (0, -2, 0, -1), (-3,)),
]
GROUP_ARITIES = [2, 1, 0]
# two-sort theories reach the kernels with arities alone, since every sort
# gets the same carrier size
TWO_SORT_THEORIES = [
    ([1], [(2, (0, -1), (1, -1))]),  # f : A -> B; f(x) = f(y)
    ([2, 1], [(2, (0, 1, -1, -2), (0,))]),  # f : A, A -> B; g : B -> A; g(f(x, y)) = x
    ([0, 2], [(1, (0, -1, -2), (0,))]),  # c : -> B; f : A, B -> A; f(x, c) = x
]


class TestTableKernels:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_scan_agrees(self, native, n):
        assert pure.scan_tables(n, GROUP_ARITIES, GROUP_AXIOMS) == native.scan_tables(
            n, GROUP_ARITIES, GROUP_AXIOMS
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_search_agrees_with_scan(self, native, n):
        searched = native.search_tables(n, GROUP_ARITIES, GROUP_AXIOMS)
        assert searched == pure.search_tables(n, GROUP_ARITIES, GROUP_AXIOMS)
        if n <= 3:
            assert searched == native.scan_tables(n, GROUP_ARITIES, GROUP_AXIOMS)

    @pytest.mark.parametrize("arities,axioms", TWO_SORT_THEORIES)
    def test_two_sort_codes_agree(self, native, arities, axioms):
        for n in (0, 1, 2, 3):
            scanned = pure.scan_tables(n, arities, axioms)
            assert scanned == native.scan_tables(n, arities, axioms)
            assert scanned == pure.search_tables(n, arities, axioms)
            assert scanned == native.search_tables(n, arities, axioms)

    def test_random_unary_theories(self, native):
        # axioms over a single unary symbol: f(f(x)) = f(x) style
        rng = random.Random(5)
        for _ in range(20):
            reps = rng.randint(1, 3)
            lhs = tuple([0] + [-1] * reps)
            rhs = tuple([0] + [-1] * rng.randint(0, reps))
            axioms = [(1, lhs, rhs)]
            for n in (1, 2, 3):
                assert pure.scan_tables(n, [1], axioms) == native.scan_tables(n, [1], axioms)
                assert pure.search_tables(n, [1], axioms) == native.search_tables(n, [1], axioms)

    @pytest.mark.parametrize(
        "axiom",
        [
            (2, (0, -1), (0,)),  # a binary symbol applied to one argument
            (1, (1,), (0,)),  # variable 1 of a one-variable axiom
            (1, (0, -2), (0,)),  # symbol 1 of a one-symbol signature
            (1, (0,), (0, 0)),  # a side that leaves two values
            (1, (0,), ()),  # a side that leaves none
            (-1, (0,), (0,)),  # a negative variable count
        ],
    )
    @pytest.mark.parametrize("n", [0, 2])
    def test_malformed_code_rejected_by_both(self, native, axiom, n):
        # the well-formed first axiom must not hide the malformed second one
        axioms = [(1, (0, 0, -1), (0,)), axiom]
        for kernel in ("scan_tables", "search_tables"):
            messages = []
            for impl in (pure, native):
                with pytest.raises(ValueError) as exc:
                    getattr(impl, kernel)(n, [2], axioms)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]


class TestHomKernels:
    def test_image_tables_agree(self, native):
        rng = random.Random(77)
        for _ in range(200):
            m = rng.randint(0, 7)
            k = rng.randint(0, 7)
            if m == 0 and k > 0:
                continue
            amap = tuple(rng.randrange(m) for _ in range(k))
            assert pure.hom_image_table(amap, m, k) == native.hom_image_table(amap, m, k)

    def test_check_accepts_real_homs_and_rejects_corrupted(self, native):
        rng = random.Random(78)
        for _ in range(200):
            m = rng.randint(1, 6)
            k = rng.randint(1, 6)
            amap = tuple(rng.randrange(m) for _ in range(k))
            img = pure.hom_image_table(amap, m, k)
            assert pure.check_hom_table(img, m, k)
            assert native.check_hom_table(img, m, k)
            bad = list(img)
            bad[rng.randrange(1, len(bad))] ^= 1 << rng.randrange(k)
            assert pure.check_hom_table(bad, m, k) == native.check_hom_table(bad, m, k)

    @pytest.mark.parametrize("k", [0, 63, 64, 65, 70])
    def test_wide_targets_agree(self, native, k):
        # targets past 64 atoms do not fit one machine word
        rng = random.Random(k)
        for m in (1, 2, 4):
            amap = tuple(rng.randrange(m) for _ in range(k))
            img = pure.hom_image_table(amap, m, k)
            assert native.hom_image_table(amap, m, k) == img
            assert native.check_hom_table(img, m, k)
            if k:
                bad = list(img)
                bad[rng.randrange(1, len(bad))] ^= 1 << rng.randrange(k)
                assert not native.check_hom_table(bad, m, k)
                assert not pure.check_hom_table(bad, m, k)

    @pytest.mark.parametrize("k", [64, 65])
    def test_enumerate_homs_into_wide_target(self, native, monkeypatch, k):
        B1, Bk = boolalg.FiniteBooleanAlgebra(1), boolalg.FiniteBooleanAlgebra(k)
        expected = [h.atom_map for h in boolalg.enumerate_homs(B1, Bk)]
        calls = []

        def counted(kernel):
            # a fresh function object is a fresh kernel pair, which the
            # shape record has never seen, so the one hom is verified here
            return lambda *args: calls.append(kernel.__name__) or kernel(*args)

        monkeypatch.setattr(boolalg._core, "hom_image_table", counted(native.hom_image_table))
        monkeypatch.setattr(boolalg._core, "check_hom_table", counted(native.check_hom_table))
        assert [h.atom_map for h in boolalg.enumerate_homs(B1, Bk)] == expected == [(0,) * k]
        assert calls == ["hom_image_table", "check_hom_table"]
