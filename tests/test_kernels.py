"""The pure kernels against their own oracles.

The pruned table search must return exactly the raw scan's list, and both
specialised table kernels must equal the interpreted reference in
tests/reference_kernels.py, down to the value of each search closure. The
doubling hom image table must equal a per-bit tabulation; check_hom_table
and verify_hom must reject corrupted tables. The random signatures are
also run through the native kernels (the `native` fixture builds them when
a C compiler exists); tests/test_backends.py holds the other backend
comparisons.
"""

import ast
import random
from itertools import product

import pytest

import reference_kernels as ref
from catlogic import boolalg
from catlogic._core import pure
from catlogic.boolalg import BoolHom, FiniteBooleanAlgebra, verify_hom

MAX_CANDIDATES = 3**8


def random_term(rng, arities, n_vars, depth):
    """Postfix bytecode of a random term, or None if no leaf exists."""
    leaves = list(range(n_vars)) + [-(s + 1) for s, k in enumerate(arities) if k == 0]
    apps = [s for s, k in enumerate(arities) if k > 0]
    if depth == 0 or not apps or rng.random() < 0.3:
        return (rng.choice(leaves),) if leaves else None
    s = rng.choice(apps)
    code = []
    for _ in range(arities[s]):
        arg = random_term(rng, arities, n_vars, depth - 1)
        if arg is None:
            return None
        code.extend(arg)
    return tuple(code) + (-(s + 1),)


def random_signature(rng):
    arities = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    axioms = []
    for _ in range(rng.randint(0, 3)):
        n_vars = rng.randint(0, 3)
        lhs = random_term(rng, arities, n_vars, 3)
        rhs = random_term(rng, arities, n_vars, 3)
        if lhs is not None and rhs is not None:
            axioms.append((n_vars, lhs, rhs))
    return arities, axioms


def random_signature_cases():
    """(n, arities, axioms) over random signatures, small enough to scan."""
    rng = random.Random(2024)
    for _ in range(150):
        arities, axioms = random_signature(rng)
        for n in range(4):
            if n ** sum(n**k for k in arities) <= MAX_CANDIDATES:
                yield n, arities, axioms


def test_random_signatures_search_equals_scan():
    seen_arities, seen_vars, seen_sizes, nonempty = set(), set(), set(), 0
    for n, arities, axioms in random_signature_cases():
        searched = pure.search_tables(n, arities, axioms)
        assert searched == pure.scan_tables(n, arities, axioms), (n, arities, axioms)
        seen_arities.update(arities)
        seen_vars.update(nv for nv, _, _ in axioms)
        seen_sizes.add(n)
        nonempty += bool(searched)
    # the generator really covers the advertised ranges
    assert seen_arities == {0, 1, 2, 3}
    assert seen_vars == {0, 1, 2, 3}
    assert seen_sizes == {0, 1, 2, 3}
    assert nonempty > 100


def test_random_signatures_native_equals_pure(native):
    for n, arities, axioms in random_signature_cases():
        searched = pure.search_tables(n, arities, axioms)
        assert native.search_tables(n, arities, axioms) == searched, (n, arities, axioms)
        assert native.scan_tables(n, arities, axioms) == searched, (n, arities, axioms)


def test_random_signatures_equal_reference():
    for n, arities, axioms in random_signature_cases():
        case = (n, arities, axioms)
        assert pure.search_tables(*case) == ref.search_tables(*case), case
        assert pure.scan_tables(*case) == ref.scan_tables(*case), case


def test_closures_equal_reference_instances():
    # seeded random partial tables: a search closure must return what the
    # folded instance returns, the bool or the same -(cell+1); a scan
    # closure the total lhs == rhs
    rng = random.Random(2025)
    checked = unassigned = 0
    for n, arities, axioms in random_signature_cases():
        if n == 0:
            continue
        offsets, total = ref.offsets_of(n, arities)
        folded = ref.folded_instances(n, arities, axioms)
        searches = pure._instances(n, arities, axioms, scan=False)
        scans = pure._instances(n, arities, axioms, scan=True)
        sides = [
            (lhs, rhs, env) for nv, lhs, rhs in axioms for env in product(range(n), repeat=nv)
        ]
        assert len(searches) == len(scans) == len(folded) == len(sides)
        for _ in range(4):
            full = [rng.randrange(n) for _ in range(total)]
            partial = [v if rng.random() < 0.6 else -1 for v in full]
            for check, code in zip(searches, folded):
                for tables in (partial, full):
                    want = ref.eval_instance(code, tables, n)
                    got = check(tables)
                    assert (type(got), got) == (type(want), want), (n, arities, axioms)
                    unassigned += want < 0
                    checked += 1
            for check, (lhs, rhs, env) in zip(scans, sides):
                want = ref.eval_code(lhs, env, full, offsets, arities, n) == ref.eval_code(
                    rhs, env, full, offsets, arities, n
                )
                assert check(tuple(full)) is want, (n, arities, axioms)
    assert checked > 10_000 and unassigned > 1_000


@pytest.mark.parametrize("scan", [False, True])
def test_one_function_per_axiom(scan):
    # commutativity and a right unit of f : 2-ary, c : constant
    arities, f, c = [2, 0], -1, -2
    axioms = [(2, (0, 1, f), (1, 0, f)), (1, (0, c, f), (0,))]
    body = ast.parse(pure._source(3, arities, axioms, scan)).body
    assert [type(node) for node in body] == [ast.FunctionDef] * len(axioms)
    # 9 + 3 instances, but each axiom's closures share one code object
    closures = pure._instances(3, arities, axioms, scan)
    assert len(closures) == 12
    assert len({check.__code__ for check in closures}) == len(axioms)


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
@pytest.mark.parametrize("kernel", ["scan_tables", "search_tables"])
def test_malformed_code_rejected_before_codegen(monkeypatch, axiom, kernel):
    def no_source(*args):
        raise AssertionError("source generated for malformed code")

    monkeypatch.setattr(pure, "_source", no_source)
    with pytest.raises(ValueError, match="malformed|n_vars"):
        getattr(pure, kernel)(2, [2], [(1, (0, 0, -1), (0,)), axiom])


@pytest.mark.parametrize("kernel", ["scan_tables", "search_tables"])
def test_bool_tokens_act_as_ints(kernel):
    # True is variable 1 and a count of one variable, as in the interpreter
    as_ints = [(2, (0, 1, -1), (1, 0, -1)), (1, (0, 0, -1), (0,))]
    as_bools = [(2, (0, True, -1), (True, 0, -1)), (True, (False, False, -1), (False,))]
    for n in (1, 2, 3):
        expected = getattr(pure, kernel)(n, [2], as_ints)
        assert expected and getattr(pure, kernel)(n, [2], as_bools) == expected
        assert ref.search_tables(n, [2], as_bools) == expected


@pytest.mark.parametrize("kernel", ["scan_tables", "search_tables"])
@pytest.mark.parametrize("axiom", [(1, (0.0, 0, -1), (0,)), (1.0, (0,), (0,))])
def test_non_integer_tokens_rejected(kernel, axiom):
    # %d would render 0.0 as 0; the check refuses it as the native kernels do
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        getattr(pure, kernel)(2, [2], [axiom])


# f : 2-ary, g : 1-ary, c, d : constants
ARITIES = [2, 1, 0, 0]
F, G, C, D = (-(s + 1) for s in range(4))


@pytest.mark.parametrize(
    "axioms",
    [
        pytest.param([], id="free"),
        pytest.param([(2, (0,), (1,))], id="x=y"),
        pytest.param([(1, (0,), (0,))], id="x=x"),
        pytest.param([(0, (C,), (D,))], id="ground c=d"),
        pytest.param([(0, (C, G), (D,)), (1, (0, G, G), (0,))], id="ground g(c)=d, involution"),
        pytest.param([(2, (0, 1, F), (1, 0, F)), (1, (0, C, F), (0,))], id="commutative unit"),
        pytest.param([(1, (0, G), (C,)), (0, (C,), (C, C, F))], id="constant g, idempotent c"),
    ],
)
@pytest.mark.parametrize("n", [0, 1, 2])
def test_edge_axioms_search_equals_scan(axioms, n):
    assert pure.search_tables(n, ARITIES, axioms) == pure.scan_tables(n, ARITIES, axioms)


def test_false_variable_only_axiom_has_no_models():
    assert pure.search_tables(2, [2], [(2, (0,), (1,))]) == []
    assert pure.search_tables(2, [], [(2, (0,), (1,))]) == []
    assert pure.search_tables(1, [], [(2, (0,), (1,))]) == [()]


# ---------------------------------------------------------------------------
# Hom image tables


def per_bit_table(atom_map, m, k):
    """Reference tabulation: test every target bit of every element."""
    return [
        sum(1 << j for j in range(k) if (e >> atom_map[j]) & 1) for e in range(1 << m)
    ]


def random_atom_maps(seed, count, max_atoms=10):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(0, max_atoms)
        k = rng.randint(0, max_atoms) if m else 0  # no atom map into 0 atoms
        yield tuple(rng.randrange(m) for _ in range(k)), m, k


def test_image_table_equals_per_bit_reference():
    seen_m, seen_k = set(), set()
    for atom_map, m, k in random_atom_maps(31, 400):
        assert pure.hom_image_table(atom_map, m, k) == per_bit_table(atom_map, m, k), (atom_map, m)
        seen_m.add(m)
        seen_k.add(k)
    assert seen_m == seen_k == set(range(11))


def preserves_operations(img, m, k):
    """Reference check: bottom, top, complements and every pairwise join."""
    top_s, top_t = (1 << m) - 1, (1 << k) - 1
    if img[0] != 0 or img[top_s] != top_t:
        return False
    return all(img[top_s ^ a] == top_t ^ img[a] for a in range(1 << m)) and all(
        img[a | b] == img[a] | img[b] for a in range(1 << m) for b in range(a)
    )


def test_check_hom_table_accepts_real_and_rejects_corrupted():
    rng = random.Random(32)
    rejected_swaps = 0
    for atom_map, m, k in random_atom_maps(33, 300, max_atoms=5):
        img = pure.hom_image_table(atom_map, m, k)
        assert pure.check_hom_table(img, m, k)
        if k == 0:
            continue
        flipped = list(img)
        flipped[rng.randrange(len(img))] ^= 1 << rng.randrange(k)
        assert not pure.check_hom_table(flipped, m, k)
        if m == 0:
            continue
        a, b = rng.sample(range(len(img)), 2)
        swapped = list(img)
        swapped[a], swapped[b] = img[b], img[a]
        # a swap can land on another hom's table (two atoms of a 2-atom
        # source, or equal entries); the pairwise reference decides
        verdict = pure.check_hom_table(swapped, m, k)
        assert verdict == preserves_operations(swapped, m, k), (atom_map, m, a, b)
        rejected_swaps += not verdict
    assert rejected_swaps > 150


def test_verify_hom_rejects_a_kernel_that_permutes_atom_images(monkeypatch):
    # a permuted atom map still tabulates a valid hom, so only the exact
    # atom comparison in verify_hom can tell it from the hom asked for
    h = BoolHom(FiniteBooleanAlgebra(3), FiniteBooleanAlgebra(4), (0, 1, 2, 2))
    assert verify_hom(h)
    shift = {0: 1, 1: 2, 2: 0}

    def permuted(atom_map, m, k):
        return pure.hom_image_table(tuple(shift[i] for i in atom_map), m, k)

    monkeypatch.setattr(boolalg._core, "hom_image_table", permuted)
    assert pure.check_hom_table(h.image_table(), 3, 4)
    assert not verify_hom(h)
