"""The pure pruned table search must return exactly the raw scan's list.

tests/test_backends.py compares the backends only where the compiled
extension is built; these check the pure kernel against its own oracle on
random and edge-case signatures everywhere.
"""

import random

import pytest

from catlogic._core import pure

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


def test_random_signatures_search_equals_scan():
    rng = random.Random(2024)
    seen_arities, seen_vars, seen_sizes, nonempty = set(), set(), set(), 0
    for _ in range(150):
        arities, axioms = random_signature(rng)
        for n in range(4):
            if n ** sum(n**k for k in arities) > MAX_CANDIDATES:
                continue
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
