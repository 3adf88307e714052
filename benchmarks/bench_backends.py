"""Benchmark the pure-Python kernels against the compiled extension.

Run from the repository root:

    python benchmarks/bench_backends.py

Workloads mirror the hot paths of the acceptance suite: free-group word
reduction, the raw table scan (the model-count oracle), the pruned table
search on both group presentations, 200 calls of each table kernel at n=2
(the per-call set-up), powerset-hom verification, the Lindenbaum model walk
of a 16-letter theory, two Lang/Syn adjunction checks (one that samples
its naturality squares, one that checks them all), and the `brain check`
audit of an 8-neuron brain; the last three run their hom enumerations on the
backend's hom kernels (the model walk runs the same Python on both). Each
row prints the best of its runs; the adjunction check also prints its first
run, which verifies each hom shape for the kernel pair.
"""

import contextlib
import dataclasses
import random
import time

from catlogic import _core, adjunction, boolalg, brain
from catlogic._core import pure
from catlogic.boolalg import FiniteBooleanAlgebra
from catlogic.dsl import parse_theory

try:
    from catlogic._core import _native as native
except ImportError:
    native = None

GROUP_ARITIES = [2, 1, 0]
GROUP_AXIOMS = [
    (3, (0, 1, 2, -1, -1), (0, 1, -1, 2, -1)),
    (1, (0, -3, -1), (0,)),
    (1, (-3, 0, -1), (0,)),
    (1, (0, 0, -2, -1), (-3,)),
    (1, (0, -2, 0, -1), (-3,)),
]
# fixtures/group_alt.thy (GROUP_R): associativity, right unit, right inverse
GROUP_R_AXIOMS = [GROUP_AXIOMS[0], GROUP_AXIOMS[1], GROUP_AXIOMS[3]]
ADJUNCTION_ROW = "check_adjunction B=3 x Syn T=8"


@contextlib.contextmanager
def hom_kernels(impl):
    """Route the hom enumerations through `impl`'s kernels for the block."""
    saved = _core.hom_image_table, _core.check_hom_table
    _core.hom_image_table, _core.check_hom_table = impl.hom_image_table, impl.check_hom_table
    try:
        yield
    finally:
        _core.hom_image_table, _core.check_hom_table = saved


def bench(fn, *args, repeat=1):
    """(first run, best run, result) of `repeat` runs, in seconds."""
    times = []
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return times[0], min(times), result


def workloads():
    rng = random.Random(1)
    letters = [s * g for g in (1, 2, 3) for s in (1, -1)]
    words = [
        [rng.choice(letters) for _ in range(rng.randint(0, 60))] for _ in range(20_000)
    ]

    def run_words(impl):
        return [impl.reduce_word(w) for w in words]

    amap = tuple(rng.randrange(16) for _ in range(16))

    def run_homs(impl):
        for _ in range(20):
            img = impl.hom_image_table(amap, 16, 16)
            assert impl.check_hom_table(img, 16, 16)

    def x200(kernel):
        # 200 calls on a tiny table space, so the per-call set-up dominates
        def run(impl):
            return [getattr(impl, kernel)(2, GROUP_ARITIES, GROUP_AXIOMS) for _ in range(200)]

        return run

    yield "reduce_word x20k", run_words, 3
    yield "search_tables group n=2 x200", x200("search_tables"), 3
    yield "scan_tables group n=2 x200", x200("scan_tables"), 3
    yield "scan_tables group n=3 (oracle)", lambda impl: impl.scan_tables(
        3, GROUP_ARITIES, GROUP_AXIOMS
    ), 1
    yield "search_tables group n=4 (pruned)", lambda impl: impl.search_tables(
        4, GROUP_ARITIES, GROUP_AXIOMS
    ), 1

    def run_group_r(impl):
        tables = impl.search_tables(4, GROUP_ARITIES, GROUP_R_AXIOMS)
        assert len(tables) == 16, "GROUP_R must have the 16 labelled groups of order 4"
        return tables

    yield "search_tables group_r n=4 (pruned)", run_group_r, 1
    yield "hom image+check 16 atoms x20", run_homs, 1

    # p00 <-> p01 <-> ... <-> p15: the walk visits 2**16 assignments and keeps
    # the 2 where every letter agrees
    names = [f"p{i:02d}" for i in range(16)]
    chain = parse_theory(
        f"theory CHAIN prop {{ letters {', '.join(names)}; "
        + " ".join(f"axiom iff({a}, {b});" for a, b in zip(names, names[1:]))
        + " }"
    )

    def run_lindenbaum(impl):
        # a copy starts with an empty memo, so each run walks again
        algebra = boolalg.lindenbaum_algebra(dataclasses.replace(chain)).algebra
        assert algebra.atom_count == 2, "the iff chain has exactly 2 models"
        return algebra.atom_labels

    yield "lindenbaum_algebra iff-chain 16 letters", run_lindenbaum, 3

    # an axiomless 3-letter theory: Syn T has 8 atoms, so 3**8 homs a side
    free3 = parse_theory("theory FREE3 prop { letters x, y, z; }")

    def run_adjunction(impl):
        with hom_kernels(impl):
            report = adjunction.check_adjunction(FiniteBooleanAlgebra(3), free3)
        assert report.left_count == 6561 and report.passed
        return report

    # best of 3: the first run fills the lang cache and the theory memos,
    # and verifies each hom shape once for the backend's kernel pair, so
    # main prints it on a row of its own
    yield ADJUNCTION_ROW, run_adjunction, 3

    # T-family exhaustive: 8 * 2**8 T-squares with 5 * 2 B-squares, every
    # one checked
    def run_adjunction_exhaustive(impl):
        with hom_kernels(impl):
            report = adjunction.check_adjunction(FiniteBooleanAlgebra(2), free3)
        assert report.passed and report.naturality_checked == report.naturality_total == 2058
        return report

    yield "check_adjunction B=2 x Syn T=8", run_adjunction_exhaustive, 3

    # 64 ordered neuron pairs over 3 distinct algebras
    counts = (1, 2, 3, 1, 2, 3, 1, 2)
    net = brain.load_brain("brain b {" + "".join(f" neuron n{i} atoms={c};" for i, c in enumerate(counts)) + " }")

    def run_audit(impl):
        with hom_kernels(impl):
            records = brain.audit_adjunction(net)
        assert len(records) == 64 and all(r["passed"] for r in records)
        return records

    yield "audit_adjunction 8 neurons (atoms 1-3)", run_audit, 3


def main() -> None:
    print(f"{'workload':40} {'pure':>10} {'native':>10} {'speedup':>9}")
    for name, work, repeat in workloads():
        first_pure, t_pure, r_pure = bench(work, pure, repeat=repeat)
        if native is None:
            print(f"{name:40} {t_pure:9.3f}s {'-':>10} {'-':>9}")
            if name == ADJUNCTION_ROW:
                print(f"{'  first run':40} {first_pure:9.3f}s {'-':>10} {'-':>9}")
            continue
        first_native, t_native, r_native = bench(work, native, repeat=repeat)
        if r_pure is not None and r_native is not None:
            assert r_pure == r_native, f"{name}: backends disagree"
        print(f"{name:40} {t_pure:9.3f}s {t_native:9.3f}s {t_pure / t_native:8.1f}x")
        if name == ADJUNCTION_ROW:
            print(f"{'  first run':40} {first_pure:9.3f}s {first_native:9.3f}s {first_pure / first_native:8.1f}x")
    if native is None:
        print("\ncompiled kernels not built; only the pure backend was timed")


if __name__ == "__main__":
    main()
