"""Pure-Python kernels: reference semantics for the native C twin (`_native.c`).

Both backends must return bit-identical results; the test suite cross-checks
them on shared inputs. Everything here works on plain ints and tuples.

Term bytecode: a postfix token list where token >= 0 pushes env[token] and
token < 0 applies function symbol (-token - 1), popping its arity arguments
(leftmost argument deepest). Tables are flat row-major blocks concatenated in
symbol order; `arities` gives each symbol's argument count.

The table kernels do not interpret the bytecode. Each call specialises it
to the signature and carrier size (the first Futamura projection): one
Python factory per axiom, built from integers only and compiled once, which
turns each instance's environment into a closure with its fixed cells
precomputed. The generic interpreters they replace are kept in
tests/reference_kernels.py as the reference both kernels are tested against.

The pruned search keeps a watch list per cell: each axiom instance waits on
the first unassigned cell it reads and is re-evaluated only when that cell
is assigned. `_native.search_tables` instead rescans every pending instance
at each node; both decide each instance at the same depth, so they explore
the same tree and return the same list.

The hom image table is built by doubling: each source atom's image is read
off the atom map once and joined into a copy of the table so far, with no
per-bit loop. `_native.hom_image_table` tests every target bit of every
element instead, so the two tabulate by different algorithms.
"""

from __future__ import annotations

from itertools import product, starmap
from operator import index

BACKEND = "pure"


def reduce_word(word) -> tuple[int, ...]:
    """Reduced form of a free-group word (letters are nonzero ints, -g = g^-1)."""
    out: list[int] = []
    push = out.append
    for letter in word:
        if letter == 0:
            raise ValueError("0 is not a generator letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            push(letter)
    return tuple(out)


def _offsets(n: int, arities) -> tuple[list[int], int]:
    offsets = []
    total = 0
    for k in arities:
        offsets.append(total)
        total += n**k
    return offsets, total


def _check_axioms(arities, axioms) -> None:
    # the native kernels' rules, applied once per axiom: a variable token
    # names one of the axiom's variables, a symbol token one of the symbols,
    # every application finds its arguments on the stack, and each side
    # leaves exactly one value; index() rejects a non-integer as native does
    for n_vars, lhs, rhs in axioms:
        if index(n_vars) < 0:
            raise ValueError("n_vars must be non-negative")
        for code in (lhs, rhs):
            depth = 0
            for pos, tok in enumerate(code):
                if index(tok) >= 0:
                    if tok >= n_vars:
                        raise ValueError(f"malformed axiom code at token {pos}")
                    depth += 1
                else:
                    s = -tok - 1
                    if s >= len(arities) or arities[s] > depth:
                        raise ValueError(f"malformed axiom code at token {pos}")
                    depth += 1 - arities[s]
            if depth != 1:
                raise ValueError("malformed axiom code: it must leave one value")


def _axiom_source(i: int, axiom, n: int, offsets, arities, scan: bool) -> str:
    # factory a<i> runs on one environment v0.. and returns the instance
    # closure check(t). Read j's cell is the sum of a fixed part (the
    # symbol's offset and the terms of variable arguments) and a moving part
    # (the terms of read arguments). A fixed part that needs arithmetic is
    # computed once in the factory as c<j>; with no moving part it is the
    # cell that folding fixes. Numbers enter the source through %d only.
    n_vars, lhs, rhs = axiom
    pre: list[str] = []
    body: list[str] = []
    sides = []
    reads = 0
    for code in (lhs, rhs):
        stack: list[tuple[bool, str]] = []  # (is a variable, expression)
        for tok in code:
            if tok >= 0:
                stack.append((True, "v%d" % tok))
                continue
            s = -tok - 1
            k = arities[s]
            fixed = ["%d" % offsets[s]] if offsets[s] else []
            moving: list[str] = []
            for a, (is_var, e) in enumerate(stack[len(stack) - k :]):
                p = n ** (k - 1 - a)
                (fixed if is_var else moving).append(e if p == 1 else "%s*%d" % (e, p))
            del stack[len(stack) - k :]
            j = reads
            reads += 1
            if len(fixed) > 1 or "*" in "".join(fixed):
                pre.append("c%d = %s" % (j, " + ".join(fixed)))
                fixed = ["c%d" % j]
            cell = " + ".join(fixed + moving) or "0"
            if scan:
                stack.append((False, "t[%s]" % cell))
                continue
            # search: read in postfix order; the first unassigned cell is
            # returned as -(cell+1), which is ~cell
            if moving:
                body.append("if (r%d := t[(d%d := %s)]) < 0:" % (j, j, cell))
                body.append("    return ~d%d" % j)
            else:
                body.append("if (r%d := t[%s]) < 0:" % (j, cell))
                body.append("    return ~%s" % cell)
            stack.append((False, "r%d" % j))
        sides.append(stack[0][1])
    lines = ["def a%d(%s):" % (i, ", ".join("v%d" % v for v in range(n_vars)))]
    lines += ["    " + line for line in pre]
    lines.append("    def check(t):")
    lines += ["        " + line for line in body]
    lines.append("        return %s == %s" % tuple(sides))
    lines.append("    return check")
    return "\n".join(lines) + "\n"


def _source(n: int, arities, axioms, scan: bool) -> str:
    """Python source with one factory per axiom, specialised to n and arities."""
    offsets, _ = _offsets(n, arities)
    return "".join(
        _axiom_source(i, axiom, n, offsets, arities, scan) for i, axiom in enumerate(axioms)
    )


def _instances(n: int, arities, axioms, scan: bool) -> list:
    """One closure per axiom instance, axiom by axiom, each axiom's
    environments in product order, from a single compile of `_source`.

    A scan closure returns the total `lhs == rhs`. A search closure reads
    the same cells in the same order as the folded instance and returns
    the same value: `lhs == rhs`, or -(cell+1) for the first unassigned
    (-1) cell it reads.
    """
    namespace: dict = {}
    exec(compile(_source(n, arities, axioms, scan), "<axioms>", "exec"), namespace)
    out: list = []
    for i, (n_vars, _, _) in enumerate(axioms):
        out.extend(starmap(namespace["a%d" % i], product(range(n), repeat=n_vars)))
    return out


def scan_tables(n: int, arities, axioms) -> list[tuple[int, ...]]:
    """All operation-table assignments satisfying every axiom, by raw scan.

    No pruning: every point of the full table space is visited and checked,
    instance by instance in axiom order until one fails. `axioms` is a list
    of (n_vars, lhs_code, rhs_code). Output is in ascending lexicographic
    order of the concatenated tables.
    """
    _check_axioms(arities, axioms)
    _, total = _offsets(n, arities)
    checks = _instances(n, arities, axioms, scan=True)
    out: list[tuple[int, ...]] = []
    for cand in product(range(n), repeat=total):
        for check in checks:
            if not check(cand):
                break
        else:
            out.append(cand)
    return out


def search_tables(n: int, arities, axioms) -> list[tuple[int, ...]]:
    """Same result set as scan_tables, found by axiom-driven backtracking.

    Cells are assigned constants first, then the larger tables. Each axiom
    instance is a closure over its environment, and is filed on the watch
    list of the first unassigned cell it reads (an instance that reads none
    is decided up front). Assigning the cell at depth d re-evaluates only
    its list: each instance settles, fails the branch, or moves to the list
    of a later cell until backtracking pops it again. Instances are decided
    at the same depth as by the native pending-set scan, so both walk the
    same tree. The output is sorted into scan_tables' canonical order
    before returning.
    """
    _check_axioms(arities, axioms)
    offsets, total = _offsets(n, arities)
    sym_order = sorted(
        range(len(arities)), key=lambda s: (arities[s] != 0, -(n ** arities[s]), s)
    )
    cell_order: list[int] = []
    for s in sym_order:
        cell_order.extend(range(offsets[s], offsets[s] + n ** arities[s]))

    tables = [-1] * total
    watch: list[list] = [[] for _ in range(total)]
    for check in _instances(n, arities, axioms, scan=False):
        r = check(tables)
        if r < 0:
            watch[~r].append(check)
        elif not r:
            return []
    results: list[tuple[int, ...]] = []

    def descend(depth: int) -> None:
        if depth == total:
            results.append(tuple(tables))
            return
        cell = cell_order[depth]
        watching = watch[cell]
        for value in range(n):
            tables[cell] = value
            moved: list[int] = []
            for check in watching:
                r = check(tables)
                if r < 0:
                    watch[~r].append(check)
                    moved.append(~r)
                elif not r:
                    break
            else:
                descend(depth + 1)
            for blocked in reversed(moved):
                watch[blocked].pop()
        tables[cell] = -1

    descend(0)
    results.sort()
    return results


def hom_image_table(atom_map, m_atoms: int, k_atoms: int) -> list[int]:
    """Element map of the dual-encoded hom, tabulated over all 2^m_atoms inputs.

    atom_map[j] (in range(m_atoms)) names the source atom under target atom
    j; the image of e has bit j set exactly when atom_map[j] lies below e.
    Each source atom's image is collected once, then the table doubles per
    atom: entry e + 2^i is entry e joined with atom i's image. O(2^m + k).
    """
    atom_img = [0] * m_atoms
    for j in range(k_atoms):
        atom_img[atom_map[j]] |= 1 << j
    img = [0]
    for a in atom_img:
        img += [x | a for x in img]
    return img


def check_hom_table(img, m_atoms: int, k_atoms: int) -> bool:
    """Whether a tabulated element map preserves the five Boolean operations.

    Checks bottom/top, complement on every element, and that every image is
    the join of its atomic parts; together these force meet and join
    preservation on all pairs (meets via De Morgan).
    """
    size = 1 << m_atoms
    full_src = size - 1
    full_tgt = (1 << k_atoms) - 1
    if img[0] != 0 or img[full_src] != full_tgt:
        return False
    for e in range(size):
        if img[full_src ^ e] != full_tgt ^ img[e]:
            return False
    for e in range(1, size):
        low = e & -e
        if img[e] != img[e ^ low] | img[low]:
            return False
    return True
