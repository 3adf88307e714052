"""Pure-Python kernels: reference semantics for the native C twin (`_native.c`).

Both backends must return bit-identical results; the test suite cross-checks
them on shared inputs. Everything here works on plain ints and tuples.

Term bytecode: a postfix token list where token >= 0 pushes env[token] and
token < 0 applies function symbol (-token - 1), popping its arity arguments
(leftmost argument deepest). Tables are flat row-major blocks concatenated in
symbol order; `arities` gives each symbol's argument count.

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

from itertools import product

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


def _eval_code(code, env, tables, offsets, arities, n: int) -> int:
    stack: list[int] = []
    for tok in code:
        if tok >= 0:
            stack.append(env[tok])
        else:
            s = -tok - 1
            k = arities[s]
            idx = 0
            for a in stack[len(stack) - k :]:
                idx = idx * n + a
            del stack[len(stack) - k :]
            stack.append(tables[offsets[s] + idx])
    return stack[-1]


def _check_axioms(arities, axioms) -> None:
    # the native kernels' rules, applied once per axiom: a variable token
    # names one of the axiom's variables, a symbol token one of the symbols,
    # every application finds its arguments on the stack, and each side
    # leaves exactly one value
    for n_vars, lhs, rhs in axioms:
        if n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        for code in (lhs, rhs):
            depth = 0
            for pos, tok in enumerate(code):
                if tok >= 0:
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


def scan_tables(n: int, arities, axioms) -> list[tuple[int, ...]]:
    """All operation-table assignments satisfying every axiom, by raw scan.

    No pruning: every point of the full table space is visited and checked.
    `axioms` is a list of (n_vars, lhs_code, rhs_code). Output is in ascending
    lexicographic order of the concatenated tables.
    """
    _check_axioms(arities, axioms)
    offsets, total = _offsets(n, arities)
    compiled = [
        (list(product(range(n), repeat=n_vars)), lhs, rhs) for n_vars, lhs, rhs in axioms
    ]
    out: list[tuple[int, ...]] = []
    ev = _eval_code
    for cand in product(range(n), repeat=total):
        ok = True
        for envs, lhs, rhs in compiled:
            for env in envs:
                if ev(lhs, env, cand, offsets, arities, n) != ev(rhs, env, cand, offsets, arities, n):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(cand)
    return out


def _fold(code, env, offsets, arities, n: int) -> list[tuple[int, int]]:
    # (value, -1) pushes a literal; (offset, k) reads the cell its k popped
    # arguments index, folded to (cell, 0) when those arguments are literals
    out: list[tuple[int, int]] = []
    for tok in code:
        if tok >= 0:
            out.append((env[tok], -1))
            continue
        s = -tok - 1
        k = arities[s]
        args = out[len(out) - k :]
        if all(kind < 0 for _, kind in args):
            idx = 0
            for v, _ in args:
                idx = idx * n + v
            del out[len(out) - k :]
            out.append((offsets[s] + idx, 0))
        else:
            out.append((offsets[s], k))
    return out


def _eval_instance(code, tables, n: int) -> int:
    # folded lhs+rhs: lhs == rhs as a bool, or -(cell+1) for the first
    # unassigned (-1) cell the evaluation reads
    stack: list[int] = []
    push = stack.append
    pop = stack.pop
    for off, k in code:
        if k < 0:
            push(off)
            continue
        if k == 2:
            b = pop()
            off += pop() * n + b
        elif k == 1:
            off += pop()
        elif k:
            idx = 0
            for a in stack[len(stack) - k :]:
                idx = idx * n + a
            del stack[len(stack) - k :]
            off += idx
        v = tables[off]
        if v < 0:
            return -off - 1
        push(v)
    return stack[0] == stack[1]


def search_tables(n: int, arities, axioms) -> list[tuple[int, ...]]:
    """Same result set as scan_tables, found by axiom-driven backtracking.

    Cells are assigned constants first, then the larger tables. Each axiom
    instance is folded with its environment once and filed on the watch list
    of the first unassigned cell it reads (an instance that reads none is
    decided up front). Assigning the cell at depth d re-evaluates only its
    list: each instance settles, fails the branch, or moves to the list of a
    later cell until backtracking pops it again. Instances are decided at the
    same depth as by the native pending-set scan, so both walk the same tree.
    The output is sorted into scan_tables' canonical order before returning.
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
    ev = _eval_instance
    for n_vars, lhs, rhs in axioms:
        for env in product(range(n), repeat=n_vars):
            code = _fold(lhs, env, offsets, arities, n) + _fold(rhs, env, offsets, arities, n)
            r = ev(code, tables, n)
            if r < 0:
                watch[-r - 1].append(code)
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
            for code in watching:
                r = ev(code, tables, n)
                if r < 0:
                    watch[-r - 1].append(code)
                    moved.append(-r - 1)
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
