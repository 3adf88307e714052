"""The interpreted table kernels, kept as the reference for the specialised
ones in `catlogic._core.pure`.

These run the axiom bytecode through a generic stack interpreter on every
check: `eval_code` evaluates one side of one instance, `fold` turns an
instance into code whose all-variable applications read fixed cells, and
`eval_instance` runs folded code on a partial table. `scan_tables` and
`search_tables` are the kernels built on them, with the same signatures and
results as the pure ones. No malformed-code check: feed them valid code only.
"""

from itertools import product


def offsets_of(n, arities):
    offsets = []
    total = 0
    for k in arities:
        offsets.append(total)
        total += n**k
    return offsets, total


def eval_code(code, env, tables, offsets, arities, n):
    stack = []
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


def scan_tables(n, arities, axioms):
    offsets, total = offsets_of(n, arities)
    compiled = [
        (list(product(range(n), repeat=n_vars)), lhs, rhs) for n_vars, lhs, rhs in axioms
    ]
    out = []
    for cand in product(range(n), repeat=total):
        ok = True
        for envs, lhs, rhs in compiled:
            for env in envs:
                if eval_code(lhs, env, cand, offsets, arities, n) != eval_code(
                    rhs, env, cand, offsets, arities, n
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(cand)
    return out


def fold(code, env, offsets, arities, n):
    # (value, -1) pushes a literal; (offset, k) reads the cell its k popped
    # arguments index, folded to (cell, 0) when those arguments are literals
    out = []
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


def folded_instances(n, arities, axioms):
    """Folded lhs+rhs per instance, axiom by axiom, environments in product order."""
    offsets, _ = offsets_of(n, arities)
    return [
        fold(lhs, env, offsets, arities, n) + fold(rhs, env, offsets, arities, n)
        for n_vars, lhs, rhs in axioms
        for env in product(range(n), repeat=n_vars)
    ]


def eval_instance(code, tables, n):
    # folded lhs+rhs: lhs == rhs as a bool, or -(cell+1) for the first
    # unassigned (-1) cell the evaluation reads
    stack = []
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


def search_tables(n, arities, axioms):
    offsets, total = offsets_of(n, arities)
    sym_order = sorted(
        range(len(arities)), key=lambda s: (arities[s] != 0, -(n ** arities[s]), s)
    )
    cell_order = []
    for s in sym_order:
        cell_order.extend(range(offsets[s], offsets[s] + n ** arities[s]))

    tables = [-1] * total
    watch = [[] for _ in range(total)]
    for code in folded_instances(n, arities, axioms):
        r = eval_instance(code, tables, n)
        if r < 0:
            watch[-r - 1].append(code)
        elif not r:
            return []
    results = []

    def descend(depth):
        if depth == total:
            results.append(tuple(tables))
            return
        cell = cell_order[depth]
        watching = watch[cell]
        for value in range(n):
            tables[cell] = value
            moved = []
            for code in watching:
                r = eval_instance(code, tables, n)
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
