/* Compiled kernels; see catlogic._core.pure for the reference semantics.
 *
 * The five functions take and return plain Python ints, tuples and lists,
 * with the same names, arguments, results and exceptions as the pure module,
 * so the two backends are drop-in interchangeable and each is the other's
 * oracle. They compute by different algorithms on purpose:
 *
 * - search_tables rescans every pending axiom instance at each node of the
 *   backtracking search, where pure keeps a watch list per cell. Both decide
 *   each instance at the same depth, so they walk the same tree.
 * - scan_tables runs an odometer over the flat tables.
 * - hom_image_table tests every target bit of every element, where pure
 *   doubles the table once per source atom.
 *
 * Term bytecode is the pure module's: token >= 0 pushes env[token], token < 0
 * applies symbol (-token - 1) to its popped arguments. Codes are checked once
 * when a problem is built, so the evaluator itself indexes unchecked.
 *
 * Build: python setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdio.h>
#include <string.h>

static PyObject *
tuple_of_longs(const long *values, Py_ssize_t len)
{
    PyObject *out = PyTuple_New(len);
    for (Py_ssize_t i = 0; out != NULL && i < len; i++) {
        PyObject *v = PyLong_FromLong(values[i]);
        if (v == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, v);
    }
    return out;
}

/* Appends tuple(values) to the list; -1 on error. */
static int
append_tuple(PyObject *list, const long *values, Py_ssize_t len)
{
    PyObject *t = tuple_of_longs(values, len);
    int rc = t == NULL ? -1 : PyList_Append(list, t);
    Py_XDECREF(t);
    return rc;
}

/* Reads item i of a fast sequence as a C long; -1 with an exception set on
   failure (callers tell a real -1 apart with PyErr_Occurred). */
static long
item_as_long(PyObject *seq, Py_ssize_t i)
{
    return PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
}

/* ------------------------------------------------------------------------ */
/* reduce_word */

PyDoc_STRVAR(reduce_word_doc,
"reduce_word(word)\n--\n\n"
"Reduced form of a free-group word (letters are nonzero ints, -g = g^-1).");

static PyObject *
reduce_word(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"word", NULL};
    PyObject *word, *seq, *out = NULL;
    Py_ssize_t n, top = 0;
    long *buf;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:reduce_word", kwlist, &word))
        return NULL;
    seq = PySequence_Fast(word, "word must be iterable");
    if (seq == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    buf = PyMem_Malloc((n > 0 ? n : 1) * sizeof(long));
    if (buf == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        long letter = item_as_long(seq, i);
        if (letter == -1 && PyErr_Occurred())
            goto done;
        if (letter == 0) {
            PyErr_SetString(PyExc_ValueError, "0 is not a generator letter");
            goto done;
        }
        if (letter == LONG_MIN) {
            /* its inverse -letter is not a C long */
            PyErr_SetString(PyExc_OverflowError, "generator letter out of range");
            goto done;
        }
        if (top > 0 && buf[top - 1] == -letter)
            top--;
        else
            buf[top++] = letter;
    }
    out = tuple_of_longs(buf, top);
done:
    PyMem_Free(buf);
    Py_DECREF(seq);
    return out;
}

/* ------------------------------------------------------------------------ */
/* Table problems: the axiom instances of one signature at one carrier size */

typedef struct {
    const long *env;        /* the instance's variable values */
    const long *lhs, *rhs;  /* postfix codes of the two sides */
    Py_ssize_t lhs_len, rhs_len;
} Instance;

typedef struct {
    long n;                 /* carrier size */
    Py_ssize_t n_syms, total, n_inst, max_stack;
    long *arities;          /* n_syms entries */
    long *offsets;          /* n_syms + 1 entries; offsets[n_syms] == total */
    long *codes;            /* every axiom's lhs code, then its rhs code */
    long *envs;             /* the instances' environments, back to back */
    Instance *inst;         /* n_inst entries, axiom by axiom, envs in
                               itertools.product order */
} Problem;

/* base ** exp into *out; -1 with OverflowError when it passes LONG_MAX. */
static int
checked_pow(long base, long exp, long *out)
{
    long r = 1;
    for (long i = 0; i < exp; i++) {
        if (base != 0 && r > LONG_MAX / base) {
            PyErr_SetString(PyExc_OverflowError, "table size too large");
            return -1;
        }
        r *= base;
    }
    *out = r;
    return 0;
}

/* Appends the postfix code in `code_obj` to p->codes (which holds *len of
   *cap slots) after checking that it reads only variables below n_vars and
   declared symbols, never pops more than it pushed, and leaves one value.
   Tracks the deepest stack in p->max_stack. -1 on error. */
static int
append_code(Problem *p, PyObject *code_obj, long n_vars, Py_ssize_t *len, Py_ssize_t *cap)
{
    PyObject *seq = PySequence_Fast(code_obj, "axiom code must be a sequence");
    Py_ssize_t m, depth = 0;
    if (seq == NULL)
        return -1;
    m = PySequence_Fast_GET_SIZE(seq);
    if (*len + m > *cap) {
        Py_ssize_t want = 2 * (*len + m);
        long *grown = PyMem_Realloc(p->codes, want * sizeof(long));
        if (grown == NULL) {
            Py_DECREF(seq);
            PyErr_NoMemory();
            return -1;
        }
        p->codes = grown;
        *cap = want;
    }
    for (Py_ssize_t i = 0; i < m; i++) {
        long tok = item_as_long(seq, i);
        if (tok == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (tok >= 0 ? tok >= n_vars
                     : -(tok + 1) >= p->n_syms || p->arities[-(tok + 1)] > depth) {
            Py_DECREF(seq);
            PyErr_Format(PyExc_ValueError, "malformed axiom code at token %zd", i);
            return -1;
        }
        depth += tok >= 0 ? 1 : 1 - p->arities[-(tok + 1)];
        if (depth > p->max_stack)
            p->max_stack = depth;
        p->codes[*len + i] = tok;
    }
    Py_DECREF(seq);
    if (depth != 1) {
        PyErr_SetString(PyExc_ValueError, "malformed axiom code: it must leave one value");
        return -1;
    }
    *len += m;
    return 0;
}

static void
problem_free(Problem *p)
{
    PyMem_Free(p->arities);
    PyMem_Free(p->offsets);
    PyMem_Free(p->codes);
    PyMem_Free(p->envs);
    PyMem_Free(p->inst);
}

/* One axiom's place in p->codes and its number of instances. */
typedef struct {
    long n_vars, count;
    Py_ssize_t lhs, lhs_len, rhs_len;
} AxiomSpan;

/* Reads one (n_vars, lhs, rhs) axiom, appending its codes; -1 on error. */
static int
read_axiom(Problem *p, PyObject *obj, AxiomSpan *span, Py_ssize_t *len, Py_ssize_t *cap)
{
    PyObject *triple = PySequence_Fast(obj, "an axiom must be (n_vars, lhs, rhs)");
    int rc = -1;

    if (triple == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(triple) != 3) {
        PyErr_SetString(PyExc_ValueError, "an axiom must be (n_vars, lhs, rhs)");
        goto done;
    }
    span->n_vars = item_as_long(triple, 0);
    if (span->n_vars == -1 && PyErr_Occurred())
        goto done;
    if (span->n_vars < 0) {
        PyErr_SetString(PyExc_ValueError, "n_vars must be non-negative");
        goto done;
    }
    if (checked_pow(p->n, span->n_vars, &span->count) < 0)
        goto done;
    span->lhs = *len;
    if (append_code(p, PySequence_Fast_GET_ITEM(triple, 1), span->n_vars, len, cap) < 0)
        goto done;
    span->lhs_len = *len - span->lhs;
    if (append_code(p, PySequence_Fast_GET_ITEM(triple, 2), span->n_vars, len, cap) < 0)
        goto done;
    span->rhs_len = *len - span->lhs - span->lhs_len;
    rc = 0;
done:
    Py_DECREF(triple);
    return rc;
}

/* Copies the signature and expands every axiom into its instances; -1 on
   error, after which problem_free still releases what was allocated. */
static int
problem_init(Problem *p, long n, PyObject *arities_obj, PyObject *axioms_obj)
{
    PyObject *ar = NULL, *ax = NULL;
    Py_ssize_t n_ax, code_len = 0, code_cap = 0, env_len = 0;
    AxiomSpan *spans = NULL;
    Instance *in;
    long *env;
    int rc = -1;

    memset(p, 0, sizeof(*p));
    p->n = n;
    p->max_stack = 1;
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "carrier size must be non-negative");
        return -1;
    }
    ar = PySequence_Fast(arities_obj, "arities must be a sequence");
    if (ar == NULL)
        goto done;
    p->n_syms = PySequence_Fast_GET_SIZE(ar);
    p->arities = PyMem_Malloc((p->n_syms + 1) * sizeof(long));
    p->offsets = PyMem_Malloc((p->n_syms + 1) * sizeof(long));
    if (p->arities == NULL || p->offsets == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t s = 0; s < p->n_syms; s++) {
        long k = item_as_long(ar, s), cells;
        if (k == -1 && PyErr_Occurred())
            goto done;
        if (k < 0) {
            PyErr_SetString(PyExc_ValueError, "arities must be non-negative");
            goto done;
        }
        if (checked_pow(n, k, &cells) < 0)
            goto done;
        if (p->total > LONG_MAX - cells) {
            PyErr_SetString(PyExc_OverflowError, "table size too large");
            goto done;
        }
        p->arities[s] = k;
        p->offsets[s] = p->total;
        p->total += cells;
    }
    p->offsets[p->n_syms] = p->total;

    ax = PySequence_Fast(axioms_obj, "axioms must be a sequence");
    if (ax == NULL)
        goto done;
    n_ax = PySequence_Fast_GET_SIZE(ax);
    spans = PyMem_Malloc((n_ax + 1) * sizeof(AxiomSpan));
    if (spans == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t a = 0; a < n_ax; a++) {
        AxiomSpan *sp = &spans[a];
        if (read_axiom(p, PySequence_Fast_GET_ITEM(ax, a), sp, &code_len, &code_cap) < 0)
            goto done;
        if (p->n_inst > PY_SSIZE_T_MAX / 2 - sp->count
            || (sp->n_vars > 0 && sp->count > (PY_SSIZE_T_MAX / 2 - env_len) / sp->n_vars)) {
            PyErr_SetString(PyExc_OverflowError, "too many axiom instances");
            goto done;
        }
        p->n_inst += sp->count;
        env_len += sp->count * sp->n_vars;
    }

    p->envs = PyMem_Malloc((env_len + 1) * sizeof(long));
    p->inst = PyMem_Malloc((p->n_inst + 1) * sizeof(Instance));
    if (p->envs == NULL || p->inst == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    in = p->inst;
    env = p->envs;
    for (Py_ssize_t a = 0; a < n_ax; a++) {
        const AxiomSpan *sp = &spans[a];
        long v = sp->n_vars;
        for (long c = 0; c < sp->count; c++, in++, env += v) {
            /* digits of c in base n, most significant first */
            for (long j = v - 1, rest = c; j >= 0; j--, rest /= p->n)
                env[j] = rest % p->n;
            in->env = env;
            in->lhs = p->codes + sp->lhs;
            in->lhs_len = sp->lhs_len;
            in->rhs = in->lhs + sp->lhs_len;
            in->rhs_len = sp->rhs_len;
        }
    }
    rc = 0;
done:
    Py_XDECREF(ar);
    Py_XDECREF(ax);
    PyMem_Free(spans);
    return rc;
}

/* Value of a postfix code under env, or -1 as soon as it reads an
   unassigned (-1) cell; real values are always >= 0. The scan assigns every
   cell, so it never sees -1. */
static inline long
eval_code(const long *code, Py_ssize_t len, const long *env, const long *tables,
          const long *offsets, const long *arities, long n, long *stack)
{
    Py_ssize_t sp = 0;
    for (Py_ssize_t i = 0; i < len; i++) {
        long tok = code[i];
        if (tok >= 0) {
            stack[sp++] = env[tok];
        } else {
            long s = -tok - 1, k = arities[s], idx = 0, v;
            for (Py_ssize_t j = sp - k; j < sp; j++)
                idx = idx * n + stack[j];
            sp -= k;
            v = tables[offsets[s] + idx];
            if (v < 0)
                return -1;
            stack[sp++] = v;
        }
    }
    return stack[sp - 1];
}

/* The n = 0 answer, shared by both table kernels: only the empty table. */
static PyObject *
empty_carrier(const Problem *p)
{
    return p->total == 0 ? Py_BuildValue("[()]") : PyList_New(0);
}

static PyObject *
scan(const Problem *p)
{
    Py_ssize_t total = p->total, pos;
    long n = p->n, *tables, *stack;
    PyObject *out;

    if (n == 0)
        return empty_carrier(p);
    tables = PyMem_Calloc(total + p->max_stack + 1, sizeof(long));
    if (tables == NULL)
        return PyErr_NoMemory();
    stack = tables + total;
    out = PyList_New(0);
    while (out != NULL) {
        int ok = 1;
        for (Py_ssize_t i = 0; i < p->n_inst; i++) {
            const Instance *in = &p->inst[i];
            long lv = eval_code(in->lhs, in->lhs_len, in->env, tables, p->offsets,
                                p->arities, n, stack);
            long rv = eval_code(in->rhs, in->rhs_len, in->env, tables, p->offsets,
                                p->arities, n, stack);
            if (lv != rv) {
                ok = 0;
                break;
            }
        }
        if (ok && append_tuple(out, tables, total) < 0) {
            Py_CLEAR(out);
            break;
        }
        /* odometer with the last cell fastest: lexicographic ascending */
        for (pos = total - 1; pos >= 0; pos--) {
            if (++tables[pos] < n)
                break;
            tables[pos] = 0;
        }
        if (pos < 0)
            break;
    }
    PyMem_Free(tables);
    return out;
}

/* Whether symbol a's cells are assigned before symbol b's: constants first,
   then larger tables, ties by declaration order. */
static int
sym_before(const Problem *p, long a, long b)
{
    int ca = p->arities[a] != 0, cb = p->arities[b] != 0;
    long sa = p->offsets[a + 1] - p->offsets[a], sb = p->offsets[b + 1] - p->offsets[b];
    if (ca != cb)
        return ca < cb;
    if (sa != sb)
        return sa > sb;
    return a < b;
}

static PyObject *
search(const Problem *p)
{
    Py_ssize_t total = p->total, n_syms = p->n_syms, depth, filled = 0;
    long n = p->n;
    long *work, *order, *cell_order, *tables, *value_at, *pend_count_at, *pending, *stack;
    PyObject *out;

    if (n == 0)
        return empty_carrier(p);
    if (total == 0)
        return scan(p);
    work = PyMem_Malloc((n_syms + 4 * total + 1 + p->n_inst + p->max_stack) * sizeof(long));
    if (work == NULL)
        return PyErr_NoMemory();
    order = work;
    cell_order = order + n_syms;
    tables = cell_order + total;
    value_at = tables + total;
    pend_count_at = value_at + total;
    pending = pend_count_at + total + 1;
    stack = pending + p->n_inst;

    for (Py_ssize_t s = 0; s < n_syms; s++) {
        Py_ssize_t j = s;
        for (; j > 0 && sym_before(p, s, order[j - 1]); j--)
            order[j] = order[j - 1];
        order[j] = s;
    }
    for (Py_ssize_t s = 0; s < n_syms; s++)
        for (long c = p->offsets[order[s]]; c < p->offsets[order[s] + 1]; c++)
            cell_order[filled++] = c;
    for (Py_ssize_t i = 0; i < total; i++)
        tables[i] = value_at[i] = -1;
    for (Py_ssize_t i = 0; i < p->n_inst; i++)
        pending[i] = i;
    pend_count_at[0] = p->n_inst;

    out = PyList_New(0);
    depth = 0;
    while (out != NULL && depth >= 0) {
        long cell, value;
        Py_ssize_t pend_n, i;
        int ok = 1;
        if (depth == total) {
            if (append_tuple(out, tables, total) < 0)
                Py_CLEAR(out);
            depth--;
            continue;
        }
        cell = cell_order[depth];
        value = value_at[depth] + 1;
        if (value >= n) {
            value_at[depth] = -1;
            tables[cell] = -1;
            depth--;
            continue;
        }
        value_at[depth] = value;
        tables[cell] = value;
        pend_n = pend_count_at[depth];
        for (i = 0; i < pend_n;) {
            long inst = pending[i];
            const Instance *in = &p->inst[inst];
            long lv = eval_code(in->lhs, in->lhs_len, in->env, tables, p->offsets,
                                p->arities, n, stack);
            long rv = lv < 0 ? -1 : eval_code(in->rhs, in->rhs_len, in->env, tables,
                                              p->offsets, p->arities, n, stack);
            if (rv < 0) {
                i++;
                continue;
            }
            if (lv != rv) {
                ok = 0;
                break;
            }
            /* settled under this partial assignment: swap past the active prefix */
            pend_n--;
            pending[i] = pending[pend_n];
            pending[pend_n] = inst;
        }
        if (!ok)
            continue;
        depth++;
        pend_count_at[depth] = pend_n;
    }
    PyMem_Free(work);
    if (out != NULL && PyList_Sort(out) < 0)
        Py_CLEAR(out);
    return out;
}

static PyObject *
run_tables(PyObject *args, PyObject *kwds, const char *format,
           PyObject *(*kernel)(const Problem *))
{
    static char *kwlist[] = {"n", "arities", "axioms", NULL};
    long n;
    PyObject *arities, *axioms, *out = NULL;
    Problem p;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, format, kwlist, &n, &arities, &axioms))
        return NULL;
    if (problem_init(&p, n, arities, axioms) == 0)
        out = kernel(&p);
    problem_free(&p);
    return out;
}

PyDoc_STRVAR(scan_tables_doc,
"scan_tables(n, arities, axioms)\n--\n\n"
"All operation-table assignments satisfying every axiom, by raw scan,\n"
"in ascending lexicographic order of the concatenated tables.");

static PyObject *
scan_tables(PyObject *self, PyObject *args, PyObject *kwds)
{
    return run_tables(args, kwds, "lOO:scan_tables", scan);
}

PyDoc_STRVAR(search_tables_doc,
"search_tables(n, arities, axioms)\n--\n\n"
"Same result list as scan_tables, found by backtracking that re-checks\n"
"every pending axiom instance at each node.");

static PyObject *
search_tables(PyObject *self, PyObject *args, PyObject *kwds)
{
    return run_tables(args, kwds, "lOO:search_tables", search);
}

/* ------------------------------------------------------------------------ */
/* Boolean hom tables. Target elements fit in one 64-bit word while k <= 64;
   wider targets use Python ints. */

/* Shared argument handling: parses (seq, m_atoms, k_atoms), checks the atom
   counts and returns a new reference to the sequence as a fast sequence. */
static PyObject *
hom_args(PyObject *args, PyObject *kwds, const char *format, char **kwlist,
         long *m, long *k)
{
    PyObject *obj;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, format, kwlist, &obj, m, k))
        return NULL;
    if (*m < 0 || *k < 0) {
        PyErr_SetString(PyExc_ValueError, "atom counts must be non-negative");
        return NULL;
    }
    if (*m > (long)(8 * sizeof(Py_ssize_t)) - 2)
        return PyErr_NoMemory();  /* 2**m entries */
    return PySequence_Fast(obj, "expected a sequence");
}

/* Python int from nw 64-bit words, least significant first. */
static PyObject *
long_from_words(const unsigned long long *words, Py_ssize_t nw, char *hex)
{
    for (Py_ssize_t w = 0; w < nw; w++)
        snprintf(hex + 16 * w, 17, "%016llx", words[nw - 1 - w]);
    return PyLong_FromString(hex, NULL, 16);
}

PyDoc_STRVAR(hom_image_table_doc,
"hom_image_table(atom_map, m_atoms, k_atoms)\n--\n\n"
"Element map of the dual-encoded hom, tabulated over all 2^m_atoms inputs:\n"
"bit j of the image of e is set exactly when atom_map[j] lies below e.");

static PyObject *
hom_image_table(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"atom_map", "m_atoms", "k_atoms", NULL};
    long m, k;
    PyObject *seq = hom_args(args, kwds, "Oll:hom_image_table", kwlist, &m, &k);
    PyObject *out = NULL;
    Py_ssize_t size, nw;
    long *amap = NULL;
    unsigned long long *words = NULL;
    char *hex = NULL;

    if (seq == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(seq) < k) {
        PyErr_SetString(PyExc_IndexError, "atom map shorter than k_atoms");
        goto done;
    }
    size = (Py_ssize_t)1 << m;
    nw = (k + 63) / 64;
    amap = PyMem_Malloc((k + 1) * sizeof(long));
    words = PyMem_Malloc((nw + 1) * sizeof(unsigned long long));
    hex = PyMem_Malloc(16 * nw + 1);
    if (amap == NULL || words == NULL || hex == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (long j = 0; j < k; j++) {
        amap[j] = item_as_long(seq, j);
        if (amap[j] == -1 && PyErr_Occurred())
            goto done;
        if (amap[j] < 0 || amap[j] >= m) {
            PyErr_SetString(PyExc_IndexError, "atom map entry out of range");
            goto done;
        }
    }
    out = PyList_New(size);
    for (Py_ssize_t e = 0; out != NULL && e < size; e++) {
        PyObject *v;
        if (k <= 64) {
            unsigned long long h = 0;
            for (long j = 0; j < k; j++)
                if ((e >> amap[j]) & 1)
                    h |= 1ULL << j;
            v = PyLong_FromUnsignedLongLong(h);
        } else {
            memset(words, 0, nw * sizeof(unsigned long long));
            for (long j = 0; j < k; j++)
                if ((e >> amap[j]) & 1)
                    words[j >> 6] |= 1ULL << (j & 63);
            v = long_from_words(words, nw, hex);
        }
        if (v == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, e, v);
    }
done:
    Py_DECREF(seq);
    PyMem_Free(amap);
    PyMem_Free(words);
    PyMem_Free(hex);
    return out;
}

/* The three checks of check_hom_table on 64-bit entries (k <= 64). Every
   entry of a valid table lies in [0, 2^k), so an int that does not fit an
   unsigned 64-bit word makes the table invalid. 1 valid, 0 not, -1 error. */
static int
check_words(PyObject **img, Py_ssize_t size, long k)
{
    unsigned long long full_tgt = k == 0 ? 0 : ~0ULL >> (64 - k);
    Py_ssize_t full_src = size - 1;
    unsigned long long *tab = PyMem_Malloc(size * sizeof(unsigned long long));
    int ok = 1;

    if (tab == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t e = 0; ok == 1 && e < size; e++) {
        tab[e] = PyLong_AsUnsignedLongLong(img[e]);
        if (tab[e] == (unsigned long long)-1 && PyErr_Occurred()) {
            ok = PyErr_ExceptionMatches(PyExc_OverflowError) ? 0 : -1;
            if (ok == 0)
                PyErr_Clear();
        }
    }
    if (ok == 1 && (tab[0] != 0 || tab[full_src] != full_tgt))
        ok = 0;
    for (Py_ssize_t e = 0; ok == 1 && e < size; e++)
        if (tab[full_src ^ e] != (full_tgt ^ tab[e]))
            ok = 0;
    for (Py_ssize_t e = 1; ok == 1 && e < size; e++) {
        Py_ssize_t low = e & -e;
        if (tab[e] != (tab[e ^ low] | tab[low]))
            ok = 0;
    }
    PyMem_Free(tab);
    return ok;
}

/* img[a] == (x OP y); steals nothing. 1, 0, or -1 on error. */
static int
equals_op(PyObject *a, PyObject *(*op)(PyObject *, PyObject *), PyObject *x, PyObject *y)
{
    PyObject *r = op(x, y);
    int eq = r == NULL ? -1 : PyObject_RichCompareBool(a, r, Py_EQ);
    Py_XDECREF(r);
    return eq;
}

/* The same three checks on Python ints, for k > 64. */
static int
check_objects(PyObject **img, Py_ssize_t size, long k)
{
    Py_ssize_t full_src = size - 1;
    PyObject *zero = PyLong_FromLong(0), *one = PyLong_FromLong(1);
    PyObject *kk = PyLong_FromLong(k), *bit = NULL, *full = NULL;
    int ok = -1;

    if (zero != NULL && one != NULL && kk != NULL)
        bit = PyNumber_Lshift(one, kk);
    if (bit != NULL)
        full = PyNumber_Subtract(bit, one);
    if (full == NULL)
        goto done;
    ok = PyObject_RichCompareBool(img[0], zero, Py_EQ);
    if (ok == 1)
        ok = PyObject_RichCompareBool(img[full_src], full, Py_EQ);
    for (Py_ssize_t e = 0; ok == 1 && e < size; e++)
        ok = equals_op(img[full_src ^ e], PyNumber_Xor, full, img[e]);
    for (Py_ssize_t e = 1; ok == 1 && e < size; e++) {
        Py_ssize_t low = e & -e;
        ok = equals_op(img[e], PyNumber_Or, img[e ^ low], img[low]);
    }
done:
    Py_XDECREF(zero);
    Py_XDECREF(one);
    Py_XDECREF(kk);
    Py_XDECREF(bit);
    Py_XDECREF(full);
    return ok;
}

PyDoc_STRVAR(check_hom_table_doc,
"check_hom_table(img, m_atoms, k_atoms)\n--\n\n"
"Whether a tabulated element map preserves the five Boolean operations.");

static PyObject *
check_hom_table(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"img", "m_atoms", "k_atoms", NULL};
    long m, k;
    PyObject *seq = hom_args(args, kwds, "Oll:check_hom_table", kwlist, &m, &k);
    Py_ssize_t size;
    int ok;

    if (seq == NULL)
        return NULL;
    size = (Py_ssize_t)1 << m;
    if (PySequence_Fast_GET_SIZE(seq) < size) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_IndexError, "table shorter than 2**m_atoms");
        return NULL;
    }
    ok = k <= 64 ? check_words(PySequence_Fast_ITEMS(seq), size, k)
                 : check_objects(PySequence_Fast_ITEMS(seq), size, k);
    Py_DECREF(seq);
    return ok < 0 ? NULL : PyBool_FromLong(ok);
}

/* ------------------------------------------------------------------------ */

#define KERNEL(name) \
    {#name, (PyCFunction)(void (*)(void))name, METH_VARARGS | METH_KEYWORDS, name##_doc}

static PyMethodDef native_methods[] = {
    KERNEL(reduce_word),
    KERNEL(scan_tables),
    KERNEL(search_tables),
    KERNEL(hom_image_table),
    KERNEL(check_hom_table),
    {NULL, NULL, 0, NULL},
};

static int
native_exec(PyObject *module)
{
    return PyModule_AddStringConstant(module, "BACKEND", "native");
}

static PyModuleDef_Slot native_slots[] = {
    {Py_mod_exec, native_exec},
    {0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "Compiled kernels; see catlogic._core.pure for the reference semantics.",
    .m_size = 0,
    .m_methods = native_methods,
    .m_slots = native_slots,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModuleDef_Init(&native_module);
}
