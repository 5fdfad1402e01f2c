/* Compiled residual-formula kernel.

   The same entry points as _kernel_py, whose docstring describes them,
   with the same picks, implied literals, conflicts and components in the
   same order, so the same circuits.  Here a residual stays in the int32
   record layout that _kernel_py documents, and it is its own cache key:
   `root` settles the input (has_empty, propagate and split_components in
   one call), `branch` picks a decision's variable and conditions,
   propagates and splits both its children in one call, and `key` returns
   the residual itself.  Its pick and select_var's and min_rank_var's are
   one helper, pick_var, over the decoded parent.  The single-step
   operations (`condition` to `split_components`) have no caller in the
   package.  Residuals come from compiler.compute_key or from this
   kernel, so record lengths are trusted; only a rank table, which
   belongs to the caller's order, is bounds-checked.

   Build in place (the package falls back to _kernel_py without it):

       gcc -O2 -shared -fPIC $(python3-config --includes) src/dpllc/_kernel_cy.c \
           -o src/dpllc/_kernel_cy$(python3-config --extension-suffix)
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdlib.h>
#include <string.h>

#define VAR(lit) ((lit) > 0 ? (lit) : -(lit))

enum { HEUR_MIN_INDEX = 0, HEUR_MAX_OCCURRENCE = 1 };

/* Records of a residual: v[0..n) as int32, or -1 with TypeError set. */
static int
residual(PyObject *obj, const int **v, Py_ssize_t *n)
{
    if (!PyBytes_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "expected bytes, got %.200s",
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    *v = (const int *)PyBytes_AS_STRING(obj);
    *n = PyBytes_GET_SIZE(obj) / 4;
    return 0;
}

static int
as_int(PyObject *obj, int *out)
{
    long x = PyLong_AsLong(obj);
    if (x == -1 && PyErr_Occurred())
        return -1;
    if (x < INT_MIN || x > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "value too large to convert to C int");
        return -1;
    }
    *out = (int)x;
    return 0;
}

static int
expect_args(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

static int
max_var(const int *v, Py_ssize_t n)
{
    Py_ssize_t i = 0, j;
    int best = 0;
    while (i < n) {
        int k = v[i + 1];
        for (j = i + 2; j < i + 2 + k; j++)
            if (VAR(v[j]) > best)
                best = VAR(v[j]);
        i += 2 + k;
    }
    return best;
}

/* Writes v conditioned on lit into out (capacity >= n); returns its length. */
static Py_ssize_t
condition_into(const int *v, Py_ssize_t n, int lit, int *out)
{
    Py_ssize_t i = 0, m = 0, j;
    while (i < n) {
        int k = v[i + 1];
        Py_ssize_t end = i + 2 + k, hit = -1;
        for (j = i + 2; j < end; j++) {
            if (v[j] == lit)
                break;
            if (v[j] == -lit)
                hit = j;
        }
        if (j == end) {  /* not satisfied */
            out[m] = v[i];
            if (hit < 0) {
                out[m + 1] = k;
                memcpy(out + m + 2, v + i + 2, k * sizeof(int));
                m += 2 + k;
            }
            else {
                out[m + 1] = k - 1;
                m += 2;
                for (j = i + 2; j < end; j++)
                    if (j != hit)
                        out[m++] = v[j];
            }
        }
        i = end;
    }
    return m;
}

/* Conditions on the first unit record until none is left or a record is
   empty; returns whether one is.  The fixpoint is left in *res (v itself
   when nothing was implied, else a or b, each of capacity >= n), and the
   implied literals, when implied is not NULL, in derivation order. */
static int
unit_fixpoint(const int *v, Py_ssize_t n, int *a, int *b, int *implied,
              Py_ssize_t *ni, const int **res, Py_ssize_t *nres)
{
    const int *cur = v;
    for (;;) {
        Py_ssize_t i = 0;
        int unit = 0, conflict = 0;
        while (i < n) {
            int k = cur[i + 1];
            if (k == 0) {
                conflict = 1;
                break;
            }
            if (k == 1 && unit == 0)
                unit = cur[i + 2];
            i += 2 + k;
        }
        if (conflict || unit == 0) {
            *res = cur;
            *nres = n;
            return conflict;
        }
        if (implied != NULL)
            implied[(*ni)++] = unit;
        int *dst = cur == a ? b : a;
        n = condition_into(cur, n, unit, dst);
        cur = dst;
    }
}

static PyObject *
has_empty(PyObject *self, PyObject *res)
{
    const int *v;
    Py_ssize_t i = 0, n;
    if (residual(res, &v, &n) < 0)
        return NULL;
    while (i < n) {
        if (v[i + 1] == 0)
            Py_RETURN_TRUE;
        i += 2 + v[i + 1];
    }
    Py_RETURN_FALSE;
}

static PyObject *
condition(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const int *v;
    Py_ssize_t n, m;
    int lit;
    if (expect_args("condition", nargs, 2) < 0 || residual(args[0], &v, &n) < 0
        || as_int(args[1], &lit) < 0)
        return NULL;
    PyObject *out = PyBytes_FromStringAndSize(NULL, n * 4);
    if (out == NULL)
        return NULL;
    m = condition_into(v, n, lit, (int *)PyBytes_AS_STRING(out));
    if (m < n && _PyBytes_Resize(&out, m * 4) < 0)
        return NULL;
    return out;
}

static PyObject *
propagate(PyObject *self, PyObject *arg)
{
    const int *v, *fix;
    Py_ssize_t n, nfix, ni = 0, i;
    if (residual(arg, &v, &n) < 0)
        return NULL;
    int *a = malloc((3 * n + 1) * sizeof(int));
    if (a == NULL)
        return PyErr_NoMemory();
    int conflict = unit_fixpoint(v, n, a, a + n, a + 2 * n, &ni, &fix, &nfix);
    PyObject *out = NULL, *lits = NULL, *result = NULL;
    if (fix == v) {
        Py_INCREF(arg);
        out = arg;
    }
    else
        out = PyBytes_FromStringAndSize((const char *)fix, nfix * 4);
    if (out == NULL || (lits = PyTuple_New(ni)) == NULL)
        goto done;
    for (i = 0; i < ni; i++) {
        PyObject *lit = PyLong_FromLong(a[2 * n + i]);
        if (lit == NULL)
            goto done;
        PyTuple_SET_ITEM(lits, i, lit);
    }
    result = PyTuple_Pack(3, out, lits, conflict ? Py_True : Py_False);
done:
    free(a);
    Py_XDECREF(out);
    Py_XDECREF(lits);
    return result;
}

static PyObject *
propagate_conflict(PyObject *self, PyObject *arg)
{
    const int *v, *fix;
    Py_ssize_t n, nfix;
    if (residual(arg, &v, &n) < 0)
        return NULL;
    int *a = malloc((2 * n + 1) * sizeof(int));
    if (a == NULL)
        return PyErr_NoMemory();
    int conflict = unit_fixpoint(v, n, a, a + n, NULL, NULL, &fix, &nfix);
    free(a);
    return PyBool_FromLong(conflict);
}

static PyObject *
first_unit_var(PyObject *self, PyObject *res)
{
    const int *v;
    Py_ssize_t i = 0, n;
    if (residual(res, &v, &n) < 0)
        return NULL;
    while (i < n) {
        int k = v[i + 1];
        if (k == 1)
            return PyLong_FromLong(VAR(v[i + 2]));
        i += 2 + k;
    }
    return PyLong_FromLong(0);
}

/* The decision variable of v[0..n): with a rank table r of nr entries the
   occurring variable of least rank, else by heuristic the smallest
   occurring variable or the one in the most records, ties to the
   smaller; 0 when v has no variable, and -1 with an exception set when a
   variable has no rank or memory runs out. */
static int
pick_var(const int *v, Py_ssize_t n, int heuristic, const int *r, Py_ssize_t nr)
{
    Py_ssize_t i = 0, j;
    int var, best = 0, best_count = -1;
    if (r != NULL) {
        int best_rank = 0;
        while (i < n) {
            int k = v[i + 1];
            for (j = i + 2; j < i + 2 + k; j++) {
                var = VAR(v[j]);
                if (var >= nr) {
                    PyErr_Format(PyExc_IndexError, "variable %d has no rank (%zd ranks)",
                                 var, nr);
                    return -1;
                }
                if (best == 0 || r[var] < best_rank) {
                    best = var;
                    best_rank = r[var];
                }
            }
            i += 2 + k;
        }
        return best;
    }
    if (heuristic == HEUR_MIN_INDEX) {
        while (i < n) {
            int k = v[i + 1];
            for (j = i + 2; j < i + 2 + k; j++)
                if (best == 0 || VAR(v[j]) < best)
                    best = VAR(v[j]);
            i += 2 + k;
        }
        return best;
    }
    int maxv = max_var(v, n);
    if (maxv == 0)
        return 0;
    int *counts = calloc(maxv + 1, sizeof(int));
    if (counts == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    while (i < n) {
        int k = v[i + 1];
        for (j = i + 2; j < i + 2 + k; j++)
            counts[VAR(v[j])]++;
        i += 2 + k;
    }
    for (var = 1; var <= maxv; var++)
        if (counts[var] > best_count) {
            best = var;
            best_count = counts[var];
        }
    free(counts);
    return best;
}

static PyObject *
select_var(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const int *v;
    Py_ssize_t n;
    int heuristic, x;
    if (expect_args("select_var", nargs, 2) < 0 || residual(args[0], &v, &n) < 0
        || as_int(args[1], &heuristic) < 0 || (x = pick_var(v, n, heuristic, NULL, 0)) < 0)
        return NULL;
    return PyLong_FromLong(x);
}

static PyObject *
min_rank_var(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const int *v, *r;
    Py_ssize_t n, nr;
    int x;
    if (expect_args("min_rank_var", nargs, 2) < 0 || residual(args[0], &v, &n) < 0
        || residual(args[1], &r, &nr) < 0 || (x = pick_var(v, n, 0, r, nr)) < 0)
        return NULL;
    return PyLong_FromLong(x);
}

static int
find(int *parent, int x)
{
    int root = x;
    while (parent[root] != root)
        root = parent[root];
    while (parent[x] != root) {
        int next = parent[x];
        parent[x] = root;
        x = next;
    }
    return root;
}

/* Finest variable-disjoint partition of v[0..n) as a list of bytes, parts
   ordered by first record; `whole`, when not NULL, is v as a bytes object
   and is the single part when there is one. */
static PyObject *
split_parts(const int *v, Py_ssize_t n, PyObject *whole)
{
    Py_ssize_t i = 0, j;
    if (n == 0)
        return PyList_New(0);
    int maxv = max_var(v, n), var, ngroups = 0;
    /* parent[var] for union-find, group[root] numbers the parts in order
       of their first record, size[g] and cursor[g] fill part g. */
    int *parent = malloc(2 * (maxv + 1) * sizeof(int));
    Py_ssize_t *size = calloc(maxv + 1, sizeof(Py_ssize_t));
    char **cursor = malloc((maxv + 1) * sizeof(char *));
    PyObject *parts = NULL;
    if (parent == NULL || size == NULL || cursor == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int *group = parent + maxv + 1;
    for (var = 0; var <= maxv; var++) {
        parent[var] = var;
        group[var] = -1;
    }
    while (i < n) {
        int k = v[i + 1];
        if (k == 0) {
            PyErr_SetString(PyExc_ValueError,
                            "cannot split a residual containing an empty clause");
            goto done;
        }
        int first = VAR(v[i + 2]);
        for (j = i + 3; j < i + 2 + k; j++)
            parent[find(parent, first)] = find(parent, VAR(v[j]));
        i += 2 + k;
    }
    for (i = 0; i < n; i += 2 + v[i + 1]) {
        int root = find(parent, VAR(v[i + 2]));
        if (group[root] < 0)
            group[root] = ngroups++;
        size[group[root]] += 2 + v[i + 1];
    }
    if (ngroups == 1 && whole != NULL) {
        parts = PyList_New(1);
        if (parts != NULL) {
            Py_INCREF(whole);
            PyList_SET_ITEM(parts, 0, whole);
        }
        goto done;
    }
    if ((parts = PyList_New(ngroups)) == NULL)
        goto done;
    for (int g = 0; g < ngroups; g++) {
        PyObject *part = PyBytes_FromStringAndSize(NULL, size[g] * 4);
        if (part == NULL) {
            Py_CLEAR(parts);
            goto done;
        }
        PyList_SET_ITEM(parts, g, part);
        cursor[g] = PyBytes_AS_STRING(part);
    }
    for (i = 0; i < n; i += 2 + v[i + 1]) {
        int g = group[find(parent, VAR(v[i + 2]))];
        size_t bytes = (2 + v[i + 1]) * sizeof(int);
        memcpy(cursor[g], v + i, bytes);
        cursor[g] += bytes;
    }
done:
    free(parent);
    free(size);
    free(cursor);
    return parts;
}

static PyObject *
split_components(PyObject *self, PyObject *arg)
{
    const int *v;
    Py_ssize_t n;
    if (residual(arg, &v, &n) < 0)
        return NULL;
    return split_parts(v, n, arg);
}

/* One child of branch: (parts, implied, conflict) of v conditioned on lit,
   or of v itself when lit is 0.  buf has room for 4n + 1 ints. */
static PyObject *
branch_child(const int *v, Py_ssize_t n, int lit, int split, int prop, int *buf)
{
    int *c = buf, *implied = buf + 3 * n;
    const int *rest = c;
    Py_ssize_t m = condition_into(v, n, lit, c), nrest = m, ni = 0, i;
    int conflict = 0;
    if (prop)
        conflict = unit_fixpoint(c, m, buf + n, buf + 2 * n, implied, &ni, &rest, &nrest);
    else
        for (i = 0; i < m && !conflict; i += 2 + c[i + 1])
            conflict = c[i + 1] == 0;
    if (conflict)
        return Py_BuildValue("([]()O)", Py_True);
    PyObject *parts = NULL, *lits = NULL, *result = NULL;
    if (split)
        parts = split_parts(rest, nrest, NULL);
    else if (nrest == 0)
        parts = PyList_New(0);
    else {
        PyObject *bytes = PyBytes_FromStringAndSize((const char *)rest, nrest * 4);
        if (bytes != NULL) {
            parts = PyList_New(1);
            if (parts == NULL)
                Py_DECREF(bytes);
            else
                PyList_SET_ITEM(parts, 0, bytes);
        }
    }
    if (parts == NULL || (lits = PyTuple_New(ni)) == NULL)
        goto done;
    for (i = 0; i < ni; i++) {
        PyObject *x = PyLong_FromLong(implied[i]);
        if (x == NULL)
            goto done;
        PyTuple_SET_ITEM(lits, i, x);
    }
    result = PyTuple_Pack(3, parts, lits, Py_False);
done:
    Py_XDECREF(parts);
    Py_XDECREF(lits);
    return result;
}

static PyObject *
branch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const int *v, *r = NULL;
    Py_ssize_t n, nr = 0;
    int heuristic, split, prop, x;
    if (expect_args("branch", nargs, 5) < 0 || residual(args[0], &v, &n) < 0
        || as_int(args[1], &heuristic) < 0
        || (args[2] != Py_None && residual(args[2], &r, &nr) < 0)
        || (split = PyObject_IsTrue(args[3])) < 0 || (prop = PyObject_IsTrue(args[4])) < 0
        || (x = pick_var(v, n, heuristic, r, nr)) < 0)
        return NULL;
    int *buf = malloc((4 * n + 1) * sizeof(int));
    if (buf == NULL)
        return PyErr_NoMemory();
    PyObject *low = branch_child(v, n, -x, split, prop, buf), *high = NULL, *result = NULL;
    if (low != NULL && (high = branch_child(v, n, x, split, prop, buf)) != NULL)
        result = Py_BuildValue("(iOO)", x, low, high);
    free(buf);
    Py_XDECREF(low);
    Py_XDECREF(high);
    return result;
}

static PyObject *
root(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const int *v;
    Py_ssize_t n;
    int split, prop;
    if (expect_args("root", nargs, 3) < 0 || residual(args[0], &v, &n) < 0
        || (split = PyObject_IsTrue(args[1])) < 0 || (prop = PyObject_IsTrue(args[2])) < 0)
        return NULL;
    int *buf = malloc((4 * n + 1) * sizeof(int));
    if (buf == NULL)
        return PyErr_NoMemory();
    PyObject *result = branch_child(v, n, 0, split, prop, buf);
    free(buf);
    return result;
}

static PyObject *
key(PyObject *self, PyObject *res)
{
    if (!PyBytes_Check(res)) {
        PyErr_Format(PyExc_TypeError, "expected bytes, got %.200s", Py_TYPE(res)->tp_name);
        return NULL;
    }
    Py_INCREF(res);
    return res;
}

static PyMethodDef methods[] = {
    {"root", (PyCFunction)(void (*)(void))root, METH_FASTCALL,
     "root(res, split, propagate): (parts, implied, conflict) of the input "
     "formula res, settled as branch settles a child; see _kernel_py.root."},
    {"key", key, METH_O, "The cache key of a residual: the residual itself."},
    {"has_empty", has_empty, METH_O, "True iff res holds an empty clause."},
    {"condition", (PyCFunction)(void (*)(void))condition, METH_FASTCALL,
     "condition(res, lit): residual after assigning `lit` true: drop satisfied "
     "clauses, strip -lit."},
    {"propagate", propagate, METH_O,
     "Condition on unit clauses until fixpoint.\n\nReturns (residual, implied, "
     "conflict); implied is in derivation order and conflict means an empty "
     "clause is present in the residual."},
    {"propagate_conflict", propagate_conflict, METH_O,
     "True iff unit propagation derives the empty clause.\n\nSame fixpoint as "
     "propagate(), but only the verdict is returned; this is the cheap "
     "conflict lookahead."},
    {"first_unit_var", first_unit_var, METH_O,
     "Variable of the first unit clause; 0 when there is none."},
    {"select_var", (PyCFunction)(void (*)(void))select_var, METH_FASTCALL,
     "select_var(res, heuristic): deterministic branch-variable choice; 0 when "
     "the residual has no variables."},
    {"min_rank_var", (PyCFunction)(void (*)(void))min_rank_var, METH_FASTCALL,
     "min_rank_var(res, ranks): variable of minimum rank occurring in res; ranks "
     "is int32, indexed by var."},
    {"branch", (PyCFunction)(void (*)(void))branch, METH_FASTCALL,
     "branch(res, heuristic, ranks, split, propagate): one decision, (x, low, "
     "high).\n\nx is what select_var(res, heuristic) picks, or with a rank "
     "table what min_rank_var(res, ranks) picks; each child is (parts, implied, "
     "conflict), what condition, has_empty, propagate (with `propagate`) and "
     "split_components (with `split`) give in turn; see _kernel_py.branch."},
    {"split_components", split_components, METH_O,
     "Finest variable-disjoint partition of the clauses.\n\nParts come out "
     "ordered by smallest original clause index (clauses are scanned in index "
     "order) and must not contain empty clauses."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "dpllc._kernel_cy",
    "Compiled residual-formula kernel; same functions and outputs as _kernel_py.",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__kernel_cy(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddIntConstant(m, "HEUR_MIN_INDEX", HEUR_MIN_INDEX) < 0
        || PyModule_AddIntConstant(m, "HEUR_MAX_OCCURRENCE", HEUR_MAX_OCCURRENCE) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
