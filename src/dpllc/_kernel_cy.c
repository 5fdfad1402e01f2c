/* Compiled residual-formula kernel.

   The search's entry points of _kernel_py, `root`, `branch` and `key`,
   whose docstring describes them, with the same picks, implied literals,
   conflicts and components in the same order, so the same circuits.
   Here a residual stays in the int32 record layout that _kernel_py
   documents, and it is its own cache key: `root` settles the input (what
   _kernel_py's has_empty, propagate and split_components do in turn),
   `branch(res, heuristic, split, propagate)` picks a decision's
   variable (pick_var, what _kernel_py's select_var picks) and settles
   both its children in one call, and `key` returns the residual itself.
   Settling is one loop, condition_into, over one buffer: it conditions
   on the decision literal (none for `root`) and, with propagation, again
   in place on each unit it reports, until none is left or a record is
   empty; split_parts then splits what is left.  So propagation is one
   pass per implied literal, still quadratic in their number.  The
   single-step byte-layout operations live in _kernel_py only.
   Residuals come from _kernel_py's encode or from this kernel, so record
   lengths are trusted.  The compiler hands in its input renamed, clauses
   numbered 0..m-1 and variables 1..k, so the per-variable tables of
   pick_var and split_parts, sized by the largest variable, are bounded
   by the number of variables that occur in the input, in every mode,
   whatever the input's own numbers.

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

/* Writes v[0..n) conditioned on lit into out, which may be v itself:
   records only shorten, so no write overtakes the read it depends on.
   Returns the length written, or -1 as soon as an empty record is
   written; *unit is the literal of the first unit record written, or 0. */
static Py_ssize_t
condition_into(const int *v, Py_ssize_t n, int lit, int *out, int *unit)
{
    Py_ssize_t i = 0, m = 0, j;
    *unit = 0;
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
                memmove(out + m + 2, v + i + 2, k * sizeof(int));
                m += 2 + k;
            }
            else {
                out[m + 1] = --k;
                m += 2;
                for (j = i + 2; j < end; j++)
                    if (j != hit)
                        out[m++] = v[j];
            }
            if (k == 0)
                return -1;
            if (k == 1 && *unit == 0)
                *unit = out[m - 1];
        }
        i = end;
    }
    return m;
}

/* The decision variable of v[0..n) by heuristic: the smallest occurring
   variable or the one in the most records, ties to the smaller; 0 when v
   has no variable, and -1 with MemoryError set when memory runs out. */
static int
pick_var(const int *v, Py_ssize_t n, int heuristic)
{
    Py_ssize_t i = 0, j;
    int var, best = 0, best_count = -1;
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

/* Finest variable-disjoint partition of v[0..n), which holds no empty
   record, as a list of bytes, parts ordered by first record. */
static PyObject *
split_parts(const int *v, Py_ssize_t n)
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
        int k = v[i + 1], first = VAR(v[i + 2]);
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

/* One child of branch: (parts, implied, conflict) of v conditioned on lit,
   or of v itself when lit is 0.  buf has room for 2n + 1 ints: the child,
   which with prop is conditioned in place on each implied literal (the
   first unit record's, by position) until none is left or a record is
   empty, then the implied literals. */
static PyObject *
branch_child(const int *v, Py_ssize_t n, int lit, int split, int prop, int *buf)
{
    int *c = buf, *implied = buf + n, unit;
    Py_ssize_t m = condition_into(v, n, lit, c, &unit), ni = 0, i;
    while (prop && m >= 0 && unit != 0) {
        implied[ni++] = unit;
        m = condition_into(c, m, unit, c, &unit);
    }
    if (m < 0)
        return Py_BuildValue("([]()O)", Py_True);
    PyObject *parts = NULL, *lits = NULL, *result = NULL;
    if (split)
        parts = split_parts(c, m);
    else if (m == 0)
        parts = PyList_New(0);
    else {
        PyObject *bytes = PyBytes_FromStringAndSize((const char *)c, m * 4);
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
    const int *v;
    Py_ssize_t n;
    int heuristic, split, prop, x;
    if (expect_args("branch", nargs, 4) < 0 || residual(args[0], &v, &n) < 0
        || as_int(args[1], &heuristic) < 0
        || (split = PyObject_IsTrue(args[2])) < 0 || (prop = PyObject_IsTrue(args[3])) < 0
        || (x = pick_var(v, n, heuristic)) < 0)
        return NULL;
    int *buf = malloc((2 * n + 1) * sizeof(int));
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
    int *buf = malloc((2 * n + 1) * sizeof(int));
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
    {"branch", (PyCFunction)(void (*)(void))branch, METH_FASTCALL,
     "branch(res, heuristic, split, propagate): one decision, (x, low, high)."
     "\n\nx is what _kernel_py.select_var(res, heuristic) picks; each child "
     "is (parts, implied, conflict), what _kernel_py's condition, has_empty, "
     "propagate (with `propagate`) and split_components (with `split`) give "
     "in turn; see _kernel_py.branch."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "dpllc._kernel_cy",
    "Compiled residual-formula kernel: _kernel_py's root, branch and key, "
    "with the same outputs.",
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
