/* The orbit walks of the built-in map families and the per-chunk tallies
 * of the seeded pass, compiled.
 *
 * Each fill(buf, x, p) writes x, f(x), f^2(x), ... into the float64
 * buffer buf and returns the next iterate, with the same IEEE operations
 * in the same order as the family's float f (its bind in maps.py), so it
 * gives the bits of maps.python_fill over that f.  That needs
 * -ffp-contract=off: a fused multiply-add rounds once where the Python
 * loop rounds twice.
 * histogram and the abs_df functions are the compiled twins of
 * maps.numpy_histogram and of the numpy |Df| and critical-hit test of
 * measure._BirkhoffSums, with the same counts and bits.
 * maps.py builds this file on first use; see _load_kernel there.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* Exports obj as a 1-d buffer of float64 (or of int64 when integer is
 * set), writable when writable is set.  Returns 0, or -1 with an
 * exception set and nothing exported. */
static int
get_vector(PyObject *obj, Py_buffer *view, int integer, int writable, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (writable && view->readonly) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_BufferError, "%s is read-only", what);
        return -1;
    }
    const char *f = view->format;
    if (view->ndim != 1 || view->itemsize != 8
            || (integer ? strcmp(f, "l") != 0 && strcmp(f, "q") != 0 : strcmp(f, "d") != 0)) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s must be 1-d %s", what,
                     integer ? "int64" : "float64");
        return -1;
    }
    return 0;
}

/* Converts the n Python numbers args[0..n-1] to out[0..n-1].  Returns 0,
 * or -1 with an exception set. */
static int
get_doubles(PyObject *const *args, int n, double *out)
{
    for (int j = 0; j < n; j++) {
        out[j] = PyFloat_AsDouble(args[j]);
        if (out[j] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* The i-th item of a 1-d view of 8-byte items, strides allowed */
#define ITEM(type, view, i) (*(type *)((char *)(view).buf + (i) * (view).strides[0]))

/* Parses (buf, x, p) and exports buf as a writable 1-d float64 buffer.
 * Returns 0, or -1 with an exception set and buf left unwritten. */
static int
fill_args(PyObject *const *args, Py_ssize_t nargs, Py_buffer *view,
          double *x, double *p)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "fill expects (buf, x, p), got %zd arguments",
                     nargs);
        return -1;
    }
    double xp[2];
    if (get_doubles(args + 1, 2, xp) < 0)
        return -1;
    *x = xp[0];
    *p = xp[1];
    return get_vector(args[0], view, 0, 1, "fill buffer");
}

static PyObject *
quadratic_fill(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view;
    double x, tau;
    if (fill_args(args, nargs, &view, &x, &tau) < 0)
        return NULL;
    const double tm1 = tau - 1.0;
    char *out = view.buf;
    for (Py_ssize_t i = 0; i < view.shape[0]; i++, out += view.strides[0]) {
        *(double *)out = x;
        x = tm1 - tau * x * x;
    }
    PyBuffer_Release(&view);
    return PyFloat_FromDouble(x);
}

static PyObject *
logistic_fill(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view;
    double x, a;
    if (fill_args(args, nargs, &view, &x, &a) < 0)
        return NULL;
    char *out = view.buf;
    for (Py_ssize_t i = 0; i < view.shape[0]; i++, out += view.strides[0]) {
        *(double *)out = x;
        x = a * x * (1.0 - x);
    }
    PyBuffer_Release(&view);
    return PyFloat_FromDouble(x);
}

static PyObject *
sine_fill(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view;
    double x, a;
    if (fill_args(args, nargs, &view, &x, &a) < 0)
        return NULL;
    /* Py_MATH_PI is math.pi; sin, asin and sqrt are the libm functions
     * that math.sin, math.asin and math.sqrt call; for a finite u the
     * clamp gives the min(1, max(-1, u)) of the Python f */
    const double pi = Py_MATH_PI;
    const double s = sqrt(a) / 2.0;
    const double k = 2.0 / pi;
    char *out = view.buf;
    for (Py_ssize_t i = 0; i < view.shape[0]; i++, out += view.strides[0]) {
        *(double *)out = x;
        double u = s * sin(pi * x);
        if (u > 1.0)
            u = 1.0;
        else if (u < -1.0)
            u = -1.0;
        x = k * asin(u);
    }
    PyBuffer_Release(&view);
    return PyFloat_FromDouble(x);
}

/* histogram(buf, edges, counts) adds to counts[i] the points x of buf
 * with edges[i] <= x < edges[i + 1], the last bin closed, as
 * np.histogram(buf, bins=edges) counts them for non-decreasing edges:
 * points outside the edges, infinities and NaN count nowhere.  The bin
 * is guessed from (x - edges[0]) * scale, then corrected against the
 * edges themselves, so the guess decides only how long that takes. */
static PyObject *
histogram(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    /* a view that was never exported has obj NULL, and releases as a no-op */
    Py_buffer buf = {0}, edges = {0}, counts = {0};
    PyObject *result = NULL;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "histogram expects (buf, edges, counts), got %zd arguments", nargs);
        return NULL;
    }
    if (get_vector(args[0], &buf, 0, 0, "histogram points") < 0
            || get_vector(args[1], &edges, 0, 0, "histogram edges") < 0
            || get_vector(args[2], &counts, 1, 1, "histogram counts") < 0)
        goto done;
    const Py_ssize_t nb = counts.shape[0];
    if (nb < 1 || edges.shape[0] != nb + 1) {
        PyErr_SetString(PyExc_TypeError,
                        "histogram needs len(edges) == len(counts) + 1 >= 2");
        goto done;
    }
    const double lo = ITEM(double, edges, 0), hi = ITEM(double, edges, nb);
    const double scale = (double)nb / (hi - lo);
    for (Py_ssize_t k = 0; k < buf.shape[0]; k++) {
        const double x = ITEM(double, buf, k);
        if (!(x >= lo && x <= hi))
            continue;
        const double t = (x - lo) * scale;
        Py_ssize_t i = t < (double)nb ? (Py_ssize_t)t : nb - 1;
        while (i > 0 && x < ITEM(double, edges, i))
            i--;
        while (i < nb - 1 && x >= ITEM(double, edges, i + 1))
            i++;
        ITEM(int64_t, counts, i)++;
    }
    result = Py_NewRef(Py_None);
done:
    PyBuffer_Release(&buf);
    PyBuffer_Release(&edges);
    PyBuffer_Release(&counts);
    return result;
}

/* abs_df(buf, out, p, c, tol) of the quadratic or the logistic family
 * writes |Df(x)| for the points x of buf into out, a buffer of the same
 * length, with the operations of the family's NUMPY df in maps.py in
 * their order, and returns whether some |x - c| <= tol.  out is left
 * unwritten when the arguments are refused. */
static PyObject *
abs_df(PyObject *const *args, Py_ssize_t nargs, int logistic)
{
    Py_buffer buf = {0}, out = {0};
    PyObject *result = NULL;
    double pct[3];
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError,
                     "abs_df expects (buf, out, p, c, tol), got %zd arguments", nargs);
        return NULL;
    }
    if (get_doubles(args + 2, 3, pct) < 0)
        return NULL;
    const double p = pct[0], c = pct[1], tol = pct[2];
    if (get_vector(args[0], &buf, 0, 0, "abs_df points") < 0
            || get_vector(args[1], &out, 0, 1, "abs_df output") < 0)
        goto done;
    if (out.shape[0] != buf.shape[0]) {
        PyErr_SetString(PyExc_TypeError, "abs_df output must have the length of its points");
        goto done;
    }
    const double k = -2.0 * p;  /* the quadratic df: -2.0 * tau * x */
    int hit = 0;
    for (Py_ssize_t i = 0; i < buf.shape[0]; i++) {
        const double x = ITEM(double, buf, i);
        ITEM(double, out, i) = logistic ? fabs(p * (1.0 - 2.0 * x)) : fabs(k * x);
        hit |= fabs(x - c) <= tol;
    }
    result = PyBool_FromLong(hit);
done:
    PyBuffer_Release(&buf);
    PyBuffer_Release(&out);
    return result;
}

static PyObject *
quadratic_abs_df(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return abs_df(args, nargs, 0);
}

static PyObject *
logistic_abs_df(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    return abs_df(args, nargs, 1);
}

static PyMethodDef kernel_methods[] = {
    {"quadratic_fill", (PyCFunction)(void (*)(void))quadratic_fill, METH_FASTCALL,
     "quadratic_fill(buf, x, tau): the quadratic orbit walk of maps.py, compiled."},
    {"logistic_fill", (PyCFunction)(void (*)(void))logistic_fill, METH_FASTCALL,
     "logistic_fill(buf, x, a): the logistic orbit walk of maps.py, compiled."},
    {"sine_fill", (PyCFunction)(void (*)(void))sine_fill, METH_FASTCALL,
     "sine_fill(buf, x, a): the sine orbit walk of maps.py, compiled."},
    {"histogram", (PyCFunction)(void (*)(void))histogram, METH_FASTCALL,
     "histogram(buf, edges, counts): numpy_histogram of maps.py, compiled."},
    {"quadratic_abs_df", (PyCFunction)(void (*)(void))quadratic_abs_df, METH_FASTCALL,
     "quadratic_abs_df(buf, out, tau, c, tol): |Df| into out; whether |x - c| <= tol."},
    {"logistic_abs_df", (PyCFunction)(void (*)(void))logistic_abs_df, METH_FASTCALL,
     "logistic_abs_df(buf, out, a, c, tol): |Df| into out; whether |x - c| <= tol."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "The orbit walks and seeded-pass tallies of the built-in map families, compiled.", -1,
    kernel_methods
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
