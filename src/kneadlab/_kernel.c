/* The orbit walks of the built-in map families, compiled, with the tallies
 * of the seeded pass taken as they step.
 *
 * <family>_walk(buf, x, p) writes x, f(x), f^2(x), ... into buf and
 * returns the next iterate, with the IEEE operations of the family's float
 * f (its bind in maps.py) in their order, so it gives the bits of
 * maps.python_fill over that f; that needs -ffp-contract=off, for a fused
 * multiply-add rounds once where the Python loop rounds twice.
 * <family>_walk(buf, x, p, tally) also takes the tallies that the
 * maps.Tally tally asks for, with the counts and bits of Tally.numpy_add,
 * in the loop iteration that writes each point: the step is a chain of
 * dependent operations whose latency leaves the core's other units idle,
 * and the tallies, which no later step reads, run in that shadow.  The
 * Birkhoff sum of ln|Df| over the walk is one such tally: a running product
 * of |Df|, kept in range by frexp, whose one log is taken at the end (see
 * walk_loop), the fold of maps.log_fold.  Every array, buf and the tally's
 * edges, counts and df, is a 1-d C-contiguous float64 buffer, writable but
 * for edges, as maps.py allocates them; the counts are whole floats, exact
 * below 2^53.
 * maps.py builds this file on first use; see _load_kernel there.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Inlined at every call, so that its constant arguments fold away */
#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

/* Exports obj as a 1-d C-contiguous buffer of float64, writable when
 * writable is set: the exporter refuses a strided or read-only array.
 * Returns 0, or -1 with an exception set and nothing exported. */
static int
get_vector(PyObject *obj, Py_buffer *view, int writable, const char *what)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->ndim != 1 || strcmp(view->format, "d") != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s must be 1-d float64", what);
        return -1;
    }
    return 0;
}

/* Converts the Python number obj (or the attribute name of obj, when name
 * is set) to *out.  Returns 0, or -1 with an exception set. */
static int
get_double(PyObject *obj, const char *name, double *out)
{
    PyObject *v = name ? PyObject_GetAttrString(obj, name) : Py_NewRef(obj);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* The tallies of one walk: views of the tally's edges, counts and df (obj
 * NULL for each it does not ask for), whether it asks for the Birkhoff sum
 * (fold) and that sum, the c and tol of its hit test, and whether a point
 * lay within tol of c. */
typedef struct {
    Py_buffer edges, counts, df;
    int fold;
    double log_sum, c, tol;
    int hit;
} Tallies;

static void
release_tallies(Tallies *t)
{
    /* a view that was never exported has obj NULL, and releases as a no-op */
    PyBuffer_Release(&t->edges);
    PyBuffer_Release(&t->counts);
    PyBuffer_Release(&t->df);
}

/* Reads what tally asks for into t: counts (with edges one longer) unless
 * it is None, df (at least n long) unless it is None, and the Birkhoff sum
 * unless log_sum is None; with df or the sum, also the floats c and tol.
 * Returns 0, or -1 with an exception set and nothing exported. */
static int
get_tallies(PyObject *tally, Py_ssize_t n, Tallies *t)
{
    memset(t, 0, sizeof *t);
    static const char *names[] = {"edges", "counts", "df"};
    Py_buffer *views[] = {&t->edges, &t->counts, &t->df};
    for (int j = 0; j < 3; j++) {
        PyObject *v = PyObject_GetAttrString(tally, names[j]);
        if (v == NULL)
            goto fail;
        int refused = v != Py_None && get_vector(v, views[j], j > 0, names[j]) < 0;
        Py_DECREF(v);
        if (refused)
            goto fail;
    }
    if (t->counts.obj != NULL && (t->edges.obj == NULL || t->counts.shape[0] < 1
                                  || t->edges.shape[0] != t->counts.shape[0] + 1)) {
        PyErr_SetString(PyExc_TypeError,
                        "a histogram needs len(edges) == len(counts) + 1 >= 2");
        goto fail;
    }
    if (t->df.obj != NULL && t->df.shape[0] < n) {
        PyErr_SetString(PyExc_TypeError, "the tally's df is shorter than the walk");
        goto fail;
    }
    PyObject *v = PyObject_GetAttrString(tally, "log_sum");
    if (v == NULL)
        goto fail;
    t->fold = v != Py_None;
    Py_DECREF(v);
    if ((t->df.obj != NULL || t->fold)
            && (get_double(tally, "c", &t->c) < 0 || get_double(tally, "tol", &t->tol) < 0))
        goto fail;
    return 0;
fail:
    release_tallies(t);
    return -1;
}

enum family { QUADRATIC, LOGISTIC, SINE };

/* f(x) of the family, from the constants k of its walk; with d set, also
 * *d = |Df(x)|, with the operations of the family's NUMPY df in their
 * order.  Py_MATH_PI is math.pi; sin, asin and sqrt are the libm functions
 * that math.sin, math.asin and math.sqrt call, and the sine |Df| has the
 * bits of the NUMPY df where numpy's float64 sin and cos give libm's bits,
 * which tests/test_maps.py checks; for a finite u the clamp gives the
 * min(1, max(-1, u)) of the Python f. */
static inline double
step(enum family family, const double *k, double x, double *d)
{
    switch (family) {
    case QUADRATIC:  /* k = {tau, tau - 1, -2 tau}; Df = -2.0 * tau * x */
        if (d)
            *d = fabs(k[2] * x);
        return k[1] - k[0] * x * x;
    case LOGISTIC:  /* k = {a} */
        if (d)
            *d = fabs(k[0] * (1.0 - 2.0 * x));
        return k[0] * x * (1.0 - x);
    default: {  /* k = {s, 2 / pi, 2 s}; Df = 2.0 * s * cos / sqrt(...) */
        const double u = k[0] * sin(Py_MATH_PI * x);
        if (d) {
            const double v = 1.0 - u * u;
            *d = fabs(k[2] * cos(Py_MATH_PI * x) / sqrt(v < 1e-300 ? 1e-300 : v));
        }
        return k[1] * asin(u > 1.0 ? 1.0 : u < -1.0 ? -1.0 : u);
    }
    }
}

/* The fold keeps each factor and the running product within [FOLD_LO,
 * FOLD_HI] = [2^-500, 2^500], so that every product of two of them is a
 * normal float, rounded once; LN2 is math.log(2.0). */
#define FOLD_LO 0x1p-500
#define FOLD_HI 0x1p500
#define LN2 0.6931471805599453

/* frexp(v), with its power of two added to *e: the mantissa of a nonzero
 * finite v lies in [0.5, 1).  0, inf and nan come back as they are and add
 * nothing (math.frexp's exponent for them; C leaves inf's and nan's
 * unspecified). */
static double
renormalize(double v, int64_t *e)
{
    int k = 0;
    const double mantissa = frexp(v, &k);
    if (isfinite(v))
        *e += k;
    return mantissa;
}

/* Walks buf from x and takes the tallies of t (none when t is NULL).  The
 * histogram adds to counts[i] the points x with edges[i] <= x < edges[i +
 * 1], the last bin closed, as np.histogram(buf, bins=edges) counts them for
 * non-decreasing edges: points outside the edges count nowhere.  The bin is
 * guessed from (x - edges[0]) * scale, then corrected against the edges
 * themselves, so the guess decides only how long that takes.  The Birkhoff
 * sum multiplies the |Df| of the points in their order into mant * 2^e: a
 * factor outside [FOLD_LO, FOLD_HI] is renormalized first, and the product
 * whenever it leaves that range, so no product under- or overflows.  The
 * sum is then e ln2 + log(mant), one log per walk; -inf when a factor was 0
 * or the product is not finite (an inf or nan factor), as the sum of logs
 * with a -inf, inf or nan among them was.  Each call has a constant family
 * and t, or NULL, so the switch of step and the tallies not asked for cost
 * nothing.  Every field that the loop reads is copied to a local first: a
 * store into a buffer could alias it, and the compiler would reload it on
 * every point. */
INLINE double
walk_loop(enum family family, const double *k, Py_buffer *buf, double x, Tallies *t)
{
    double *out = buf->buf, *df = t && t->df.obj ? t->df.buf : NULL;
    const Py_ssize_t n = buf->shape[0], nb = t && t->counts.obj ? t->counts.shape[0] : 0;
    const double *edges = nb ? t->edges.buf : NULL;
    double *counts = nb ? t->counts.buf : NULL;
    const double lo = nb ? edges[0] : 0.0, hi = nb ? edges[nb] : 0.0;
    const double scale = nb ? (double)nb / (hi - lo) : 0.0;
    const int fold = t && t->fold, derivative = df || fold;
    const double c = derivative ? t->c : 0.0, tol = derivative ? t->tol : 0.0;
    double mant = 1.0;
    int64_t e = 0;
    int hit = 0;
    for (Py_ssize_t j = 0; j < n; j++) {
        out[j] = x;
        double d;
        const double y = step(family, k, x, derivative ? &d : NULL);
        if (derivative)
            hit |= fabs(x - c) <= tol;
        if (df)
            df[j] = d;
        if (fold) {
            if (!(d >= FOLD_LO && d <= FOLD_HI))
                d = renormalize(d, &e);
            mant *= d;
            if (!(mant >= FOLD_LO && mant <= FOLD_HI))
                mant = renormalize(mant, &e);
        }
        if (nb && x >= lo && x <= hi) {
            const double r = (x - lo) * scale;
            Py_ssize_t i = r < (double)nb ? (Py_ssize_t)r : nb - 1;
            while (i > 0 && x < edges[i])
                i--;
            while (i < nb - 1 && x >= edges[i + 1])
                i++;
            counts[i] += 1.0;
        }
        x = y;
    }
    if (t) {
        t->hit = hit;
        t->log_sum = mant > 0.0 && mant < HUGE_VAL ? (double)e * LN2 + log(mant) : -HUGE_VAL;
    }
    return x;
}

/* walk(buf, x, p[, tally]) of the family: buf and the tally's buffers are
 * left unwritten when the arguments are refused.  Inlined into each
 * family's method, so family is a constant. */
INLINE PyObject *
walk(PyObject *const *args, Py_ssize_t nargs, enum family family)
{
    Py_buffer buf;
    Tallies t;
    double x, p;
    if (nargs != 3 && nargs != 4) {
        PyErr_Format(PyExc_TypeError, "walk expects (buf, x, p[, tally]), got %zd arguments",
                     nargs);
        return NULL;
    }
    if (get_double(args[1], NULL, &x) < 0 || get_double(args[2], NULL, &p) < 0
            || get_vector(args[0], &buf, 1, "walk buffer") < 0)
        return NULL;
    PyObject *tally = nargs == 4 && args[3] != Py_None ? args[3] : NULL;
    Tallies *tp = tally != NULL ? &t : NULL;
    if (tp != NULL && get_tallies(tally, buf.shape[0], tp) < 0) {
        PyBuffer_Release(&buf);
        return NULL;
    }
    /* the constants k of step: {tau, tau - 1, -2 tau} (quadratic), {a}
     * (logistic) or {s, 2 / pi, 2 s} with s = sqrt(a) / 2 (sine) */
    const double s = sqrt(p) / 2.0;
    const double k[] = {family == SINE ? s : p, family == SINE ? 2.0 / Py_MATH_PI : p - 1.0,
                        family == SINE ? 2.0 * s : -2.0 * p};
    x = tp ? walk_loop(family, k, &buf, x, tp) : walk_loop(family, k, &buf, x, NULL);
    PyBuffer_Release(&buf);
    if (tp != NULL) {
        release_tallies(tp);
        if (t.hit && PyObject_SetAttrString(tally, "hit", Py_True) < 0)
            return NULL;
        if (t.fold) {
            PyObject *sum = PyFloat_FromDouble(t.log_sum);
            int failed = sum == NULL || PyObject_SetAttrString(tally, "log_sum", sum) < 0;
            Py_XDECREF(sum);
            if (failed)
                return NULL;
        }
    }
    return PyFloat_FromDouble(x);
}

/* quadratic_walk, logistic_walk and sine_walk */
#define WALK_METHOD(name, family)                                              \
    static PyObject *                                                          \
    name##_walk(PyObject *module, PyObject *const *args, Py_ssize_t nargs)     \
    {                                                                          \
        return walk(args, nargs, family);                                      \
    }
WALK_METHOD(quadratic, QUADRATIC)
WALK_METHOD(logistic, LOGISTIC)
WALK_METHOD(sine, SINE)

#define WALK_DOC "(buf, x, p[, tally]): the family's orbit walk of maps.py, compiled."
static PyMethodDef kernel_methods[] = {
    {"quadratic_walk", (PyCFunction)(void (*)(void))quadratic_walk, METH_FASTCALL, WALK_DOC},
    {"logistic_walk", (PyCFunction)(void (*)(void))logistic_walk, METH_FASTCALL, WALK_DOC},
    {"sine_walk", (PyCFunction)(void (*)(void))sine_walk, METH_FASTCALL, WALK_DOC},
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
