/* The orbit walks of the built-in map families, compiled.
 *
 * Each fill(buf, x, p) writes x, f(x), f^2(x), ... into the float64
 * buffer buf and returns the next iterate, with the same IEEE operations
 * in the same order as _quadratic_fill, _logistic_fill and _sine_fill in
 * maps.py, so it gives the same bits.  That needs -ffp-contract=off: a
 * fused multiply-add rounds once where the Python loop rounds twice.
 * maps.py builds this file on first use; see _load_kernel there.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

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
    *x = PyFloat_AsDouble(args[1]);
    if (*x == -1.0 && PyErr_Occurred())
        return -1;
    *p = PyFloat_AsDouble(args[2]);
    if (*p == -1.0 && PyErr_Occurred())
        return -1;
    if (PyObject_GetBuffer(args[0], view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->readonly) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_BufferError, "fill buffer is read-only");
        return -1;
    }
    if (view->ndim != 1 || view->itemsize != sizeof(double)
            || strcmp(view->format, "d") != 0) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_TypeError, "fill buffer must be 1-d float64");
        return -1;
    }
    return 0;
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
     * that math.sin, math.asin and math.sqrt call */
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

static PyMethodDef kernel_methods[] = {
    {"quadratic_fill", (PyCFunction)(void (*)(void))quadratic_fill, METH_FASTCALL,
     "quadratic_fill(buf, x, tau): _quadratic_fill of maps.py, compiled."},
    {"logistic_fill", (PyCFunction)(void (*)(void))logistic_fill, METH_FASTCALL,
     "logistic_fill(buf, x, a): _logistic_fill of maps.py, compiled."},
    {"sine_fill", (PyCFunction)(void (*)(void))sine_fill, METH_FASTCALL,
     "sine_fill(buf, x, a): _sine_fill of maps.py, compiled."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel",
    "The orbit walks of the built-in map families, compiled.", -1, kernel_methods
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
