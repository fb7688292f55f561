/* Participant assignment in C; _core.py wraps it, _pykernels.py is the reference. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* assign(remaining, u, out, active): fill out[:len(u)]; remaining is decremented. */
static PyObject *assign(PyObject *self, PyObject *args) {
    Py_buffer rem, u, out, act;
    PyObject *result = NULL;
    if (!PyArg_ParseTuple(args, "w*y*w*w*", &rem, &u, &out, &act)) return NULL;
    int64_t *remaining = rem.buf, *o = out.buf, *active = act.buf;
    const double *uu = u.buf;
    Py_ssize_t n = rem.len / 8, total = u.len / 8, size = 0;
    if (rem.itemsize != 8 || u.itemsize != 8 || out.itemsize != 8 || act.itemsize != 8
        || out.len / 8 < total || act.len / 8 < n) {
        PyErr_SetString(PyExc_ValueError, "buffer item size or length does not match");
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++)
        if (remaining[i] > 0) active[size++] = i;
    for (Py_ssize_t t = 0; t < total; t++) {
        if (size == 0) {
            PyErr_SetString(PyExc_ValueError, "participant quotas exhausted before all reports assigned");
            goto done;
        }
        double x = uu[t] * size;  /* clamped into [0, size): u ~ 1 or bad u stays in active */
        Py_ssize_t j = x > 0 ? (x < size ? (Py_ssize_t)x : size - 1) : 0;
        int64_t pid = active[j];
        o[t] = pid;
        if (--remaining[pid] == 0) active[j] = active[--size];
    }
    result = Py_NewRef(Py_None);
done:
    PyBuffer_Release(&rem); PyBuffer_Release(&u); PyBuffer_Release(&out); PyBuffer_Release(&act);
    return result;
}

static PyMethodDef methods[] = {{"assign", assign, METH_VARARGS, NULL}, {NULL, NULL, 0, NULL}};
static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, .m_name = "_assign", .m_size = -1, .m_methods = methods};
PyMODINIT_FUNC PyInit__assign(void) { return PyModule_Create(&module); }
