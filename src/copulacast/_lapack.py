"""LAPACK's Cholesky solves from the OpenBLAS that numpy links.

numpy's wheels (numpy >= 2.0) bundle OpenBLAS built with 64-bit integers
and a scipy_ symbol prefix, and numpy.linalg's extension module links it,
so ctypes reaches dpotrs and dpbsv through that module's file without
loading a second library; factors come from np.linalg.cholesky, which
runs the same library's dpotrf.  Every array is worked on in place and
must be a writable C-contiguous float64 array.  LAPACK reads it in
column-major order, so a C array of shape (r, c) is LAPACK's c x r
matrix.  Each wrapper returns LAPACK's info: 0 on success; pbsv returns
i > 0 when the i-th leading minor is not positive definite.
"""

import ctypes
from ctypes import byref, c_char, c_double, c_int64, c_size_t

import numpy.linalg._umath_linalg as _umath_linalg

_SYMBOLS = ("scipy_dpotrs_64_", "scipy_dpbsv_64_")


def _bind():
    # No argtypes: every argument is passed as a typed pointer or c_size_t,
    # and argtypes' per-argument conversion would double each call's cost.
    lib = ctypes.CDLL(_umath_linalg.__file__)
    try:
        routines = [getattr(lib, name) for name in _SYMBOLS]
    except AttributeError:
        raise ImportError(
            f"numpy's BLAS, linked by {_umath_linalg.__file__}, does not export "
            f"{', '.join(_SYMBOLS)}: copulacast needs a numpy >= 2.0 wheel, "
            "which bundles scipy-openblas64") from None
    for routine in routines:
        routine.restype = None
    return routines


_dpotrs, _dpbsv = _bind()
_UPPER, _LOWER = byref(c_char(b"U")), byref(c_char(b"L"))
_UPLO_LEN = c_size_t(1)  # the hidden Fortran length of the uplo argument
_SIZES = {}


def _size(value):
    """A cached pointer to a 64-bit integer holding value."""
    ref = _SIZES.get(value)
    if ref is None:
        ref = _SIZES[value] = byref(c_int64(value))
    return ref


def _ptr(a):
    """A pointer to a's data; from_buffer refuses a read-only or
    non-C-contiguous array."""
    if a.dtype != float:
        raise TypeError(f"LAPACK needs a float64 array, not {a.dtype}")
    return byref(c_double.from_buffer(a))


def potrs(c, b):
    """Solve A x = b for each row b of b, given A = L L^T.

    c holds L column by column, that is L^T as a C array (the transpose of
    np.linalg.cholesky's factor); only its lower triangle is read.  b is
    one right-hand side (1-d) or a stack of them (rows), that is LAPACK's
    B column by column; each is overwritten with its solution.
    """
    n = c.shape[0]
    if c.shape != (n, n) or b.shape[-1] != n or b.ndim > 2:
        raise ValueError(f"potrs needs an n x n factor and rows of length n, "
                         f"not {c.shape} and {b.shape}")
    n, nrhs, info = _size(n), _size(1 if b.ndim == 1 else b.shape[0]), c_int64()
    _dpotrs(_LOWER, n, nrhs, _ptr(c), n, _ptr(b), n, byref(info), _UPLO_LEN)
    return info.value


def pbsv(ab, b):
    """Solve A x = b for a symmetric positive definite band matrix A.

    ab is (n, kd + 1): LAPACK's upper band storage of A, (kd + 1) x n,
    column by column; it is overwritten with the band Cholesky factor.  b
    is one right-hand side or a stack of them (rows), overwritten with the
    solutions.
    """
    n, width = ab.shape
    if not 0 < width <= n or b.shape[-1] != n or b.ndim > 2:
        raise ValueError(f"pbsv needs an n x (kd + 1) band, kd < n, and rows "
                         f"of length n, not {ab.shape} and {b.shape}")
    nrhs, info = _size(1 if b.ndim == 1 else b.shape[0]), c_int64()
    _dpbsv(_UPPER, _size(n), _size(width - 1), nrhs, _ptr(ab), _size(width),
           _ptr(b), _size(n), byref(info), _UPLO_LEN)
    return info.value
