"""Eigendecomposition of a real symmetric matrix held as its lower band, by LAPACK's
banded divide and conquer `dsbevd` in the OpenBLAS that numpy's wheel bundles
(numpy.libs/libscipy_openblas64_*.so, 64-bit integers), bound with ctypes on the
first call, so importing costs nothing. Where numpy has no such library (e.g. a
conda or MKL build), `_dsbevd()` is None and the band is densified for `np.linalg.eigh`.
"""

import ctypes
from functools import cache
from pathlib import Path

import numpy as np

from .errors import NumericsError

__all__ = ["eigh_band"]


@cache
def _dsbevd():
    """dsbevd of numpy's bundled OpenBLAS as a ctypes function, or None where there is none."""
    for lib in Path(np.__file__).parents[1].glob("numpy.libs/libscipy_openblas64_*.so"):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_dsbevd_64_
        except (OSError, AttributeError):
            continue
        i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
        # JOBZ, UPLO, N, KD, AB, LDAB, W, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO, then the
        # hidden lengths of the strings JOBZ and UPLO; an array goes as its data address
        fn.argtypes = [ctypes.c_char_p, ctypes.c_char_p, i64, i64, ptr, i64, ptr, ptr, i64, ptr, i64,
                       ptr, i64, i64, ctypes.c_size_t, ctypes.c_size_t]
        fn.restype = None
        return fn
    return None


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def eigh_band(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending and column eigenvectors of the symmetric H whose lower band
    is band, band[d, k] = H[k+d, k] (LAPACK's UPLO = 'L' layout); band is not written."""
    ab = np.array(band, dtype=np.float64, order="F")  # a fresh copy: dsbevd overwrites it
    kd, n = ab.shape[0] - 1, ab.shape[1]
    dsbevd = _dsbevd()
    if dsbevd is None:
        dense = sum(np.diag(ab[d, :n - d], -d) for d in range(min(kd + 1, n)))  # lower triangle
        try:
            return np.linalg.eigh(dense, UPLO="L")
        except np.linalg.LinAlgError as exc:
            raise NumericsError("eigendecomposition failed") from exc
    # every array is made here with the dtype, order and size dsbevd reads
    energies, vectors = np.empty(n), np.empty((n, n), order="F")
    work, iwork = np.empty(1 + 5 * n + 2 * n * n), np.empty(3 + 5 * n, dtype=np.int64)
    info = ctypes.c_int64()
    dsbevd(b"V", b"L", _int(n), _int(kd), ab.ctypes.data, _int(kd + 1), energies.ctypes.data,
           vectors.ctypes.data, _int(n), work.ctypes.data, _int(work.size), iwork.ctypes.data,
           _int(iwork.size), ctypes.byref(info), 1, 1)
    if info.value:
        raise NumericsError("eigendecomposition failed")
    return energies, vectors
