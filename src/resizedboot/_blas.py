"""Thread count of the OpenBLAS that a SciPy wheel bundles.

The NumPy and SciPy wheels each bundle their own OpenBLAS, each with its
own thread pool. NumPy's serves the matrix products (the Hessians); SciPy's
serves LAPACK (the Cholesky factorisations and triangular inverses). With
both pools on their default of one thread per core, they spin against each
other, and a small factorisation that follows a large product stalls. On
2 vCPUs (NumPy 2.4 with OpenBLAS 0.3.31, SciPy 1.17 with OpenBLAS 0.3.30),
a Newton iteration at n=4000, p=400 took 32-36 ms, and 17 ms with SciPy's
pool held at one thread. NumPy's pool keeps its threads: with both held at
one thread, the products run serially and a command is slower.

The thread count is process-wide state, so only the command-line entry
point sets it, for the duration of one command. Where SciPy has no OpenBLAS
of its own (it shares one library, and so one pool, with NumPy), off Linux,
or where the library lacks the thread-count functions, nothing is done.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
from pathlib import Path


def scipy_openblas_libs() -> list[ctypes.CDLL]:
    """The OpenBLAS libraries mapped into this process from the
    ``scipy.libs`` directory beside the ``scipy`` package that export
    ``scipy_openblas_get_num_threads``/``scipy_openblas_set_num_threads``."""
    if not sys.platform.startswith("linux"):
        return []
    import scipy
    import scipy.linalg  # noqa: F401  maps SciPy's BLAS into the process

    libs_dir = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    libs = []
    for path in sorted(libs_dir.glob("*openblas*.so*")):
        try:
            # RTLD_NOLOAD: a handle only to a library that is already mapped
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            get = lib.scipy_openblas_get_num_threads
            set_ = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):  # not mapped, or not this OpenBLAS
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        libs.append(lib)
    return libs


@contextlib.contextmanager
def scipy_blas_single_thread():
    """Hold SciPy's own OpenBLAS at one thread inside the block, and restore
    the previous thread count on leaving it, also on an exception."""
    libs = scipy_openblas_libs()
    previous = [lib.scipy_openblas_get_num_threads() for lib in libs]
    for lib in libs:
        lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        for lib, n in zip(libs, previous):
            lib.scipy_openblas_set_num_threads(n)
