"""Thread counts of the OpenBLAS libraries that the NumPy and SciPy wheels
bundle.

The NumPy and SciPy wheels each bundle their own OpenBLAS, each with its
own thread pool. NumPy's serves the matrix products (the Hessians); SciPy's
serves LAPACK (the Cholesky factorisations and triangular inverses). With
both pools on their default of one thread per core, they spin against each
other, and a small factorisation that follows a large product stalls. On
2 vCPUs (NumPy 2.4 with OpenBLAS 0.3.31, SciPy 1.17 with OpenBLAS 0.3.30),
a Newton iteration at n=4000, p=400 took 32-36 ms, and 17 ms with SciPy's
pool held at one thread.

The thread count is process-wide state that belongs to the application, so
the library never changes it in the caller's process. The command-line
entry point holds SciPy's pool at one thread for the duration of one
command; NumPy's pool keeps its threads, since with both held at one
thread the products of a single process run serially and a command is
slower. The worker processes that ``run_coverage`` and
``run_bias_sd_study`` start and own hold both pools at one thread: they
already keep every core busy, and a pool per worker on every core would
spin against the other workers.

A library is found in the ``<package>.libs`` directory beside the package
(``numpy.libs``, ``scipy.libs``), where a wheel keeps the libraries it
bundles. Where a package has no OpenBLAS of its own (SciPy may share one
library, and so one pool, with NumPy), off Linux, or where the library
lacks the thread-count functions, nothing is done for it.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

# the thread-count functions of the wheels' OpenBLAS builds; an ILP64 build,
# as NumPy's, appends the suffix "64_" to every symbol
_GET, _SET = "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"
_SUFFIXES = ("", "64_")


class OpenBlasPool(NamedTuple):
    """The thread-count functions of one mapped OpenBLAS library."""

    get: Callable[[], int]
    set: Callable[[int], None]


def openblas_pools(package: str) -> list[OpenBlasPool]:
    """The OpenBLAS libraries mapped into this process from the
    ``<package>.libs`` directory beside ``package`` (``"numpy"`` or
    ``"scipy"``) that export the thread-count functions."""
    if not sys.platform.startswith("linux"):
        return []
    # importing the package's linalg maps its BLAS into the process
    importlib.import_module(f"{package}.linalg")
    root = Path(sys.modules[package].__file__).resolve().parent.parent
    pools = []
    for path in sorted((root / f"{package}.libs").glob("*openblas*.so*")):
        try:
            # RTLD_NOLOAD: a handle only to a library that is already mapped
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:  # not mapped
            continue
        for suffix in _SUFFIXES:
            get = getattr(lib, _GET + suffix, None)
            set_ = getattr(lib, _SET + suffix, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append(OpenBlasPool(get, set_))
                break
    return pools


@contextlib.contextmanager
def scipy_blas_single_thread():
    """Hold SciPy's own OpenBLAS at one thread inside the block, and restore
    the previous thread count on leaving it, also on an exception."""
    pools = openblas_pools("scipy")
    previous = [pool.get() for pool in pools]
    for pool in pools:
        pool.set(1)
    try:
        yield
    finally:
        for pool, n in zip(pools, previous):
            pool.set(n)


def hold_single_thread() -> None:
    """Hold both bundled OpenBLAS pools at one thread for the rest of the
    process. Only for a worker process that the library owns."""
    for pool in openblas_pools("numpy") + openblas_pools("scipy"):
        pool.set(1)
