"""Host record: what the machine delivers, and the pinned BLAS threads.

``nproc`` reports the CPUs a process may use, not how much parallel
work they deliver on a shared host.  :func:`effective_cores`
measures it: the same GIL-releasing NumPy kernel runs once on one
thread and once split over two, and the speed ratio is the number of
cores that actually ran in parallel.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import threading
import time

#: BLAS/OpenMP thread pools are pinned to this many threads before
#: NumPy loads (see run.py), so every run measures the same kernels.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_env() -> None:
    """Pin BLAS thread pools; must run before NumPy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or ``None`` if unknown."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def effective_cores(threads: int = 2, size: int = 1 << 20, reps: int = 12) -> float:
    """Parallel speed-up of a GIL-releasing ``np.exp`` over ``threads``."""
    import numpy as np

    data = [np.random.default_rng(k).random(size) for k in range(threads)]
    outs = [np.empty(size) for _ in range(threads)]

    def work(k: int) -> None:
        for _ in range(reps):
            np.exp(data[k], out=outs[k])

    work(0)  # warm the pages
    started = time.perf_counter()
    for k in range(threads):
        work(k)
    serial = time.perf_counter() - started
    pool = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
    started = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    parallel = time.perf_counter() - started
    return serial / parallel


def host_record() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "effective_cores": round(effective_cores(), 3),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
