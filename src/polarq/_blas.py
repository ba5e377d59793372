"""One OpenBLAS thread for BLAS calls on small operands.

The policy: a BLAS call whose operand holds at most SMALL_OPERAND = 2^18
doubles runs on one OpenBLAS thread, and the thread count it had is put
back afterwards.  That covers the dense Hamiltonian up to 9 molecules and
a state vector up to 17 qubits.  Larger calls run on whatever count the
user set (OPENBLAS_NUM_THREADS, or OpenBLAS's default of one per core).

At the paper's sizes a second thread buys little: on 2 vCPUs it saves at
most a sixth of a dense solve's wall time at n <= 9, and slows some, while
it doubles the CPU time, because after each call it spins on the other
core.  From n = 10 on it saves a third (README gives the table).  How the
sums are split also moves the last digits of dense eigenvalues, so one
thread makes small runs byte-identical at any thread count.

The thread count is process-global: OpenBLAS keeps one per library, shared
by every thread of the process.  polarq runs serially, so nothing else
calls BLAS while the count is lowered.  A count that is already 1 is left
alone, so nested or concurrent blocks never leave it lowered.

numpy and scipy each bundle their own OpenBLAS, and each exports its
thread controls.  They are looked up on first use through the handle of
an extension module that links the library (dlsym on a handle searches
its dependencies too), and scipy's only once scipy.linalg has been
imported: no library is loaded just to set its threads.  Every dense
solve is numpy's, so scipy's count matters only to ARPACK, whose import
of scipy.sparse.linalg loads scipy.linalg before its block is entered.
A BLAS without these symbols leaves every call on its own thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import sys

SMALL_OPERAND = 1 << 18

# the extension module linking each OpenBLAS, and its symbols' suffix
NUMPY = ("numpy._core._multiarray_umath", "64_")
SCIPY = ("scipy.linalg._flapack", "")


@functools.cache
def thread_controls(module: str, suffix: str):
    """(get, set) of the thread count of the OpenBLAS that a loaded module links.

    None when that library exports no such controls.
    """
    lib = ctypes.CDLL(sys.modules[module].__file__)  # loaded: its handle again
    try:
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def loaded_controls() -> list:
    """thread_controls of each library loaded so far that has them."""
    found = (thread_controls(*lib) for lib in (NUMPY, SCIPY) if lib[0] in sys.modules)
    return [c for c in found if c is not None]


@contextlib.contextmanager
def single_thread(doubles: int):
    """Run the block on one OpenBLAS thread if its operand is small.

    doubles is the size of the block's largest BLAS operand, counted in
    doubles (a complex amplitude is two).  Above SMALL_OPERAND, or with no
    controls found, the block runs unchanged.  Exceptions restore the count.
    """
    saved = []
    if doubles <= SMALL_OPERAND:
        saved = [(put, n) for get, put in loaded_controls() if (n := get()) != 1]
    for put, _ in saved:
        put(1)
    try:
        yield
    finally:
        for put, n in saved:
            put(n)
