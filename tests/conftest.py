"""Shared fixtures, and one declared BLAS set-up for the whole session.

Golden hashes hold for one OpenBLAS kernel and one thread count: a product
OpenBLAS threads gives other bits on one thread than on two.  So the session
runs OpenBLAS on BLAS_THREADS threads, the benchmark's setting
(bench/run.py), and the report header names the kernel and thread count,
and the numpy version, whose summation order and matmul paths the goldens
rest on too.
OpenBLAS reads OPENBLAS_NUM_THREADS only when it loads, which numpy has done
by the time this file runs, so the count is set through the library numpy
loaded.
"""
import ctypes
import glob
import os

import numpy as np
import pytest

from passageqa.retriever import build_index

from synthtask import build_task

BLAS_THREADS = 1


def _openblas():
    """numpy's bundled OpenBLAS with its thread and kernel calls typed, or None
    when no such library or symbol is found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        lib = ctypes.CDLL(path)
        try:
            calls = (lib.scipy_openblas_set_num_threads64_,
                     lib.scipy_openblas_get_num_threads64_,
                     lib.scipy_openblas_get_corename64_)
        except AttributeError:
            continue
        for call, argtypes, restype in zip(calls, ([ctypes.c_int], [], []),
                                           (None, ctypes.c_int, ctypes.c_char_p)):
            call.argtypes, call.restype = argtypes, restype
        return lib
    return None


_BLAS = _openblas()


def pytest_configure(config):
    if _BLAS is not None:
        _BLAS.scipy_openblas_set_num_threads64_(BLAS_THREADS)


def pytest_report_header(config):
    numpy = f"numpy {np.__version__}"
    if _BLAS is None:
        return f"BLAS: numpy's OpenBLAS thread calls not found, thread count not pinned; {numpy}"
    threads = _BLAS.scipy_openblas_get_num_threads64_()
    kernel = _BLAS.scipy_openblas_get_corename64_().decode()
    return f"BLAS: {kernel}, {threads} thread{'' if threads == 1 else 's'}; {numpy}"


@pytest.fixture(scope="session")
def task():
    """Shared synthetic QA task; treat as read-only."""
    return build_task(seed=0)


@pytest.fixture(scope="session")
def task_index(task):
    return build_index(task.corpus)
