"""Shared fixtures, and the program's BLAS set-up for the whole session.

Golden hashes hold for one OpenBLAS kernel and one thread count.  The session
runs OpenBLAS on the one thread `passageqa.cli.main` sets, and the report
header names the kernel and thread count, and the numpy version, whose
summation order and matmul paths the goldens rest on too.
"""
import numpy as np
import pytest

from passageqa.cli import blas_description, one_blas_thread
from passageqa.retriever import build_index

from synthtask import build_task


def pytest_configure(config):
    one_blas_thread()


def pytest_report_header(config):
    blas = blas_description() or "numpy's OpenBLAS thread calls not found, thread count not pinned"
    return f"BLAS: {blas}; numpy {np.__version__}"


@pytest.fixture(scope="session")
def task():
    """Shared synthetic QA task; treat as read-only."""
    return build_task(seed=0)


@pytest.fixture(scope="session")
def task_index(task):
    return build_index(task.corpus)
