"""The benchmark runs keep their output digests.

Each workload of bench/run.py runs in a subprocess, at its --tiny size with
seed 7 and at full size with seed 3, for the minimum number of operations.
The digest hashes the workload's outputs (ranked ids, scores, answers,
losses), so a change that moves any bit of them fails here.  The digests
were taken with one OpenBLAS thread (the bench's own setting, and the one
`passageqa.cli.one_blas_thread` sets) on the SkylakeX kernel; another kernel
may give other bits (see the cli.py docstring).
"""
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"

TINY_SEED_7 = {
    "ask_default": "1065a28fbbf6615cd31e71bdb8cc7c868d5d6b1cdf68c42935cbfdcfe2e32b64",
    "train_mtl": "51564d0df0355c94cfd682f1eae549463d77328918c621a8094e49247b2f22d0",
    "train_rc": "1e562d7abca5f0ff52ff790470b1f3f28dda0162ef70d4a4aec2ba5e6d83174f",
}

FULL_SEED_3 = {
    "ask_default": "4aa5912db9df1c3aa89e2a7da15f226a723c070930853ad82cdba2bed08df357",
    "train_mtl": "3844f8841a45da0d8604894d3eacf55c615a1d654802ed78acd39d6ef351507e",
    "train_rc": "707438b3db78b31e58845a616d05b19de57f63ec19bf55a989c9e83a8e2195e6",
}


def assert_digest(workload: str, seed: int, want: str, size: list[str]) -> None:
    run = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                          "--seconds", "0.3", "--trace", "0", *size],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    [digest] = [line.split()[-1] for line in lines if line.startswith("#   digest ")]
    [environment] = [line for line in lines if line.startswith("#   environment ")]
    assert "correct=True" in lines[0], run.stdout
    name = f"{'tiny' if size else 'full-size'} seed-{seed}"
    assert digest == f"sha256:{want}", (
        f"{workload}: {name} digest moved; the golden was taken with one OpenBLAS "
        f"thread on the SkylakeX kernel, this run had{environment[len('#  '):]}")


@pytest.mark.parametrize("workload", sorted(TINY_SEED_7))
def test_tiny_bench_digest_is_golden(workload):
    assert_digest(workload, 7, TINY_SEED_7[workload], ["--tiny"])


@pytest.mark.parametrize("workload", sorted(FULL_SEED_3))
def test_full_size_bench_digest_is_golden(workload):
    assert_digest(workload, 3, FULL_SEED_3[workload], [])
