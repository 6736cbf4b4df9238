"""Benchmark entry point: one seeded workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ask_default --seed 1 --seconds 20 --trace 0

Workloads: ask_default, train_mtl, train_rc (see bench/README.md).  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics and the tracing overhead.  The
lines before it name every metric with its unit, the tail percentile, the
output digest and the environment.  Inputs are generated under
``bench/_work/``, which is removed again; a result file and, when traced,
the spans stay there.

Exit codes: 0 measured (see ``correct`` and ``failed``), 2 usage error or
no passageqa sources next to the benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="a few passages, two questions, one step (smoke test)")
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy as np
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "passageqa" / "__init__.py").is_file():
        print(f"error: no passageqa sources at {SRC}", file=sys.stderr)
        return 2
    # One client, one BLAS thread: the second core absorbs other load.
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import passageqa
    if Path(passageqa.__file__).resolve().parent != SRC / "passageqa":
        print(f"error: passageqa imported from {passageqa.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from "
              f"{sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        result, tracer = workloads.run(args.workload, args.seed, args.seconds,
                                       bool(args.trace), workdir, tiny=args.tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment()
    info = dict(result.info, environment=env, missing=tracer.missing, checks=result.checks)
    print(f"# {tag}: {result.attempted} {info.get('op')} operations, "
          f"{result.failed} failed, correct={result.correct}")
    figures = result.metrics if args.trace else dict(result.report, **result.metrics)
    for name, (value, unit) in sorted(figures.items()):
        print(f"#   {name} = {value:.6g} {unit}")
    for name in tracer.missing:
        print(f"#   absent: {name} (name not found in passageqa)")
    for problem in result.checks:
        print(f"#   check failed: {problem}")
    print(f"#   digest {info.get('digest')}")
    print(f"#   environment {json.dumps(env, sort_keys=True)}")

    with open(WORK / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"metrics": result.metrics, "report": result.report, **info}, fh,
                  indent=1, sort_keys=True)
    if args.trace:
        tracer.write(str(WORK / f"{tag}.spans.jsonl"))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
