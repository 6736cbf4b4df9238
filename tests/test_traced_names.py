"""Every function the benchmark traces still exists under its traced name.

`bench/tracer.py` wraps passageqa functions by module and name, and reports
a name it cannot find as absent instead of failing.  This test makes such a
rename fail here, without running a benchmark workload.
"""
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
