"""Shared plumbing: locating the program, metric records, statistics.

The benchmark runs from the root of a source checkout and imports the
program from ``src/`` of that checkout only.  It refuses to run when
``src/repro`` is missing rather than fall back to some other copy.
"""

from __future__ import annotations

import gc
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (exit code 2)."""


class InvalidRun(RuntimeError):
    """An open-loop run whose backlog grew: no valid latency (exit code 3)."""


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; fail without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}; run from "
                         f"the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import repro

    got = pathlib.Path(repro.__file__).resolve()
    if SRC.resolve() not in got.parents:
        raise BenchError(f"imported repro from {got}, not from {SRC}")


def import_seconds(modules: tuple, repeats: int) -> list[float]:
    """Time importing ``modules`` from ``src`` in ``repeats`` fresh
    interpreters (interpreter start-up itself is not counted)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t0 = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in modules)
            + "; print(time.perf_counter() - t0)")
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"importing {modules} failed:\n"
                             f"{proc.stderr[-2000:]}")
        out.append(float(proc.stdout.split()[-1]))
    return out


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Typical time of one :func:`calibration_work` on the host the bounds
#: were set on (a 2-vCPU x86-64 VM, CPython 3.11).  The workloads
#: report their times at this host speed: raw time *
#: CALIBRATION_NOMINAL_S / the run's mean calibration time.
CALIBRATION_NOMINAL_S = 0.0035
CALIBRATION_REPEATS = 5


class _Poly:
    __slots__ = ("c",)

    def __init__(self, c: list) -> None:
        self.c = c

    def mul(self, other: "_Poly") -> "_Poly":
        out = [0.0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            for j, y in enumerate(other.c):
                out[i + j] += x * y
        return _Poly(out)


def calibration_work() -> float:
    """A fixed mix of what the program spends host time on -- small
    objects, float arithmetic, list sorts, tiny NumPy calls -- that uses
    none of the program's code, so a change to the program leaves it
    unchanged while a slower or busier host slows it like the program."""
    import numpy as np

    vec = np.arange(64.0)
    acc = 0.0
    p = _Poly([1.0, 0.5, 0.25])
    for i in range(600):
        q = p.mul(_Poly([1.0, float(i & 7), 0.5]))
        acc += sum(q.c) + float(np.dot(vec, vec)) * 1e-9
        acc += sorted(q.c, key=lambda x: -x)[0]
    return acc


class HostSpeed:
    """Calibration samples taken through a run, and the scale they give.

    The 2-vCPU VM the bounds were set on shares its cores with other
    work: the same pure-Python loop ran 7 to 12 ms in 2 s windows and
    its medians moved by over 20% between sets of runs minutes apart.  The workloads sample
    :func:`calibration_work` while nothing is timed -- before every
    driver call, or in the open loop at moments when no request is in
    flight -- and scale their times by
    ``CALIBRATION_NOMINAL_S / mean(samples)``, which cancels most of that
    drift; the raw values are printed beside them.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, repeats: int = CALIBRATION_REPEATS) -> None:
        # With the collector off, the loop's time does not depend on how
        # many objects the program holds at that moment.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                t0 = time.perf_counter()
                calibration_work()
                self.samples.append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()

    def mean_s(self) -> float:
        if not self.samples:
            raise BenchError("no calibration samples")
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        """Factor from this run's host seconds to nominal seconds."""
        return CALIBRATION_NOMINAL_S / self.mean_s()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise BenchError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        raise BenchError(f"missing simulated-time reference {REFERENCE_PATH}")
    return json.loads(REFERENCE_PATH.read_text())


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def print_table(title: str, metrics: dict) -> None:
    """Human-readable ``name value unit`` lines (stdout, before the JSON)."""
    print(f"# {title}")
    for name, rec in metrics.items():
        print(f"#   {name:34s} {rec['value']:>14.6g} {rec['unit']}")


def emit_result(tally: Tally, metrics: dict) -> None:
    """The last stdout line: the machine-read result object.

    ``correct`` speaks of the operations that did not fail, and those
    passed every check: an operation whose check fails is counted in
    ``failed``.  A run that cannot be checked at all (no reference entry,
    no program source) raises :class:`BenchError` and prints no result.
    """
    print(json.dumps({"correct": True, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
