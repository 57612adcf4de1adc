"""Pieces shared by the benchmark runner and the pool recorder.

Importing this module pins BLAS and OpenMP to one thread, so it must be
imported before numpy.  The engine is always loaded from ``src/`` of the
checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class MissingEngine(RuntimeError):
    """The checkout holds no wgcalc sources to benchmark."""


@dataclass
class Engine:
    cli: object
    exact: object
    graphs: object
    symcore: object

    def clear_caches(self) -> None:
        """Drop the engine's caches, so the next job starts as in a fresh process."""
        self.exact.clear_caches()
        self.graphs.clear_caches()


def load_engine() -> Engine:
    if not (SRC / "wgcalc" / "cli.py").is_file():
        raise MissingEngine(f"no wgcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wgcalc
    from wgcalc import cli, exact, graphs, symcore

    if Path(wgcalc.__file__).resolve().parent != SRC / "wgcalc":
        raise MissingEngine(f"wgcalc was imported from {wgcalc.__file__}, not {SRC}")
    return Engine(cli, exact, graphs, symcore)


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None


class WorkDir:
    """Scratch directory for cache files, inside the checkout, removed on exit."""

    def __enter__(self):
        self.path = os.path.relpath(OUT / f"work-{os.getpid()}", Path.cwd())
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        return False


def _fill(text: str, work: str) -> str:
    return text.replace("{work}", work)


def run_job(engine: Engine, job: dict, work: str) -> Outcome:
    """Run one job and time it from the call to its return.

    Callers clear the engine's caches first (``Engine.clear_caches``).  The
    job's files are prepared before the clock starts.  Exceptions escaping
    the engine are caught and reported as a failed outcome, never retried.
    """
    if "fresh" in job:
        with contextlib.suppress(FileNotFoundError):
            os.remove(_fill(job["fresh"], work))
    out, err = io.StringIO(), io.StringIO()
    if "call" in job:
        elem = engine.symcore.parse_pair_partition(job["pairing"])
        fn = getattr(engine.exact, job["call"])
        start = time.perf_counter()
        try:
            value = fn(elem, job["dim"])
        except Exception as exc:  # a failed job is recorded, not raised
            return Outcome(1, "", "", time.perf_counter() - start,
                           f"{type(exc).__name__}: {exc}")
        return Outcome(0, f"{value}\n", "", time.perf_counter() - start)
    argv = [_fill(a, work) for a in job["argv"]]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = engine.cli.run(argv)
    except Exception as exc:  # a failed job is recorded, not raised
        return Outcome(1, out.getvalue(), err.getvalue(), time.perf_counter() - start,
                       f"{type(exc).__name__}: {exc}")
    return Outcome(rc, _unfill(out.getvalue(), work), err.getvalue(), time.perf_counter() - start)


def _unfill(text: str, work: str) -> str:
    return text.replace(work, "{work}")


def exact_line(stdout: str) -> str | None:
    return next((ln for ln in stdout.splitlines() if ln.startswith("exact: ")), None)


def matches(job: dict, outcome: Outcome, expect: dict) -> bool:
    if outcome.error is not None or outcome.rc != expect["rc"]:
        return False
    if "exact_line" in expect:
        return exact_line(outcome.stdout) == expect["exact_line"]
    return outcome.stdout == expect["stdout"]


def describe(job: dict) -> str:
    if "call" in job:
        return f"{job['call']}({job['pairing']!r}, {job['dim']})"
    return "wg " + " ".join(job["argv"])
