"""End-to-end and per-layer benchmark of the wgcalc engine.

    python3 bench/run.py --workload solve --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the repository root.  The engine is imported from ``src/``.

Load model: a closed loop with one client.  One process and one thread run
the jobs one after another, with BLAS and OpenMP pinned to one thread.
Every job starts cold (``exact.clear_caches()`` and
``graphs.clear_caches()``, before the calibration that precedes the job),
which is a fresh ``wg`` process minus interpreter start-up; ``setup_s``
counts that start-up.

The seed picks one variant per slot of the workload's pool
(``bench/pool/<workload>.json``) and shuffles the slots into a job list.
The run repeats that list in whole passes for about ``--seconds``: another
pass starts only if it is expected to end at most half a pass past the
limit, or while the run has fewer than ``MIN_SAMPLES`` job latencies.  Every
output is checked against the pool.

Host speed.  On a shared host the same job set can run 1.7 times slower in
one minute than in the next, and the speed changes within seconds, also
while one job runs.  Before every job, and every ``CALIBRATION_TICK_S``
while it runs (from a ``SIGALRM`` handler, whose time is taken out of the
job's latency), the runner times ``calibrate()``, a fixed computation that
shares no code with the engine.  It reports every time at the reference
speed, where ``calibrate()`` takes ``CALIBRATION_REFERENCE_S``: each job's
latency is divided by the median of the calibrations taken during it and
within ``CALIBRATION_WINDOW_S`` of it (``HostSpeed.factors``) over that
reference.  The measured values and the calibration samples are written
beside the result (``measured``, ``calibration_ms``).

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``jobs_per_s``: jobs in the list over the sum of each job's median
  latency across passes, so one slow stretch of the host does not decide it;
* ``job_p50_ms`` and ``job_tail_ms``: latency of one job, from the call
  into ``cli.run`` (or the library call) to its return, at the median and at
  the highest of p50/p90/p99 with at least ten samples beyond it
  (interpolated between neighbouring samples);
* ``ok_ratio``: ``1 - failed_ratio``, the share of jobs whose output matched
  (the known-defect rows of ``moments`` fail until the engine answers them);
* ``setup_s``: median over seven fresh processes of the time from process
  start to the first job being ready (imports and job list), each at the
  reference speed of the reference start-ups spawned around it (see
  ``setup_seconds``);
* ``peak_rss_mb``: peak resident memory of the measuring process.

With ``--trace 1`` it times the ROADMAP baseline cases once each, runs one
untraced pass, then one pass with spans installed (see ``tracing.py``), and
reports the per-layer metrics, the baseline times and the tracing overhead.
A layer's self time includes the calibrations that fell in its spans, about
1% of it.  The span dump and per-layer table go to ``bench/out/``.

Exit status is 0 when the run completed, whatever it measured, and 2 when
there is no engine to benchmark.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve", "paths", "moments", "mc")
SETUP_PROBES = 7
# interpreter and numpy start-up without the engine, and its time at the reference speed
REFERENCE_START = "import numpy, time; print(time.perf_counter())"
REFERENCE_START_S = 0.1
# calibrate() takes this long at the reference host speed; see the module docstring
CALIBRATION_REFERENCE_S = 0.002
CALIBRATION_WINDOW_S = 0.25
CALIBRATION_TICK_S = 0.2
TAIL_LADDER = (99, 90, 50)
MIN_SAMPLES = 100  # enough for p90 with ten samples beyond it


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units as ``BENCHMARK.json`` declares them."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_pool(name: str) -> dict:
    return json.loads((HERE / "pool" / f"{name}.json").read_text())


def build_jobs(pool: dict, seed: int) -> list[tuple[str, dict]]:
    """One variant per slot, slots shuffled; the same seed gives the same list."""
    rng = random.Random(seed)
    units = [(slot["name"], rng.choice(slot["variants"])) for slot in pool["slots"]]
    rng.shuffle(units)
    return [(name, job) for name, variant in units for job in variant]


class Tally:
    """Attempted and failed jobs.  A known-defect row that the engine refuses
    with an error counts as failed but leaves ``correct`` true; any other
    failure, or a known-defect row answered with a wrong value, does not."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defect_failed = 0
        self.correct = True
        self.problems: list[str] = []

    def add(self, name: str, job: dict, outcome: common.Outcome) -> None:
        self.attempted += 1
        if common.matches(job, outcome, job["expect"]):
            return
        self.failed += 1
        refused = outcome.rc != 0 or outcome.error is not None
        if job.get("known_defect") and refused:
            self.known_defect_failed += 1
        else:
            self.correct = False
            if len(self.problems) < 5:
                detail = outcome.error or outcome.stderr.strip() or outcome.stdout.strip()
                self.problems.append(f"{name}: {common.describe(job)} -> rc={outcome.rc} "
                                     f"{detail[:160]!r}")


def calibrate() -> float:
    """Seconds taken by a fixed computation of the engine's kind: exact
    fractions and tuple-keyed dicts.  It shares no code with the engine."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    memo = {}
    for i in range(2000):
        memo[(i, i % 7)] = acc
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples taken between jobs, and when each job ran."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, seconds)
        self.jobs: list[tuple[float, float]] = []  # (start, end)
        self.paused = 0.0  # seconds spent in calibrate() during the current job

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), calibrate()))

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.paused += time.perf_counter() - start

    @contextlib.contextmanager
    def ticking(self):
        """Sample every ``CALIBRATION_TICK_S`` while the block runs, and
        count the time that takes in ``paused``.  These samples run beside
        the job's live memo; a 400k-entry dict beside ``calibrate()`` did not
        move its median time."""
        self.paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_TICK_S, CALIBRATION_TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factors(self) -> list[float]:
        """How much slower than the reference the host ran each job: the
        median of the calibrations taken while it ran or within
        ``CALIBRATION_WINDOW_S`` before it started or after it ended, over
        the reference.  The host changes speed within seconds, so a job is
        scaled by what ran during and around it, not by the whole run."""
        taken = [t for t, _ in self.samples]
        out = []
        for start, end in self.jobs:
            lo = bisect.bisect_left(taken, start - CALIBRATION_WINDOW_S)
            hi = bisect.bisect_right(taken, end + CALIBRATION_WINDOW_S)
            out.append(statistics.median(c for _, c in self.samples[lo:hi])
                       / CALIBRATION_REFERENCE_S)
        return out


def scaled(metrics: dict[str, float], units: dict[str, str], factor: float) -> dict[str, float]:
    """Times divided and rates multiplied by ``factor``; other metrics unchanged."""
    by_unit = {"s": 1 / factor, "ms": 1 / factor, "1/s": factor}
    return {name: value * by_unit.get(units[name], 1) for name, value in metrics.items()}


def run_pass(engine, jobs, work, tally, speed, tracer=None) -> list[common.Outcome]:
    outcomes = []
    for index, (name, job) in enumerate(jobs):
        # clear first, so calibrate() never runs beside the last job's memo
        engine.clear_caches()
        speed.sample()
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        with speed.ticking():
            outcome = common.run_job(engine, job, work)
        speed.jobs.append((start, time.perf_counter()))
        outcome.seconds -= speed.paused
        tally.add(name, job, outcome)
        outcomes.append(outcome)
    return outcomes


def tail(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest ladder percentile with >= 10 samples beyond it,
    interpolated between neighbouring samples."""
    n = len(latencies)
    pct = next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), TAIL_LADDER[-1])
    if n < 2:
        return latencies[0], pct
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1], pct


def _ready_after(argv: list[str]) -> float:
    """Seconds from spawning ``argv`` to the ``perf_counter()`` it prints last."""
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes of start-up until the job list is ready,
    as measured and at the reference host speed.

    Start-up is mostly imports: reading, unmarshalling and running module
    code, which a host slow-down stretches less than it does ``calibrate()``.
    So each probe is scaled by the reference start-up
    (``REFERENCE_START``) spawned just before and just after it, which
    takes ``REFERENCE_START_S`` at the reference speed."""
    probe = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-probe"]
    reference = [sys.executable, "-c", REFERENCE_START]
    refs = [_ready_after(reference)]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(_ready_after(probe))
        refs.append(_ready_after(reference))
    at_reference = [t * 2 * REFERENCE_START_S / (before + after)
                    for t, before, after in zip(raw, refs, refs[1:])]
    return statistics.median(raw), statistics.median(at_reference)


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "commit": _git_commit(), "source_sha256": _source_digest(),
            "blas_threads": {var: os.environ.get(var) for var in common.THREAD_VARS}}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` when the checkout has one."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((common.SRC / "wgcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def latency_metrics(passes: list[list[float]]) -> tuple[dict, int]:
    """Throughput over per-job medians across passes, median and tail latency."""
    jobs = len(passes[0])
    medians = [statistics.median(p[i] for p in passes) for i in range(jobs)]
    samples = [t for p in passes for t in p]
    tail_s, pct = tail(samples)
    return {"jobs_per_s": jobs / sum(medians), "job_p50_ms": statistics.median(samples) * 1000,
            "job_tail_ms": tail_s * 1000}, pct


def timed_run(engine, jobs, seconds: float, work: str, tally: Tally,
              speed: HostSpeed) -> tuple[dict, dict, dict]:
    """Whole passes for about ``seconds``; metrics at reference speed, as measured, detail."""
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append([o.seconds for o in run_pass(engine, jobs, work, tally, speed)])
        now = time.perf_counter()
        # start another pass only if it ends at most half a pass past the
        # limit, or if the tail percentile still lacks samples
        if (now - start + 0.5 * (now - pass_start) > seconds
                and len(jobs) * len(passes) >= MIN_SAMPLES):
            break
    elapsed = time.perf_counter() - start
    factors = speed.factors()
    at_reference = [[t / factors[p * len(jobs) + i] for i, t in enumerate(times)]
                    for p, times in enumerate(passes)]
    shared = {"ok_ratio": 1 - tally.failed / tally.attempted,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    metrics, pct = latency_metrics(at_reference)
    measured, _ = latency_metrics(passes)
    detail = {"passes": len(passes), "jobs_per_pass": len(jobs),
              "samples": len(jobs) * len(passes), "tail_percentile": pct, "measured_s": elapsed,
              "jobs": [name for name, _ in jobs],
              "pass_ms": [[round(t * 1000, 3) for t in p] for p in passes]}
    return {**metrics, **shared}, {**measured, **shared}, detail


def traced_run(engine, jobs, work: str, tally: Tally, speed: HostSpeed, units: dict,
               stem: str, env: dict) -> tuple[dict, dict, dict]:
    """Baseline cases, one untraced and one traced pass; metrics at reference
    speed, as measured, detail."""
    import tracing

    baseline = [(f"baseline.{slot['name']}_s", slot["variants"][0][0])
                for slot in load_pool("baseline")["slots"]]
    first = run_pass(engine, baseline, work, tally, speed)
    untraced = run_pass(engine, jobs, work, tally, speed)
    tracer = tracing.Tracer(engine)
    tracer.install()
    try:
        traced = run_pass(engine, jobs, work, tally, speed, tracer)
    finally:
        tracer.uninstall()
    outcomes = first + untraced + traced
    factors = speed.factors()
    raw = [o.seconds for o in outcomes]
    at_reference = [t / f for t, f in zip(raw, factors)]
    cut = (len(first), len(first) + len(jobs))

    def timings(times):
        untraced_s, traced_s = sum(times[cut[0]:cut[1]]), sum(times[cut[1]:])
        out = {name: t for (name, _), t in zip(baseline, times)}
        out["trace.untraced_jobs_per_s"] = len(jobs) / untraced_s
        out["trace.traced_jobs_per_s"] = len(jobs) / traced_s
        out["trace.overhead_ratio"] = traced_s / untraced_s
        return out

    measured, metrics = timings(raw), timings(at_reference)
    hits = sum(int(o.stdout.split()[1]) for (_, job), o in zip(jobs, traced)
               if job.get("argv", [""])[0] == "factorizations" and o.rc == 0)
    layers = tracing.layer_metrics(tracer, hits)
    traced_factor = sum(raw[cut[1]:]) / sum(at_reference[cut[1]:])
    measured.update(layers)
    metrics.update(scaled(layers, units, traced_factor))
    table = tracing.layer_table(tracer, layers, sum(raw[cut[1]:]))
    common.OUT.mkdir(exist_ok=True)
    tracer.dump(common.OUT / f"{stem}-spans.jsonl.gz", env)
    (common.OUT / f"{stem}-layers.txt").write_text(table + "\n")
    print(table)
    detail = {"spans": len(tracer.spans), "jobs_per_pass": len(jobs)}
    return metrics, measured, detail


def run_all(seed: int, seconds: float) -> int:
    """Run every workload in its own process and print one table."""
    rows = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        rows[workload] = (json.loads(lines[-2]), json.loads(lines[-1]))
    units = declared_metrics(False)
    print(f"{'workload':<9}" + "".join(f"{n + ' (' + u + ')':>22}" for n, u in units.items())
          + f"{'failed_ratio':>14}  correct")
    for workload, (detail, result) in rows.items():
        values = "".join(f"{result['metrics'][n]['value']:>22.4f}" for n in units)
        print(f"{workload:<9}{values}{detail['failed_ratio']:>14.4f}  {result['correct']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wgcalc benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        engine = common.load_engine()
    except common.MissingEngine as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs = build_jobs(load_pool(args.workload), args.seed)
    if args.setup_probe:
        print(time.perf_counter())
        return 0
    env = environment(args.workload, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    units = declared_metrics(bool(args.trace))
    tally = Tally()
    speed = HostSpeed()
    metrics, measured = {}, {}
    with common.WorkDir() as work:
        if args.trace:
            metrics, measured, detail = traced_run(engine, jobs, work.path, tally, speed, units,
                                                   stem, env)
        else:
            measured["setup_s"], metrics["setup_s"] = setup_seconds(args.workload, args.seed)
            timed = timed_run(engine, jobs, args.seconds, work.path, tally, speed)
            metrics.update(timed[0])
            measured.update(timed[1])
            detail = timed[2]
    detail.update(env=env, failed_ratio=tally.failed / tally.attempted,
                  known_defect_failed=tally.known_defect_failed, problems=tally.problems,
                  measured=measured,
                  calibration_ms=[round(c * 1000, 4) for _, c in speed.samples])
    if set(units) != set(metrics):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    common.OUT.mkdir(exist_ok=True)
    (common.OUT / f"{stem}.json").write_text(json.dumps({**detail, **result}, indent=1) + "\n")
    bulky = ("jobs", "pass_ms", "calibration_ms")
    print(json.dumps({k: v for k, v in detail.items() if k not in bulky}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
