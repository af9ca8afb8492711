"""Measurement machinery shared by the workloads: the warm-up rule, the
timed loop, per-layer tracing, the Spark session and process clean-up.

The benchmark times the program from outside. Per-layer times come from
wrapping the program's public methods for the length of a traced run
(``Tracer.wrap``) or from spans around calls the benchmark makes itself
(``Tracer.span``); nothing under ``src/`` is changed.
"""
from __future__ import annotations

import os
import resource
import shlex
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: per-layer metrics of a traced run: name -> (unit, kind of bucket it is
#: the median over). A layer that does not run on a workload reads 0.
PER_LAYER = {
    "loader.fill_ms": ("ms/step", "step"),
    "loader.fill_calls": ("calls/step", "step"),
    "spark.jobs": ("jobs/step", "step"),
    "planner.summary_ms": ("ms/step", "step"),
    "planner.plan_ms": ("ms/step", "step"),
    "balance.ms": ("ms/step", "step"),
    "balance.imbalance": ("max/mean", "step"),
    "loader.prepare_ms": ("ms/step", "step"),
    "constructor.init_ms": ("ms/step", "step"),
    "constructor.build_ms": ("ms/step", "step"),
    "constructor.payload_ms": ("ms/step", "step"),
    "constructor.padding_tokens": ("tokens/step", "step"),
    "constructor.client_bytes": ("bytes/step", "step"),
    "checkpoint.sync_ms": ("ms/step", "step"),
    "checkpoint.recover_ms": ("ms/recovery", "recovery"),
    "checkpoint.rows_reread": ("rows/recovery", "recovery"),
    "data.generate_ms": ("ms/rep", "step"),
    "primitives.plan_ms": ("ms/rep", "step"),
    "trainsim.simulate_ms": ("ms/rep", "step"),
}

END_TO_END = {
    "samples_per_s": "samples/s",
    "step_p50_ms": "ms",
    "sim_tokens_per_s": "tokens/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: the warm-up ends once the best of the last WARM_WINDOW step times is no
#: more than WARM_TOLERANCE below the best step time before them
WARM_WINDOW = 2
WARM_TOLERANCE = 0.10


class CheckFailed(AssertionError):
    """An output of the program failed one of the benchmark's checks."""


def process_age_s() -> float:
    """Seconds since this process started, from /proc (10 ms resolution)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warmed_up(step_s: list[float]) -> bool:
    """True once per-step time has stopped falling (see WARM_WINDOW)."""
    if len(step_s) <= WARM_WINDOW:
        return False
    recent = min(step_s[-WARM_WINDOW:])
    before = min(step_s[:-WARM_WINDOW])
    return recent >= (1.0 - WARM_TOLERANCE) * before


@dataclass
class Record:
    """What the timed rounds did: step and recovery wall times and the
    operation counts the result reports."""

    step_s: list[float] = field(default_factory=list)
    recover_s: list[float] = field(default_factory=list)
    samples: int = 0
    attempted: int = 0
    failed: int = 0

    def step(self, seconds: float, samples: int) -> None:
        self.step_s.append(seconds)
        self.samples += samples
        self.attempted += 1

    def recovery(self, seconds: float) -> None:
        self.recover_s.append(seconds)
        self.attempted += 1


class Tracer:
    """Per-layer accumulator. Times and counts are summed into the open
    bucket (one timed step, or one recovery); a metric is the median of
    its sums over buckets of its kind."""

    def __init__(self):
        self._buckets: dict[str, list[dict[str, float]]] = defaultdict(list)
        self._open: dict[str, float] | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- buckets ---------------------------------------------------------------

    @contextmanager
    def bucket(self, kind: str):
        outer, self._open = self._open, defaultdict(float)
        try:
            yield
            self._buckets[kind].append(dict(self._open))
        finally:
            self._open = outer

    def reset(self) -> None:
        self._buckets.clear()

    def add(self, key: str, value: float) -> None:
        if self._open is not None:
            self._open[key] += value

    @contextmanager
    def span(self, key: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(key, (time.perf_counter() - t0) * 1e3)

    # -- wrapping the program's methods ---------------------------------------

    def wrap(self, owner, attr: str, key: str, *, calls: str | None = None,
             rows: str | None = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper until ``close``.
        ``calls`` counts the calls; ``rows`` sums an int return value."""
        original = getattr(owner, attr)
        tracer = self

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.add(key, (time.perf_counter() - t0) * 1e3)
            if calls:
                tracer.add(calls, 1)
            if rows:
                tracer.add(rows, int(out))
            return out

        self._patched.append((owner, attr, original))
        setattr(owner, attr, timed)

    def close(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- result ----------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        out = {}
        for name, (unit, kind) in PER_LAYER.items():
            buckets = self._buckets.get(kind, [])
            value = statistics.median(b.get(name, 0.0) for b in buckets) if buckets else 0.0
            out[name] = {"value": float(value), "unit": unit}
        return out


class NullTracer(Tracer):
    """Tracing off: buckets and spans cost next to nothing."""

    @contextmanager
    def bucket(self, kind: str):
        yield

    def add(self, key: str, value: float) -> None:
        pass

    def wrap(self, *args, **kwargs) -> None:
        raise RuntimeError("tracing is off")


# -- the timed loop --------------------------------------------------------------


def measure(workload, seconds: float, tracer: Tracer) -> tuple[float, Record]:
    """Warm ``workload`` up, then run whole rounds for ``seconds``.

    Warm-up runs at least ``min_warmup_steps`` steps, then until per-step
    time stops falling or ``max_warmup_s`` has passed, whichever is first.

    Returns the cold set-up time (process start to the end of warm-up) and
    the record of the timed rounds. A round is the workload's unit of
    identical work, so every run attempts the same mix of operations.
    """
    warm = Record()
    t0 = time.perf_counter()
    while len(warm.step_s) < workload.min_warmup_steps or not (
            warmed_up(warm.step_s) or time.perf_counter() - t0 > workload.max_warmup_s):
        workload.round(warm)
    setup_s = process_age_s()
    print(f"perfbench: warm-up {len(warm.step_s)} steps in {time.perf_counter() - t0:.1f} s, "
          f"set-up {setup_s:.1f} s", file=sys.stderr)
    tracer.reset()
    rec = Record()
    t0 = time.perf_counter()
    while (time.perf_counter() - t0 < seconds
           or len(rec.step_s) < workload.min_timed_steps):
        workload.round(rec)
    workload.finish(rec)
    print(f"perfbench: timed {len(rec.step_s)} steps in {time.perf_counter() - t0:.1f} s; "
          f"step times (ms) {[round(x * 1e3) for x in rec.step_s]}", file=sys.stderr)
    return setup_s, rec


def end_to_end(setup_s: float, rec: Record, sim_tokens_per_s: float) -> dict[str, dict]:
    busy = sum(rec.step_s) + sum(rec.recover_s)
    values = {
        "samples_per_s": rec.samples / busy,
        "step_p50_ms": statistics.median(rec.step_s) * 1e3,
        "sim_tokens_per_s": sim_tokens_per_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in values.items()}


# -- Spark -----------------------------------------------------------------------


def start_spark(tmp: Path, cores: int):
    """One local Spark session whose scratch files all live under ``tmp``.

    Must run before anything else starts a JVM in this process; the
    submit arguments are read once, at JVM launch.
    """
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # spark-submit's own launcher JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        "--driver-memory 1g",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf {shlex.quote(f'spark.sql.warehouse.dir={tmp}/warehouse')}",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        # 2 x cores: the repo's 64 would leave most shuffle tasks empty
        .config("spark.sql.shuffle.partitions", str(2 * cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            out.append(int(entry))
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_spark(spark, timeout_s: float = 60.0) -> None:
    """Stop the session, end the JVM and wait for it and for the Python
    workers it started to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    workers = []
    if proc is not None:
        workers = [c for p in _children(proc.pid) for c in [p, *_children(p)]]
    spark.stop()
    gateway.shutdown()
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=timeout_s)
    deadline = time.monotonic() + timeout_s
    for pid in workers:
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # exited since the check
