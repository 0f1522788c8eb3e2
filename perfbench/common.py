"""Shared helpers: seeds, percentiles, memory, work directories and the
environment record every result carries."""
from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import threading
import time
from pathlib import Path

import numpy as np

# Percentiles a tail may be reported at. Each workload names the highest
# one that leaves at least MIN_BEYOND samples above it at its usual sample
# count (choosing-metrics section 1), so the tail is read at the same
# percentile on every run; a run with too few samples falls back down the
# grid and records where it landed.
TAIL_GRID = (99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
SETUP_REPEATS = 3
RSS_SAMPLE_S = 0.1


def sub_seed(seed: int, *key: int) -> int:
    """A stream seed derived only from the run's ``--seed`` and a fixed key."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1)[0])


def latency_summary(samples_ms: "list[float] | np.ndarray", tail_p: float) -> dict:
    """Median and tail of a latency sample, with the tail's percentile and
    the sample count (windows delivered together share one value)."""
    a = np.asarray(samples_ms, dtype=np.float64)
    n = len(a)
    if n == 0:
        raise ValueError("no latency samples")
    grid = [p for p in TAIL_GRID if p <= tail_p]
    p = next((p for p in grid if n * (1 - p / 100.0) >= MIN_BEYOND), 50.0)
    return {
        "p50_ms": float(np.percentile(a, 50)),
        "tail_ms": float(np.percentile(a, p)),
        "tail_percentile": p,
        "samples": n,
        "distinct_samples": int(len(np.unique(a))),
    }


# A fixed CPU-bound task (interpreter loop + small numpy sorts, the mix the
# kernel runs) timed between passes. The host's speed drifts by up to ~20%
# over seconds on shared machines; a pass's time scaled by
# PROBE_REF_S / (probe time around it) is its time at the reference speed.
# Measured on a 4-core machine, kernel pass times correlated with the probe
# at 0.67-0.85 and their spread fell 2-2.5x when scaled.
PROBE_REF_S = 0.010
_PROBE_DATA = np.random.default_rng(0).random(1_000)


def host_probe_s() -> float:
    """Seconds the reference task takes right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i
    for _ in range(300):
        np.unique(_PROBE_DATA)
    return time.perf_counter() - t0


class HostSpeed:
    """Scale factors for consecutive timed intervals, from probes taken
    before the first interval and after each one."""

    def __init__(self):
        self.probes = [host_probe_s()]
        self.factors: list[float] = []

    def interval_done(self) -> float:
        """Probe after an interval; its factor (<1 when the host ran slow)."""
        self.probes.append(host_probe_s())
        f = PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)
        self.factors.append(f)
        return f


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


class PeakRss:
    """Peak resident memory over a region (the timed region of a run).

    Without children the process's own high-water mark is reset on entry
    (``/proc/self/clear_refs``) and read on exit, which needs no sampling.
    With children (the Spark JVM and its Python workers) the resident
    memory of the process tree is sampled every ``RSS_SAMPLE_S`` seconds.
    """

    def __init__(self, children: bool):
        self.children = children
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "PeakRss":
        if self.children:
            self._thread = threading.Thread(target=self._loop, daemon=True)
            self._thread.start()
        else:
            with open("/proc/self/clear_refs", "w") as f:
                f.write("5")
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5)
        else:
            self.peak_bytes = _vm_hwm_bytes()

    def _loop(self) -> None:
        while True:
            self.peak_bytes = max(self.peak_bytes, tree_pss_bytes(os.getpid()))
            if self._stop.wait(RSS_SAMPLE_S):
                return

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / 2**20


def _vm_hwm_bytes() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def tree_pss_bytes(root_pid: int) -> int:
    """Resident memory of ``root_pid`` and every descendant process.

    Summed as PSS (``/proc/<pid>/smaps_rollup``), so pages that forked
    Python workers share with their parent count once, not once per worker.
    """
    parent: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # ppid is the 2nd field after the parenthesised command name.
        parent[int(entry)] = int(stat[stat.rfind(")") + 2 :].split()[1])
    total = 0
    for pid in parent:
        p = pid
        while p and p != root_pid:
            p = parent.get(p, 0)
        if p == root_pid:
            total += _pss_bytes(pid)
    return total


def _pss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # the process exited between listing and reading
        pass
    return 0


class WorkDir:
    """A fresh working directory inside the checkout, removed on exit.

    Everything the benchmark and the Spark processes it starts write —
    inputs, spools, checkpoints, JVM temp files — lives under it.
    """

    def __init__(self, root: Path, name: str):
        self.path = root / ".perfbench_work" / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        (self.path / "tmp").mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = self.path.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def _java_version() -> str | None:
    try:
        out = subprocess.run(
            ["java", "-XX:-UsePerfData", "-version"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = (out.stderr or out.stdout).splitlines()
    return lines[0].strip() if lines else None


def _git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    top, sha = out.stdout.split()
    # A checkout that is not itself a repository must not report the SHA of
    # a repository it happens to sit in.
    return sha if Path(top).resolve() == root.resolve() else None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _mem_total_mb() -> float | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def environment(root: Path, args, workload_env: dict) -> dict:
    """Where and how a result was measured."""
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": _mem_total_mb(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "pyspark": _version("pyspark"),
        "numpy": _version("numpy"),
        "pyarrow": _version("pyarrow"),
        "pandas": _version("pandas"),
        "java": _java_version(),
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **workload_env,
    }
