"""Shared plumbing for the benchmark runner.

Everything here belongs to the benchmark, not to the program under test:
locating the checkout's ``src/`` tree, the host fingerprint, statistics,
peak-memory sampling of the program's processes, and leak checks.
"""

from __future__ import annotations

import contextlib
import io
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterator

#: The benchmark's own directory and the checkout root that holds it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for registries, fleet state and trace sinks; git-ignored.
WORK_ROOT = BENCH_DIR / ".work"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


def require_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` or refuse to run.

    The benchmark must never fall back to some other installed copy of
    the package, so a checkout without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def program_env() -> dict[str, str]:
    """Environment for child processes that run the program from ``src/``."""
    env = os.environ.copy()
    env.pop("REPRO_TRACE_SINK", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def host_fingerprint() -> dict[str, object]:
    """What a reader needs to compare two results from different hosts."""
    import numpy as np

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = []
    blas: object = None
    try:
        config = np.show_config(mode="dicts")
        blas = (config or {}).get("Build Dependencies", {}).get("blas")
    except TypeError:  # NumPy < 1.25 prints instead of returning
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


class Calibration:
    """The host's current speed, from a fixed task of the benchmark's own.

    A shared host runs the same fit 1.5-2x slower for stretches of
    seconds to minutes. The calibration task slows with it: like the
    program's exact sweeps, it scores one row at a time against a few
    centers and moves it, many small NumPy calls on tiny arrays. A time
    multiplied by ``factor()``, called right after it (the speed
    measured then, averaged with the measurement before), reads as
    seconds at the reference speed: one unit of the task in
    ``REF_UNIT_S``. The task is not the program's code, so a faster
    program still reads faster.

    Bulk work (large arrays, memory-bound) slows differently; it is
    calibrated by ``BulkCalibration``. With ``every_cpu`` a measurement
    is the mean over this process's CPUs, for work that spans processes.
    """

    REF_UNIT_S = 2e-3
    #: Rows per unit, units per measurement.
    UNIT_ROWS = 100
    UNITS = 6

    def __init__(self, every_cpu: bool = False) -> None:
        self.every_cpu = every_cpu
        self._setup()
        self._last = self._measure()
        self.factors: list[float] = []

    def _setup(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        rows = self.UNIT_ROWS * self.UNITS
        self._points = rng.random((rows, 28))
        self._groups = rng.integers(0, 41, rows)
        self._centers = rng.random((5, 28))
        self._labels = rng.integers(0, 5, rows)

    def _measure(self) -> float:
        if not self.every_cpu:
            return self._unit_s()
        times = []
        for cpu in sorted(os.sched_getaffinity(0)):
            with pinned({cpu}):
                times.append(self._unit_s())
        return sum(times) / len(times)

    def _unit_s(self) -> float:
        import numpy as np

        centers = self._centers
        labels = self._labels.copy()
        counts = np.zeros((5, 41))
        np.add.at(counts, (labels, self._groups), 1.0)
        sizes = counts.sum(axis=1) + 1.0
        start = time.perf_counter()
        for i, point in enumerate(self._points):
            diff = centers - point
            share = counts[:, self._groups[i]] / sizes
            to = int(np.argmin((diff * diff).sum(axis=1) + 0.1 * np.abs(share - share.mean())))
            came = int(labels[i])
            if to != came:
                counts[came, self._groups[i]] -= 1.0
                counts[to, self._groups[i]] += 1.0
                sizes[came] -= 1.0
                sizes[to] += 1.0
                labels[i] = to
        return (time.perf_counter() - start) / self.UNITS

    def mark(self) -> None:
        """Measure now: an operation timed from here gets ``factor()`` next."""
        self._last = self._measure()

    def factor(self) -> float:
        """Reference-speed factor for the operation timed since the last call."""
        now = self._measure()
        factor = self.REF_UNIT_S / ((self._last + now) / 2)
        self._last = now
        self.factors.append(factor)
        return factor


@contextlib.contextmanager
def pinned(cpus: set[int]) -> Iterator[None]:
    """Run this thread (and what it spawns meanwhile) on *cpus* only."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def one_cpu() -> contextlib.AbstractContextManager[None]:
    """Pin to one CPU: the two CPUs of a shared host can differ in speed
    by 40% at the same moment, and a calibration only describes the
    operation next to it if both ran on the same CPU. The highest-numbered
    CPU is taken: the first usually serves more interrupts."""
    return pinned({max(os.sched_getaffinity(0))})


class BulkCalibration(Calibration):
    """``Calibration`` with a bulk task: a 16,384-row npy body decoded,
    assigned to the nearest of five centers and its labels encoded."""

    REF_UNIT_S = 4e-3
    UNITS = 2

    def _setup(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        buffer = io.BytesIO()
        np.save(buffer, rng.random((16_384, 28)))
        self._body = buffer.getvalue()
        self._centers = rng.random((5, 28))

    def _unit_s(self) -> float:
        import numpy as np

        centers = self._centers
        start = time.perf_counter()
        for _ in range(self.UNITS):
            points = np.load(io.BytesIO(self._body))
            distance = (centers * centers).sum(axis=1) - 2.0 * points @ centers.T
            np.save(io.BytesIO(), distance.argmin(axis=1))
        return (time.perf_counter() - start) / self.UNITS


def timed_imports(modules: list[str], repeats: int, calibration: Calibration) -> list[float]:
    """Time of a fresh interpreter importing *modules*, *repeats* times,
    at the reference speed of *calibration*."""
    code = "import " + ", ".join(modules)
    times = []
    calibration.mark()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=program_env(), check=True, cwd=ROOT
        )
        elapsed = time.perf_counter() - start
        times.append(elapsed * calibration.factor())
    return times


# --------------------------------------------------------------------- #
# Peak memory of the program's processes                                  #
# --------------------------------------------------------------------- #


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tids = list(task_dir.iterdir())
    except OSError:
        return kids
    for tid in tids:
        try:
            text = (tid / "children").read_text()
        except OSError:
            continue
        kids.extend(int(p) for p in text.split())
    return kids


def process_tree(pid: int) -> list[int]:
    """*pid* and all its live descendants."""
    seen, stack = [], [pid]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.append(cur)
        stack.extend(_children(cur))
    return seen


def _pss_kb(pid: int) -> int:
    """Proportional set size (shared pages split between sharers) in kB."""
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        text = ""
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    return 0


class MemorySampler:
    """Peak of the summed PSS of a process tree, sampled in a thread.

    Forked workers share pages with their parent; PSS splits those
    pages between sharers, so the sum counts each page once. Sampling is
    slow on purpose: reading smaps stalls the process being read.
    """

    def __init__(self, root_pid: int, interval_s: float = 0.25) -> None:
        self.root_pid = root_pid
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        total = sum(_pss_kb(pid) for pid in process_tree(self.root_pid))
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "MemorySampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


# --------------------------------------------------------------------- #
# Leak checks                                                             #
# --------------------------------------------------------------------- #


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def pid_alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    # A zombie has exited; it only waits to be reaped.
    return stat.rsplit(")", 1)[-1].split()[0] != "Z"


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    The program's shared-memory backend starts it; left alone it would
    outlive this run by a moment instead of ending inside it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def leaks(shm_before: set[str], pids: list[int]) -> list[str]:
    """Shared-memory segments and processes the run left behind.

    Segments are listed before the resource tracker stops, because a
    stopping tracker unlinks every segment still registered with it.
    """
    found = [f"/dev/shm/{name}" for name in sorted(shm_segments() - shm_before)]
    _stop_resource_tracker()
    for pid in dict.fromkeys([*_children(os.getpid()), *pids]):
        if pid_alive(pid):
            found.append(f"process {pid}")
    return found
