"""What every workload shares: run accounting, statistics, host readings."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def use_checkout_sources() -> bool:
    """Import ``repro`` from this checkout's ``src``; False if it is absent.

    The native-kernel build cache moves into the checkout too, so a run
    reads and writes nothing outside it.
    """
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    os.environ["REPRO_KERNEL_CACHE"] = str(CHECKOUT / ".bench_build" / "repro-kernels")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


def pin_to_one_cpu() -> int:
    """Pin this process, and every process and thread it starts, to one CPU.

    On a 2-vCPU VM, a wire run that kept both vCPUs busy (client and
    server) had a third of its CPU time stolen by the hypervisor, and its
    figures spread 21% between runs; on one CPU the steal fell to about
    1 s per 30-s run and the spread to 5%.  Returns the CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Run:
    """One benchmark run: operation counts, metrics, diagnostics.

    Every operation the workload attempts -- a feed, a read, a game round,
    a certificate check -- goes through :meth:`attempt`; a failed one
    makes the run incorrect.
    """

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.diagnostics: dict[str, object] = {}
        self._lock = threading.Lock()

    def attempt(self, ok: bool, what: str, count: int = 1) -> bool:
        """Count ``count`` operations; all fail when ``ok`` is false."""
        with self._lock:  # the wire workload's two threads both count
            self.attempted += count
            if not ok:
                self.failed += count
                if len(self.failures) < 20:
                    self.failures.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def result(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


# -- statistics -----------------------------------------------------------


def best(durations: Iterable[float]) -> float:
    """The fastest of many fixed-size repetitions.

    This host's speed moves by up to 2x for seconds at a time, which moves
    a run's median repetition with it; the fastest of hundreds of short
    repetitions moves far less between runs, so throughput is reported
    from it.
    """
    return min(durations)


def tail_percentile(samples: list[float], pct: float) -> float:
    """``pct``-th percentile, refused unless >= 10 samples lie beyond it."""
    beyond = len(samples) * (100.0 - pct) / 100.0
    if beyond < 10:
        raise ValueError(
            f"p{pct:g} of {len(samples)} samples leaves {beyond:.1f} beyond it"
        )
    return float(np.percentile(np.asarray(samples), pct))


def report_reads(run: Run, latencies: list[float]) -> None:
    """``read_p50_ms`` and ``read_p99_ms`` over all of one run's reads.

    They are per-layer metrics of the traced run and diagnostics of the
    others: this host moves sub-millisecond read percentiles by 10-35%
    between runs (interquartile range over ten runs), beyond the 25% a
    bounded end-to-end metric may spread.
    """
    values = {
        "read_p50_ms": float(np.median(latencies)) * 1e3,
        "read_p99_ms": tail_percentile(latencies, 99) * 1e3,
    }
    for name, value in values.items():
        if run.trace:
            run.metric(name, value, "ms")
        else:
            run.diagnostics[name] = value
    run.diagnostics["reads"] = len(latencies)


#: How far the reported self-time rows may sum from the traced end-to-end time.
ACCOUNTING_TOLERANCE_PCT = 3.0


def span_row(run: Run, table: dict, name: str) -> list:
    """``table[name]``; a span this workload must record but did not (a
    renamed or bypassed call, or server spans lost) fails the run."""
    row = table.get(name)
    run.attempt(bool(row and row[0]), f"layer span {name} recorded no calls")
    return row or [0, 0.0, 0.0, 0]


def report_trace(
    run: Run, rows: dict, root: str, e2e: float, traced: list, untraced: list
) -> None:
    """Accounting and overhead of a traced run.

    ``rows`` are the self times, in seconds, of the per-layer rows this run
    reports for the threads that carry the end-to-end time ``e2e`` (the
    benchmark's own stopwatch); the run fails unless they sum to ``e2e``
    within ``ACCOUNTING_TOLERANCE_PCT``.  ``root`` names the catch-all row
    (the self time of the outermost call), whose share of ``e2e`` is
    reported as ``trace.root_self_pct``: time the table does not attribute
    to any inner layer.  The overhead compares the fastest traced
    repetition with the fastest untraced one.
    """
    share = 100.0 * sum(rows.values()) / e2e
    run.metric("trace.e2e_s", e2e, "s")
    run.metric("trace.accounted_pct", share, "%")
    run.metric("trace.root_self_pct", 100.0 * rows[root] / e2e, "%")
    run.metric("trace.overhead_pct", 100.0 * (best(traced) / best(untraced) - 1.0), "%")
    run.attempt(
        abs(share - 100.0) <= ACCOUNTING_TOLERANCE_PCT,
        f"per-layer self times cover {share:.1f}% of the traced end-to-end time",
    )


def repeat_for(seconds: float, body: Callable[[], float], min_reps: int) -> list:
    """Call ``body`` (returning its own timed seconds) until ``seconds`` pass.

    Runs at least ``min_reps`` repetitions even on a slow host.
    """
    durations = []
    deadline = time.perf_counter() + seconds
    while len(durations) < min_reps or time.perf_counter() < deadline:
        durations.append(body())
    return durations


# -- host readings --------------------------------------------------------


def steal_seconds() -> float:
    """Cumulative steal time of all CPUs (``/proc/stat``), in seconds."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / _CLK_TCK
    except (OSError, IndexError, ValueError):
        return 0.0


def own_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of another live process."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_facts() -> dict:
    """nproc, interpreter and numpy versions, native kernel tier state."""
    from repro.core import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_kernels": kernels.native_kernels_available(),
    }


class HostWindow:
    """Steal and CPU seconds accumulated between construction and close."""

    def __init__(self, run: Run, server_pid: Optional[int] = None) -> None:
        self.run = run
        self.server_pid = server_pid
        self._steal = steal_seconds()
        self._cpu = own_cpu_seconds()
        self._server_cpu = (
            process_cpu_seconds(server_pid) if server_pid is not None else 0.0
        )

    def close(self) -> None:
        diag = self.run.diagnostics
        diag["host.steal_s"] = steal_seconds() - self._steal
        diag["host.cpu_s"] = own_cpu_seconds() - self._cpu
        if self.server_pid is not None:
            diag["host.server_cpu_s"] = (
                process_cpu_seconds(self.server_pid) - self._server_cpu
            )


# -- child processes ------------------------------------------------------


def run_child(*args, env: Optional[dict] = None) -> str:
    """Run ``child.py args...`` to completion; return its last stdout line."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, **(env or {})},
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"child {args} failed: {completed.stderr.strip()[-800:]}"
        )
    return completed.stdout.strip().splitlines()[-1]
