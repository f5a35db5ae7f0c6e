"""Host-speed controls, resource readings and run metadata.

The control kernels are fixed numpy work that no change to the program can
move: a 576x256 matmul (the macro's crossbar shape) and a LUT ``take`` of
the DAC-gather shape.  Each run times them at its start and its end, so a
run slowed by a neighbour on a shared machine shows as such beside its
numbers.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import time
from multiprocessing import resource_tracker
from typing import Dict

import numpy as np

#: Environment variables that pin BLAS / OpenMP pools, all set to 1 before
#: numpy is imported (``run.py`` does that).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Timed repetitions of each control kernel; the median is reported.
REPS = 15


def _median_ms(fn) -> float:
    samples = []
    for _ in range(REPS):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def control_kernels() -> Dict[str, float]:
    """Median ms of the matmul and LUT-take controls (fixed inputs)."""
    rng = np.random.default_rng(12345)
    acts = rng.standard_normal((64, 576))
    weights = rng.standard_normal((576, 256))
    table = rng.standard_normal(256)
    codes = rng.integers(0, 256, size=(1024, 576)).astype(np.uint16)
    out = np.empty(codes.shape)
    for _ in range(5):  # fault the pages in and let the core clock up
        np.take(table, codes, out=out)
        acts @ weights
    return {
        "ref_matmul_ms": _median_ms(lambda: acts @ weights),
        "ref_take_ms": _median_ms(lambda: np.take(table, codes, out=out)),
    }


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process, all its threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # Fields after the parenthesised command name; utime and stime are
        # the 14th and 15th fields of the whole line.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_children() -> None:
    """Stop and reap every process this run started.

    A process worker's shared-memory segments start multiprocessing's
    resource tracker, a helper process that would otherwise outlive the
    run until it notices the closed pipe; it is stopped and waited for
    here, after any worker left running is terminated and joined.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def metadata(seed: int, workload: str, trace: bool) -> Dict[str, object]:
    """What every reported number was measured on."""
    return {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "load_avg_1m": os.getloadavg()[0],
    }
