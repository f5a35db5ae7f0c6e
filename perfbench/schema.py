"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` at the repository root lists the same names; the
self-test (``run.py --self-test``) fails if the two drift apart.  Untraced
runs report :data:`END_TO_END`, traced runs :func:`per_layer`.  Each
workload measures the per-layer metrics :func:`applicable` lists for it; a
traced run that misses one fails, and only the metrics that do not apply
(serving counters on the offline loop, analog stages on the ``ideal``
backend, layers of the other workload's model) read 0.
"""

from __future__ import annotations

from typing import List, Tuple

from workloads import WorkloadSpec, all_layer_metric_names, layer_metric_names

#: (name, unit, better, bound) — bound is the allowed worsening, as a share
#: of the parent's median, before a change counts as a regression.  Timing
#: bounds are wide because a 2-core shared host moves run-level CPU speed by
#: up to ~15 %; the reference-pass metrics repeat exactly.  ``setup_s``
#: keeps the largest bound: it is timed a few times per run, not over one.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("rows_per_s", "1/s", "higher", 0.2),
    ("cpu_ms_per_row", "ms", "lower", 0.24),
    ("latency_p50_ms", "ms", "lower", 0.24),
    ("top1_agree_frac", "frac", "higher", 0.01),
    ("sim_energy_uj_per_row", "uJ", "lower", 0.01),
]

_EXEC = [
    ("exec.build_s", "s", "lower"),
    ("exec.cold_forward_ms", "ms", "lower"),
    ("exec.fwd_ms_b1", "ms", "lower"),
    ("exec.fwd_ms_b64", "ms", "lower"),
    ("exec.fixed_ms_per_call", "ms", "lower"),
    ("exec.marginal_ms_per_row", "ms", "lower"),
    ("exec.dac_ms_per_row", "ms", "lower"),
    ("exec.crossbar_ms_per_row", "ms", "lower"),
    ("exec.adc_ms_per_row", "ms", "lower"),
    ("exec.digital_ms_per_row", "ms", "lower"),
]

# After the per-layer ``exec.layer.*`` names.
_EXEC_TOTALS = [
    ("exec.layer_coverage_frac", "frac", "higher"),
    ("exec.conversions_per_row", "count", "lower"),
    ("power.energy_per_conversion_pj", "pJ", "lower"),
]

_SERVE = [
    ("serve.start_s", "s", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.batch_rows_mean", "rows", "higher"),
    ("serve.queue_depth_mean", "count", "lower"),
    ("serve.forward_ms_per_batch", "ms", "lower"),
    ("serve.transport_ms_per_batch", "ms", "lower"),
    ("serve.submit_to_done_ms_p50", "ms", "lower"),
    ("serve.cpu_ms_per_row.parent", "ms", "lower"),
    ("serve.cpu_ms_per_row.workers", "ms", "lower"),
    ("serve.worker_deaths", "count", "lower"),
    ("serve.retried_batches", "count", "lower"),
    ("client.lag_p99_ms", "ms", "lower"),
    ("client.lag_max_ms", "ms", "lower"),
    ("client.latency_p99_ms", "ms", "lower"),
    ("client.sent", "count", "higher"),
    ("client.ok", "count", "higher"),
    ("client.failed", "count", "lower"),
    ("host.ref_matmul_ms", "ms", "lower"),
    ("host.ref_take_ms", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


#: Analog datapath stages; the ``ideal`` backend has none of them.
_ANALOG_STAGES = ("exec.dac_ms_per_row", "exec.crossbar_ms_per_row",
                  "exec.adc_ms_per_row")

#: Counts a clean run keeps at 0, though they apply.
ZERO_ON_CLEAN_RUN = ("serve.worker_deaths", "serve.retried_batches",
                     "client.failed")


def applicable(spec: WorkloadSpec) -> List[str]:
    """Per-layer metrics that ``spec`` measures in a traced run."""
    analog = spec.backend == "analog"
    names = [name for name, _, _ in _EXEC if analog or name not in _ANALOG_STAGES]
    names += layer_metric_names(spec)
    names += [name for name, _, _ in _EXEC_TOTALS]
    for name, _, _ in _SERVE:
        serving_only = name.startswith(("serve.", "client.lag_"))
        if name == "serve.transport_ms_per_batch":
            # Only a process worker has a transport.
            applies = spec.workers == "process"
        else:
            applies = spec.workers is not None or not serving_only
        if applies:
            names.append(name)
    return names


def per_layer() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    layers = [(name, "ms", "lower") for name in all_layer_metric_names()]
    return _EXEC + layers + _EXEC_TOTALS + _SERVE


def units() -> dict:
    """Unit of every metric name."""
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update({name: unit for name, unit, _ in per_layer()})
    return table
