#!/usr/bin/env python3
"""Benchmark of the AFPR-CIM simulator: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload offline_analog_b64 --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test        # reduced-length check
    python3 perfbench/run.py --print-schema     # regenerate BENCHMARK.json

Workloads: ``offline_analog_b64``, ``serve_analog_thread``,
``serve_ideal_process`` (see ``workloads.py``).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is a separate run that installs span
wrappers and reports the per-layer metrics.  The report is printed for a
reader, then the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Run metadata, the
host-speed controls, every gate and (traced) every span go to
``.perfbench-out/<workload>-seed<n>-trace<t>.json``.  A failed correctness
gate prints ``"correct": false`` and exits 1; a run that cannot start
(no ``src/repro`` beside this directory) exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
RUN_SECONDS = 20

# Pin BLAS before numpy loads: one thread, so the load comes from one
# process with at most one worker process or thread.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--print-schema", action="store_true")
    return parser.parse_args(argv)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` contents, generated from the code's schema."""
    import schema
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": spec.name, "why": spec.why}
                      for spec in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, unit, better, bound in schema.END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in schema.per_layer()],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import hostctl
    import schema
    from workloads import WORKLOADS, Run, run_workload

    run = Run(WORKLOADS[workload], seed, seconds, trace)
    meta = hostctl.metadata(seed, workload, trace)
    meta["host_controls_start"] = hostctl.control_kernels()
    run_workload(run)
    meta["host_controls_end"] = hostctl.control_kernels()
    run.e2e["peak_rss_mb"] = hostctl.peak_rss_mb()
    for key in ("ref_matmul_ms", "ref_take_ms"):
        run.layer["host." + key] = (meta["host_controls_start"][key]
                                    + meta["host_controls_end"][key]) / 2
    meta.update(run.notes)
    meta["warm"] = True

    units = schema.units()
    if trace:
        names = [name for name, _, _ in schema.per_layer()]
        unknown = sorted(set(run.layer) - set(names))
        if unknown:
            raise SystemExit(f"per-layer metrics missing from the schema: {unknown}")
        unmeasured = [name for name in schema.applicable(run.spec)
                      if name not in run.layer]
        if unmeasured:
            raise SystemExit(f"per-layer metrics not measured: {unmeasured}")
        # Only the metrics that do not apply to this workload read 0.
        values = {name: run.layer.get(name, 0.0) for name in names}
    else:
        values = {name: run.e2e[name] for name, _, _, _ in schema.END_TO_END}
    metrics = {name: {"value": float(value), "unit": units[name]}
               for name, value in values.items()}

    print(f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    for key in ("nproc", "affinity_cpus", "python", "numpy", "load_avg_1m",
                "rows_per_call", "worker_mode", "rate_rps"):
        print(f"  {key:<16} {meta[key]}")
    print(f"  {'blas threads':<16} {meta['blas_threads']['OPENBLAS_NUM_THREADS']}")
    for when in ("start", "end"):
        controls = meta[f"host_controls_{when}"]
        print(f"  host {when:<11} matmul {controls['ref_matmul_ms']:.3f} ms, "
              f"take {controls['ref_take_ms']:.3f} ms")
    for name, gate_ok, detail in run.gates:
        print(f"  gate {'ok  ' if gate_ok else 'FAIL'} {name}  {detail}")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "metrics": metrics,
                   "gates": [{"name": n, "ok": ok, "detail": d}
                             for n, ok, d in run.gates],
                   "client": run.client_records}, handle)
    if trace:
        run.recorder.dump(path[:-len(".json")] + "-spans.json")

    print(json.dumps({"correct": run.correct, "attempted": int(run.attempted),
                      "failed": int(run.failed), "metrics": metrics}))
    return 0 if run.correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources at {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.print_schema:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if args.self_test:
        import selftest
        return selftest.main(benchmark_json(), os.path.abspath(__file__))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        import hostctl
        hostctl.stop_children()


if __name__ == "__main__":
    sys.exit(main())
