"""The three benchmark workloads and the measurements they share.

``offline_analog_b64``
    Closed loop of warm 64-row ``BatchRunner.forward`` calls on the README
    quickstart ResNet-lite (widths (8, 16), 16x16 images, 8 classes) over
    the ``analog`` backend with read noise on.  Per-row cost of the exec
    kernels dominates; the serving layer does nothing.
``serve_analog_thread``
    The same model and backend behind a thread-worker ``InferenceService``
    (``max_batch=64``, ``max_wait_ms=2``), driven open loop by evenly
    spaced arrivals at a fixed rate that keeps the worker about a third
    busy, so batches hold one row and per-call fixed cost plus the
    thread-mode service path dominate.
``serve_ideal_process``
    The ``repro.serve.cli.demo_workload`` CNN on the ``ideal`` backend
    behind one process worker over the default shared-memory transport, at
    a fixed Poisson rate.  The forward is cheap, so admission, dispatch,
    transport and the process round trip dominate.

Training the model and synthesising the data are input generation and are
not timed.  Quality and simulated-hardware metrics come from a fixed
reference pass (fresh plan, fixed 64-row batches over a fixed reference
set), so they cannot depend on timing.  ``--seed`` draws the request
stream: batch order, arrival times and which reference image each request
carries.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import functools
import gc
import statistics
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exec import BatchRunner, CompiledMappedLayer, ExecutionContext
from repro.nn import (DatasetConfig, SGD, SyntheticImageDataset, Trainer,
                      build_resnet_lite)
from repro.nn.model import Model
from repro.power.efficiency import energy_per_conversion
from repro.serve import InferenceService, ServeConfig
from repro.serve.cli import demo_workload
from repro.serve.energy import estimate_conversions_per_sample

import hostctl
from openloop import SCHEDULES, OpenLoopResult, run_open_loop
from spans import SpanRecorder

BATCH_ROWS = 64
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Served argmax may trail the offline reference agreement by this much:
#: read noise is drawn per executed batch, and serving batches differ.
SERVED_AGREEMENT_SLACK = 0.05

#: Short layer kinds used in ``exec.layer.<i>.<kind>_ms`` names.
LAYER_KINDS = {"Conv2d": "conv", "BatchNorm2d": "bn", "ReLU": "relu",
               "GlobalAvgPool2d": "gap", "Linear": "linear",
               "ResidualBlock": "block"}


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    name: str
    model: str  # "resnet_lite" or "demo_cnn"
    backend: str
    why: str
    workers: Optional[str] = None  # None: offline closed loop
    rate_rps: float = 0.0
    arrivals: str = "poisson"  # a key of openloop.SCHEDULES

    @property
    def rows_per_call(self) -> int:
        """Rows per forward the workload mostly runs (probe batch size)."""
        return BATCH_ROWS if self.workers is None else 1


WORKLOADS = {
    spec.name: spec for spec in (
        WorkloadSpec(
            "offline_analog_b64", "resnet_lite", "analog",
            "closed loop of warm 64-row analog forwards: per-row cost of the "
            "exec kernels dominates and the serving layer is idle"),
        # Evenly spaced, not Poisson: a Poisson stream at this load puts
        # ~30 % of requests behind a running forward, where the interpreter
        # lock turns small host-speed drift into p50 swings of 9-14 ms
        # between runs of the same code.  Spaced arrivals keep every
        # request on the path this workload isolates.
        WorkloadSpec(
            "serve_analog_thread", "resnet_lite", "analog",
            "thread-worker service, evenly spaced 60 req/s (~35% busy): "
            "1-row analog forwards, so per-call fixed cost and the thread "
            "service path dominate", workers="thread", rate_rps=60.0,
            arrivals="uniform"),
        WorkloadSpec(
            "serve_ideal_process", "demo_cnn", "ideal",
            "one process worker over shm, Poisson 150 req/s: the forward is "
            "cheap, so admission, dispatch, transport and the process round "
            "trip dominate", workers="process", rate_rps=150.0),
    )
}


# ----------------------------------------------------------------------
# Inputs: the program under test plus the fixed reference set
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Inputs:
    model: Model
    context: ExecutionContext
    reference: np.ndarray  # fixed reference images, a multiple of 64 rows


def build_inputs(spec: WorkloadSpec) -> Inputs:
    """Train the workload's model (untimed) and fix its reference set."""
    if spec.model == "resnet_lite":
        dataset = SyntheticImageDataset(DatasetConfig(num_classes=8, image_size=16))
        x_train, y_train, x_test, _ = dataset.train_test_split(800, 400)
        model = build_resnet_lite(num_classes=8, stage_widths=(8, 16),
                                  blocks_per_stage=1)
        Trainer(model, SGD(model.parameters(), learning_rate=0.05)).fit(
            x_train, y_train, epochs=4)
        return Inputs(model, ExecutionContext(calibration=x_train[:32]),
                      x_test[:256])
    model, _, x_test = demo_workload(seed=0)
    return Inputs(model, ExecutionContext(), x_test[:128])


def layer_names(model: Model) -> List[Tuple[object, str]]:
    """``(layer, "exec.layer.<i>.<kind>")`` in execution order."""
    return [(layer, f"exec.layer.{index}."
                    f"{LAYER_KINDS.get(type(layer).__name__, type(layer).__name__.lower())}")
            for index, layer in enumerate(model.modules())]


@functools.cache
def layer_metric_names(spec: WorkloadSpec) -> Tuple[str, ...]:
    """The ``exec.layer.*`` metrics of the workload's model and backend.

    One per layer, plus a ``mapped`` one for each matmul layer when the
    backend runs it on mapped macros (``analog``).
    """
    if spec.model == "resnet_lite":
        model = build_resnet_lite(num_classes=8, stage_widths=(8, 16),
                                  blocks_per_stage=1)
    else:
        model, _, _ = demo_workload(seed=0, train_samples=32, test_samples=1)
    names: List[str] = []
    for layer, name in layer_names(model):
        names.append(name + "_ms")
        if spec.backend == "analog" and layer.is_matmul_layer:
            names.append(name.rsplit(".", 1)[0] + ".mapped_ms")
    return tuple(names)


def all_layer_metric_names() -> Tuple[str, ...]:
    """Every ``exec.layer.*`` metric any workload can emit (for the schema)."""
    names: List[str] = []
    for spec in WORKLOADS.values():
        names.extend(name for name in layer_metric_names(spec) if name not in names)
    return tuple(names)


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
class Run:
    """Metric and gate collector for one benchmark run."""

    def __init__(self, spec: WorkloadSpec, seed: int, seconds: float,
                 trace: bool) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = float(seconds)
        self.trace = trace
        self.rng = np.random.default_rng(seed)
        self.e2e: Dict[str, float] = {}
        self.layer: Dict[str, float] = {}
        self.gates: List[Tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0
        self.recorder = SpanRecorder()
        self.client_records: List[Dict[str, float]] = []
        self.notes: Dict[str, object] = {"rows_per_call": spec.rows_per_call,
                                         "worker_mode": spec.workers or "none",
                                         "rate_rps": spec.rate_rps}

    def gate(self, name: str, passed: bool, detail: str = "") -> None:
        self.gates.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.gates)


def _forward_batches(runner: BatchRunner, images: np.ndarray) -> np.ndarray:
    return np.concatenate([runner.forward(images[start:start + BATCH_ROWS])
                           for start in range(0, images.shape[0], BATCH_ROWS)])


def _warm_plan(spec: WorkloadSpec, inputs: Inputs) -> Tuple[BatchRunner, float]:
    """Build a fresh plan and warm it; returns the runner and the seconds.

    Cold forward at 64 rows, then two warm ones at 64 rows and one at the
    workload's rows per call: every arena slab the timed loop touches is
    sized by the time set-up ends.
    """
    start = time.perf_counter()
    runner = BatchRunner(inputs.model, spec.backend, context=inputs.context)
    head = inputs.reference[:BATCH_ROWS]
    for _ in range(3):
        runner.forward(head)
    runner.forward(inputs.reference[:spec.rows_per_call])
    return runner, time.perf_counter() - start


def reference_pass(run: Run, inputs: Inputs, plans: int
                   ) -> Tuple[Dict[str, object], BatchRunner, List[float]]:
    """Fixed reference: ideal logits, and ``plans`` fresh backend plans.

    Every fresh plan is warmed identically and then runs the reference set
    in fixed 64-row batches; the gates require identical logits and
    conversion counts across plans.  Returns the reference record, the last
    (warm) runner, and each plan's set-up seconds.
    """
    spec = run.spec
    with BatchRunner(inputs.model, "ideal") as ideal:
        ideal_logits = _forward_batches(ideal, inputs.reference)
    outcomes, setups = [], []
    runner: Optional[BatchRunner] = None
    for _ in range(plans):
        if runner is not None:
            runner.close()
            runner = None
            gc.collect()
        runner, seconds = _warm_plan(spec, inputs)
        setups.append(seconds)
        before = runner.conversions()
        logits = _forward_batches(runner, inputs.reference)
        outcomes.append((logits, runner.conversions() - before))
    first_logits, first_conversions = outcomes[0]
    run.gate("fresh plans give bit-identical reference logits",
             all(np.array_equal(first_logits, logits) for logits, _ in outcomes),
             f"{plans} plans")
    run.gate("fresh plans spend equal conversions",
             len({conversions for _, conversions in outcomes}) == 1,
             str([conversions for _, conversions in outcomes]))
    rows = inputs.reference.shape[0]
    if spec.backend == "analog":
        conversions_per_row = first_conversions / rows
    else:
        # Digital backends convert nothing; charge what the same traffic
        # would cost on the macro (mapping-geometry estimate).
        conversions_per_row = float(estimate_conversions_per_sample(
            inputs.model, inputs.reference[:1], inputs.context.macro_config,
            inputs.context.max_mapped_layers))
    agree = float(np.mean(first_logits.argmax(axis=1) == ideal_logits.argmax(axis=1)))
    run.gate("reference logits are finite", bool(np.all(np.isfinite(first_logits))))
    energy_j = energy_per_conversion(inputs.context.macro_config)
    run.e2e["top1_agree_frac"] = agree
    run.e2e["sim_energy_uj_per_row"] = conversions_per_row * energy_j * 1e6
    run.layer["exec.conversions_per_row"] = conversions_per_row
    run.layer["power.energy_per_conversion_pj"] = energy_j * 1e12
    reference = {"ideal_logits": ideal_logits, "agree": agree}
    return reference, runner, setups


# ----------------------------------------------------------------------
# exec probe (traced runs): build, cold/warm forwards, stages, layers
# ----------------------------------------------------------------------
def exec_probe(run: Run, inputs: Inputs) -> None:
    """Per-layer exec numbers from a plan of the benchmark's own."""
    spec = run.spec
    head = inputs.reference[:BATCH_ROWS]
    one = inputs.reference[:1]
    probe = inputs.reference[:spec.rows_per_call]
    start = time.perf_counter()
    runner = BatchRunner(inputs.model, spec.backend, context=inputs.context)
    run.layer["exec.build_s"] = time.perf_counter() - start
    try:
        start = time.perf_counter()
        runner.forward(probe)
        run.layer["exec.cold_forward_ms"] = (time.perf_counter() - start) * 1e3
        for _ in range(2):
            runner.forward(head)
            runner.forward(one)
        t1, t64 = [], []
        budget = time.perf_counter() + max(min(run.seconds / 4, 5.0), 0.5)
        while len(t64) < 5 or (time.perf_counter() < budget and len(t64) < 40):
            for images, samples in ((one, t1), (head, t64)):
                tick = time.perf_counter()
                runner.forward(images)
                samples.append(time.perf_counter() - tick)
        fwd1, fwd64 = statistics.median(t1) * 1e3, statistics.median(t64) * 1e3
        run.layer["exec.fwd_ms_b1"] = fwd1
        run.layer["exec.fwd_ms_b64"] = fwd64
        run.layer["exec.marginal_ms_per_row"] = (fwd64 - fwd1) / (BATCH_ROWS - 1)
        run.layer["exec.fixed_ms_per_call"] = fwd1 - run.layer["exec.marginal_ms_per_row"]

        calls = 10 if spec.rows_per_call == BATCH_ROWS else 40
        before = runner.stage_profile()
        for _ in range(calls):
            runner.forward(probe)
        after = runner.stage_profile()
        rows = calls * spec.rows_per_call
        for stage in ("dac", "crossbar", "adc", "digital"):
            key = f"{stage}_s"
            run.layer[f"exec.{stage}_ms_per_row"] = (after[key] - before[key]) * 1e3 / rows

        recorder = SpanRecorder()
        with recorder.installed(*_exec_targets(runner, inputs.model)):
            for _ in range(calls):
                runner.forward(probe)
        _layer_self_times(run, recorder)
        run.recorder.spans.extend(recorder.spans)
    finally:
        runner.close()


def _exec_targets(runner: BatchRunner, model: Model):
    """Span wrappers for one forward: the call, each layer, mapped crossbars."""
    instance = [(runner, "forward", "forward")] + [
        (layer, "forward", name) for layer, name in layer_names(model)]
    classes = [(CompiledMappedLayer, "forward", "mapped"),
               (CompiledMappedLayer, "forward_coded", "mapped")]
    return instance, classes


def _layer_self_times(run: Run, recorder: SpanRecorder) -> None:
    """Median per-forward self time of every layer, and their coverage."""
    names = {span_id: name for span_id, _, name, _, _ in recorder.spans}
    parents = {span_id: parent for span_id, parent, _, _, _ in recorder.spans}
    own = recorder.self_times()
    per_layer: Dict[str, List[float]] = {}
    coverage = []
    for root_id, start, end in recorder.named("forward"):
        totals: Dict[str, float] = {}
        for span_id in recorder.descendants(root_id):
            name = names[span_id]
            if name == "mapped":
                # Crossbar work of a mapped layer, charged to that layer.
                name = names[parents[span_id]].rsplit(".", 1)[0] + ".mapped"
            totals[name] = totals.get(name, 0.0) + own[span_id]
        for name, seconds in totals.items():
            per_layer.setdefault(name, []).append(seconds)
        coverage.append(sum(totals.values()) / (end - start))
    for name, samples in per_layer.items():
        run.layer[name + "_ms"] = statistics.median(samples) * 1e3
    run.layer["exec.layer_coverage_frac"] = statistics.median(coverage)


# ----------------------------------------------------------------------
# offline_analog_b64
# ----------------------------------------------------------------------
def run_offline(run: Run, inputs: Inputs) -> None:
    reference, runner, setups = reference_pass(run, inputs, plans=SETUP_REPEATS)
    run.e2e["setup_s"] = statistics.median(setups)
    if run.trace:
        runner.close()
        exec_probe(run, inputs)
        runner, _ = _warm_plan(run.spec, inputs)
    ideal_top1 = reference["ideal_logits"].argmax(axis=1)
    rows = inputs.reference.shape[0]
    try:
        phases = [(run.seconds / 2, False), (run.seconds / 2, True)] if run.trace \
            else [(run.seconds, False)]
        outcomes = []
        for seconds, traced in phases:
            targets = _exec_targets(runner, inputs.model) if traced else ([], [])
            with run.recorder.installed(*targets):
                outcomes.append(_closed_loop(run, runner, inputs.reference,
                                             ideal_top1, seconds))
    finally:
        runner.close()
    batch_s = [t for times, _, _, _ in outcomes for t in times]
    cpu_s = sum(cpu for _, cpu, _, _ in outcomes)
    agree = sum(a for _, _, a, _ in outcomes) / sum(n for _, _, _, n in outcomes)
    run.attempted = len(batch_s)
    run.e2e["rows_per_s"] = BATCH_ROWS / statistics.median(batch_s)
    run.e2e["latency_p50_ms"] = statistics.median(batch_s) * 1e3
    run.e2e["cpu_ms_per_row"] = cpu_s * 1e3 / (len(batch_s) * BATCH_ROWS)
    run.gate("timed-loop argmax tracks the ideal reference",
             agree >= reference["agree"] - SERVED_AGREEMENT_SLACK,
             f"{agree:.4f} vs reference {reference['agree']:.4f} over {rows}-row set")
    run.layer["client.sent"] = float(len(batch_s))
    run.layer["client.ok"] = float(len(batch_s))
    run.layer["client.failed"] = 0.0
    run.layer["client.latency_p99_ms"] = float(np.percentile(batch_s, 99) * 1e3)
    if run.trace:
        untraced = BATCH_ROWS / statistics.median(outcomes[0][0])
        traced = BATCH_ROWS / statistics.median(outcomes[1][0])
        run.layer["trace.overhead_frac"] = untraced / traced - 1.0


def _closed_loop(run: Run, runner: BatchRunner, images: np.ndarray,
                 ideal_top1: np.ndarray, seconds: float):
    """Warm 64-row forwards over seeded batch orders for ``seconds``."""
    times: List[float] = []
    agree = total = 0
    finite = True
    cpu0 = hostctl.cpu_seconds()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not times:
        order = run.rng.permutation(images.shape[0])
        for start in range(0, order.size, BATCH_ROWS):
            rows = order[start:start + BATCH_ROWS]
            batch = images[rows]
            tick = time.perf_counter()
            logits = runner.forward(batch)
            times.append(time.perf_counter() - tick)
            finite = finite and bool(np.all(np.isfinite(logits)))
            agree += int(np.count_nonzero(logits.argmax(axis=1) == ideal_top1[rows]))
            total += rows.size
            if time.perf_counter() >= deadline:
                break
    cpu = hostctl.cpu_seconds() - cpu0
    if not finite:
        run.gate("timed-loop logits are finite", False)
    return times, cpu, agree, total


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
def run_serve(run: Run, inputs: Inputs) -> None:
    reference, runner, _ = reference_pass(run, inputs, plans=2)
    runner.close()
    if run.trace:
        exec_probe(run, inputs)
    asyncio.run(_serve(run, inputs, reference))


async def _start_warm(spec: WorkloadSpec, inputs: Inputs
                      ) -> Tuple[InferenceService, float, float]:
    """Start a service and warm it; returns it, set-up s and start() s."""
    service = InferenceService(inputs.model, ServeConfig(
        backend=spec.backend, max_batch=BATCH_ROWS, max_wait_ms=2.0,
        workers=spec.workers, context=inputs.context))
    begin = time.perf_counter()
    await service.start()
    started = time.perf_counter() - begin
    images = inputs.reference
    # A 16-request burst sizes the arenas for multi-row batches; the
    # singles warm the 1-row path the traffic mostly takes.
    await asyncio.gather(*[service.submit(images[i]) for i in range(16)])
    for i in range(8):
        await service.submit(images[i])
    return service, time.perf_counter() - begin, started


async def _serve(run: Run, inputs: Inputs, reference: Dict[str, object]) -> None:
    spec = run.spec
    # One thread behind ``asyncio.to_thread``: the thread worker's forwards
    # (and the service's other blocking calls) always land on the same
    # thread, so the load comes from at most one worker thread and memory
    # does not spread over as many malloc arenas as the pool has threads.
    asyncio.get_running_loop().set_default_executor(
        concurrent.futures.ThreadPoolExecutor(max_workers=1,
                                              thread_name_prefix="perfbench"))
    setups, starts = [], []
    for _ in range(SETUP_REPEATS - 1):
        service, setup_s, start_s = await _start_warm(spec, inputs)
        setups.append(setup_s)
        starts.append(start_s)
        await service.stop()
        # Free the stopped replica now, not at some later collection, so
        # peak RSS does not depend on when the cyclic collector runs.
        del service
        gc.collect()
    service, setup_s, start_s = await _start_warm(spec, inputs)
    setups.append(setup_s)
    starts.append(start_s)
    run.e2e["setup_s"] = statistics.median(setups)
    run.layer["serve.start_s"] = statistics.median(starts)

    metrics = service.metrics
    mark_latency = len(metrics.latencies_s)
    mark_depth = len(metrics.queue_depths)
    snap0 = service.metrics_snapshot()
    profile0 = (await service.stage_profiles())[0]
    worker0, pids0 = await _worker_cpu(service, spec)
    parent0 = hostctl.cpu_seconds()
    results: List[Tuple[OpenLoopResult, np.ndarray]] = []
    stopped = False
    try:
        phases = [(run.seconds / 2, False), (run.seconds / 2, True)] if run.trace \
            else [(run.seconds, False)]
        for seconds, traced in phases:
            schedule = SCHEDULES[spec.arrivals](spec.rate_rps, seconds, run.rng)
            picks = run.rng.integers(0, inputs.reference.shape[0], size=schedule.size)
            targets = [(BatchRunner, "forward", "serve.forward"),
                       (InferenceService, "submit_nowait", "serve.submit")] if traced else []
            with run.recorder.installed(class_targets=targets):
                outcome = await run_open_loop(
                    lambda i, p=picks: service.submit_nowait(inputs.reference[p[i]]),
                    schedule)
            results.append((outcome, picks))
        profile1 = (await service.stage_profiles())[0]
        snap1 = service.metrics_snapshot()
        # CPU is read before stop(), so neither the worker's start-up and
        # warm-up nor the shutdown is charged to the rows.
        worker1, pids1 = await _worker_cpu(service, spec)
        self1 = hostctl.cpu_seconds()
        await service.stop()
        stopped = True
    finally:
        if not stopped:
            await service.stop()
    same_worker = pids1 == pids0 and (bool(pids0) or spec.workers == "thread")
    run.gate("one worker served the whole run", same_worker,
             f"worker pids {pids0} then {pids1}")
    worker_cpu = worker1 - worker0 if same_worker else 0.0
    # A thread worker's CPU is part of this process's own.
    parent_cpu = self1 - parent0 - (worker_cpu if spec.workers == "thread" else 0.0)
    _serve_metrics(run, inputs, reference, results, snap0, snap1, profile0,
                   profile1, metrics.latencies_s[mark_latency:],
                   metrics.queue_depths[mark_depth:], parent_cpu, worker_cpu)


async def _worker_cpu(service: InferenceService, spec: WorkloadSpec
                      ) -> Tuple[float, Tuple[int, ...]]:
    """CPU seconds the service's worker has used so far, and its pids.

    A thread worker runs its forwards on the loop's one default-executor
    thread, whose own CPU clock is read there; a process worker is read
    from ``/proc``.
    """
    if spec.workers == "thread":
        return await asyncio.to_thread(time.thread_time), ()
    pids = tuple(sorted(pid for group in service.process_worker_pids().values()
                        for pid in group))
    return sum(hostctl.process_cpu_seconds(pid) for pid in pids), pids


def _serve_metrics(run, inputs, reference, results, snap0, snap1, profile0,
                   profile1, service_latencies, queue_depths, parent_cpu,
                   worker_cpu) -> None:
    spec = run.spec
    sent = sum(outcome.sent for outcome, _ in results)
    failed = sum(outcome.failed for outcome, _ in results)
    ok_rows = sent - failed
    run.attempted, run.failed = sent, failed
    latency = np.concatenate([outcome.latency_ms() for outcome, _ in results])
    lag = np.concatenate([outcome.lag_ms() for outcome, _ in results])
    run.e2e["latency_p50_ms"] = float(np.median(latency)) if latency.size else float("nan")
    first_due = min(outcome.due[0] for outcome, _ in results)
    last_done = max(np.nanmax(outcome.done) for outcome, _ in results)
    run.e2e["rows_per_s"] = ok_rows / (last_done - first_due)
    run.e2e["cpu_ms_per_row"] = (parent_cpu + worker_cpu) * 1e3 / max(ok_rows, 1)

    # -- gates ------------------------------------------------------------
    resolutions = np.concatenate([o.resolutions for o, _ in results])
    refused = np.concatenate([o.refused for o, _ in results])
    run.gate("every admitted request resolves exactly once",
             bool(np.all(resolutions[~refused] == 1) and np.all(resolutions[refused] == 0)),
             f"{int(np.count_nonzero(resolutions[~refused] != 1))} bad of {sent}")
    served = snap1.requests - snap0.requests
    run.gate("service counted every completed request", served == ok_rows,
             f"service {served} vs client {ok_rows}")
    ideal_logits = reference["ideal_logits"]
    agree = total = 0
    exact = True
    for outcome, picks in results:
        for index in np.flatnonzero(outcome.ok):
            logits = np.asarray(outcome.results[index])
            want = ideal_logits[picks[index]]
            agree += int(logits.argmax() == want.argmax())
            total += 1
            if spec.backend == "ideal":
                exact = exact and bool(np.allclose(logits, want, rtol=1e-9, atol=1e-12))
    served_agree = agree / max(total, 1)
    if spec.backend == "ideal":
        run.gate("served logits equal the offline ideal reference",
                 exact and agree == total, f"{agree}/{total} argmax equal")
    else:
        run.gate("served argmax tracks the ideal reference",
                 served_agree >= reference["agree"] - SERVED_AGREEMENT_SLACK,
                 f"{served_agree:.4f} vs reference {reference['agree']:.4f}")
    batches = snap1.batches - snap0.batches
    batch_rows = (snap1.samples - snap0.samples) / max(batches, 1)
    run.notes.update({"served_top1_agree_frac": served_agree,
                      "batch_rows_mean": batch_rows,
                      "client_lag_p99_ms": float(np.percentile(lag, 99)),
                      "errors": [e for o, _ in results for e in o.errors][:10]})

    # -- per-layer --------------------------------------------------------
    forwards = profile1["forwards"] - profile0["forwards"]
    worker = snap1.workers[0]
    transport = worker.transport_s - snap0.workers[0].transport_s
    forward_s = profile1["total_s"] - profile0["total_s"]
    spans = [end - start for _, _, name, start, end in run.recorder.spans
             if name == "serve.forward"]
    if spec.workers == "thread" and spans:
        run.layer["serve.forward_ms_per_batch"] = statistics.fmean(spans) * 1e3
    else:
        run.layer["serve.forward_ms_per_batch"] = forward_s * 1e3 / max(forwards, 1)
    run.layer.update({
        "serve.batches": float(batches),
        "serve.batch_rows_mean": batch_rows,
        "serve.queue_depth_mean": float(np.mean(queue_depths)) if queue_depths else 0.0,
        "serve.transport_ms_per_batch": transport * 1e3 / max(batches, 1),
        "serve.submit_to_done_ms_p50": float(np.median(service_latencies) * 1e3)
        if len(service_latencies) else 0.0,
        "serve.cpu_ms_per_row.parent": parent_cpu * 1e3 / max(ok_rows, 1),
        "serve.cpu_ms_per_row.workers": worker_cpu * 1e3 / max(ok_rows, 1),
        "serve.worker_deaths": float(snap1.worker_deaths),
        "serve.retried_batches": float(snap1.retried_batches),
        "client.sent": float(sent),
        "client.ok": float(ok_rows),
        "client.failed": float(failed),
        "client.lag_p99_ms": float(np.percentile(lag, 99)),
        "client.lag_max_ms": float(np.max(lag)),
        "client.latency_p99_ms": float(np.percentile(latency, 99)) if latency.size else 0.0,
    })
    if run.trace:
        untraced = float(np.median(results[0][0].latency_ms()))
        traced = float(np.median(results[1][0].latency_ms()))
        run.layer["trace.overhead_frac"] = traced / untraced - 1.0
    for outcome, _ in results:
        run.client_records.extend(
            {"due_ms": (d - first_due) * 1e3, "submitted_ms": (s - first_due) * 1e3,
             "done_ms": (e - first_due) * 1e3}
            for d, s, e in zip(outcome.due, outcome.submitted, outcome.done))


def run_workload(run: Run) -> None:
    """Generate inputs, then measure the workload into ``run``."""
    inputs = build_inputs(run.spec)
    if run.spec.workers is None:
        run_offline(run, inputs)
    else:
        run_serve(run, inputs)
