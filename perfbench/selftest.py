"""Reduced-length self-test of the benchmark itself (``run.py --self-test``).

For every workload it runs, as subprocesses of the same interpreter: two
untraced runs on one seed, one untraced run on a held-out seed and two
traced runs on the first seed.  It checks that

* ``BENCHMARK.json`` matches the schema the code reports;
* every run exits 0 with ``correct: true`` and a last stdout line holding
  exactly ``correct``, ``attempted``, ``failed`` and ``metrics``;
* every named metric is emitted with its unit and finite; every
  end-to-end metric, and every per-layer metric that applies to the
  workload (``schema.applicable``), is never 0, except the counts a clean
  run keeps at 0, which must read 0;
* the deterministic metrics repeat exactly across the two same-seed runs,
  and ``exec.conversions_per_row`` ties to ``sim_energy_uj_per_row``;
* a copy holding only ``BENCHMARK.json`` and the benchmark directory exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Set

import schema
from workloads import WORKLOADS

SECONDS = "1.5"
SEED, HELD_OUT_SEED = 7, 1009
#: Metrics that must repeat exactly on one seed: name -> the only workload
#: it is checked on (None: every workload).
DETERMINISTIC = {"sim_energy_uj_per_row": None,
                 "exec.conversions_per_row": None,
                 "top1_agree_frac": "offline_analog_b64"}


def _run(script: str, cwd: str, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc, label: str, problems: List[str]) -> Dict:
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
        return {}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append(f"{label}: last stdout line is not JSON")
        return {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correct is {result.get('correct')!r}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted {result.get('attempted')!r}")
    return result


def _check_metrics(result: Dict, declared: List[Dict], label: str,
                   nonzero: Set[str], zero: Set[str], problems: List[str]) -> None:
    metrics = result.get("metrics", {})
    expected = {entry["name"]: entry["unit"] for entry in declared}
    if set(metrics) != set(expected):
        problems.append(f"{label}: metric names differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, metric in metrics.items():
        if metric.get("unit") != expected.get(name):
            problems.append(f"{label}: {name} unit {metric.get('unit')!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")
        elif name in nonzero and value == 0:
            problems.append(f"{label}: {name} is 0")
        elif name in zero and value != 0:
            problems.append(f"{label}: {name} is {value}, not 0")


def _bare_copy_fails(root: str, script: str, problems: List[str]) -> None:
    """A directory with only BENCHMARK.json and the benchmark must fail."""
    bare = os.path.join(root, ".perfbench-out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    bench_dir = os.path.dirname(script)
    shutil.copytree(bench_dir, os.path.join(bare, os.path.basename(bench_dir)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    try:
        proc = _run(os.path.join(bare, os.path.basename(bench_dir),
                                 os.path.basename(script)),
                    bare, "offline_analog_b64", SEED, 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            problems.append("bare copy: expected a non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(expected_json: Dict, script: str) -> int:
    root = os.path.dirname(os.path.dirname(script))
    problems: List[str] = []
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        problems.append("BENCHMARK.json missing at the repository root")
    else:
        with open(path, encoding="utf-8") as handle:
            if json.load(handle) != expected_json:
                problems.append("BENCHMARK.json differs from run.py --print-schema")
    e2e = {metric["name"] for metric in expected_json["end_to_end"]}
    for entry in expected_json["workloads"]:
        workload = entry["name"]
        layer = set(schema.applicable(WORKLOADS[workload]))
        zero = layer & set(schema.ZERO_ON_CLEAN_RUN)
        runs = {}
        for label, seed, trace in (("a", SEED, 0), ("a2", SEED, 0),
                                   ("held-out", HELD_OUT_SEED, 0),
                                   ("traced", SEED, 1), ("traced2", SEED, 1)):
            tag = f"{workload}/{label}"
            result = _result(_run(script, root, workload, seed, trace), tag, problems)
            if result:
                _check_metrics(result, expected_json["per_layer" if trace else "end_to_end"],
                               tag, nonzero=layer - zero if trace else e2e,
                               zero=zero if trace else set(), problems=problems)
            runs[label] = result.get("metrics", {})
            print(f"self-test {tag}: {'ok' if result.get('correct') else 'FAILED'}",
                  flush=True)
        for name, only in DETERMINISTIC.items():
            if only not in (None, workload):
                continue
            first_run, second_run = (("traced", "traced2") if name.startswith("exec.")
                                     else ("a", "a2"))
            first = runs[first_run].get(name, {}).get("value")
            second = runs[second_run].get(name, {}).get("value")
            if first is None or first != second:
                problems.append(f"{workload}: {name} not repeatable: {first} vs {second}")
        traced = runs["traced"]
        if traced and runs["a"]:
            tied = (traced["exec.conversions_per_row"]["value"]
                    * traced["power.energy_per_conversion_pj"]["value"] * 1e-6)
            if not math.isclose(tied, runs["a"]["sim_energy_uj_per_row"]["value"],
                                rel_tol=1e-9):
                problems.append(f"{workload}: conversions_per_row does not tie "
                                "to sim_energy_uj_per_row")
    _bare_copy_fails(root, script, problems)
    for problem in problems:
        print(f"self-test problem: {problem}")
    print("self-test " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 0 if not problems else 1
