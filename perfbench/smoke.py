"""Smoke test of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json matches the metric tables of run.py; that
every workload emits every metric name with its unit in both modes and
passes its output checks; that recorded references match themselves and
flag a small change; that a deliberately perturbed
output, and a perturbed copy of the package, are caught as failures;
that a missing wrap target marks its metrics absent; and that the
benchmark exits nonzero without a result when the package is missing.
Takes about a minute; writes only under .perfbench-work/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import run
import checks
import inputs
from tracer import Tracer

TINY_ROWS = {"stream-35": 120, "loo-35": 150, "io-100": 150, "large-256": 12}
SEED = 10**6  # no reference is recorded for it; tiny inputs would not match one


def fail(message):
    raise SystemExit(f"smoke: FAILED {message}")


def bench(name, trace):
    args = argparse.Namespace(workload=name, seed=SEED, seconds=0.0, trace=trace)
    lines, _, payload = run.bench(args)
    return lines, payload


def check_metric_names():
    for name in run.WORKLOADS:
        for trace, units in ((0, run.END_TO_END), (1, run.LAYER_METRICS)):
            lines, payload = bench(name, trace)
            if not payload["correct"] or payload["failed"]:
                fail(f"{name} trace {trace} reported failures: {lines}")
            got = {k: v["unit"] for k, v in payload["metrics"].items()}
            if got != units:
                fail(f"{name} trace {trace} metrics {sorted(got)} != {sorted(units)}")
            for key, value in payload["metrics"].items():
                if not isinstance(value["value"], (int, float)):
                    fail(f"{name} {key} is not a number")
            if trace == 0 and any(v["value"] <= 0 for v in payload["metrics"].values()):
                fail(f"{name}: an end-to-end metric is not positive")
            json.dumps(payload)


def check_perturbed_outputs(work):
    """Each per-command check must flag a small change to its output."""
    wl = run.WORKLOADS
    for name in ("stream-35", "loo-35", "io-100"):
        farm = inputs.write_farm(work / name / "in", wl[name].rows, wl[name].cols,
                                 wl[name].t_len, wl[name].rate, SEED)
        specs = run.command_specs(name, farm, SEED, work / name / "out")
        run.run_worker(work / name, "once", specs, "once", 0.0, run.time.monotonic()
                       + run.DEADLINE_S, run.child_env())
        problems, _ = run.check_outputs(name, farm, specs, SEED)
        if any(problems.values()):
            fail(f"{name}: clean outputs flagged: {problems}")
        for spec in specs:
            path = spec["outputs"][0]
            if spec["label"].startswith("evaluate"):
                path = spec["outputs"][1]  # report.json holds the scores
            text = open(path).read()
            if path.endswith(".json"):
                report = json.loads(text)
                report["sensors"][0]["rmse"] *= 1.0 + 1e-6
                text = json.dumps(report)
            else:
                lines = text.splitlines()
                cells = lines[-1].split(",")
                cells[-1] = repr(float(cells[-1]) * (1.0 + 1e-6))
                lines[-1] = ",".join(cells)
                text = "\n".join(lines) + "\n"
            with open(path, "w") as handle:
                handle.write(text)
            problems, _ = run.check_outputs(name, farm, specs, SEED)
            if not problems[spec["label"]]:
                fail(f"{name}: perturbed {os.path.basename(path)} of "
                     f"{spec['label']} passed its check")
    if run.tally_passes(
        [{"codes": {"x": 0}, "digests": {"x": {"f": "a"}}},
         {"codes": {"x": 0}, "digests": {"x": {"f": "b"}}}],
        [{"label": "x"}], set(),
    )[1] != 1:
        fail("a pass whose output digest changed was not counted as failed")


def check_perturbed_program(work):
    """A copy of the package with a changed kernel must fail the run."""
    root = work / "perturbed"
    shutil.copytree(run.ROOT / "src", root / "src")
    kernels = root / "src" / "spectral_imputer" / "kernels.py"
    text = kernels.read_text()
    changed = text.replace("(1.0 - u**2) ** 3,", "(1.0 - u**2) ** 3.001,")
    if changed == text:
        fail("could not perturb the triweight kernel")
    kernels.write_text(changed)
    saved, run.ROOT = run.ROOT, root
    try:
        lines, payload = bench("stream-35", 0)
    finally:
        run.ROOT = saved
    if payload["correct"] or not payload["failed"]:
        fail(f"a perturbed program passed: {lines}")
    if not any("FAILED impute.weighted_graph" in line for line in lines):
        fail(f"the failing command is not named: {lines}")


def check_benchmark_json():
    """BENCHMARK.json lists exactly the workloads and metrics run.py emits."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.LAYER_METRICS)):
        if {m["name"]: m["unit"] for m in spec[key]} != table:
            fail(f"BENCHMARK.json {key} differs from run.py")


def check_references():
    """A recorded reference passes itself and flags a 1e-6 change."""
    refs = run.load_references()
    if not refs:
        fail("perfbench/references.json is missing")
    for name, by_seed in refs.items():
        seed, ref = next(iter(by_seed.items()))
        farm = types.SimpleNamespace(digests=ref["inputs"])
        summaries = json.loads(json.dumps(ref["commands"]))
        if any(run.reference_problems(name, seed, farm, summaries).values()):
            fail(f"{name} seed {seed}: a reference does not match itself")
        label = next(iter(summaries))
        key = next(k for k, v in summaries[label].items() if isinstance(v, (float, list)))
        if isinstance(summaries[label][key], list):
            summaries[label][key][0] *= 1.0 + 1e-6
        else:
            summaries[label][key] *= 1.0 + 1e-6
        if not run.reference_problems(name, seed, farm, summaries)[label]:
            fail(f"{name} seed {seed}: a changed {label}.{key} matched its reference")


def check_absent():
    tracer = Tracer()
    tracer.wrap(types.SimpleNamespace(), "_batched_embedding_distances",
                "evaluation.batched")
    want = ["evaluation.batched_calls", "evaluation.batched_frac",
            "evaluation.batched_rows", "evaluation.batched_self_s"]
    if run.absent_metrics(tracer.absent) != want:
        fail(f"absent metrics {run.absent_metrics(tracer.absent)} != {want}")


def check_bare_directory(work):
    """Without the package the benchmark exits nonzero and prints no result."""
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "io-100", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"bare directory run exited {proc.returncode}: {proc.stdout[-500:]}")


def main():
    for name, rows in TINY_ROWS.items():
        run.WORKLOADS[name] = dataclasses.replace(run.WORKLOADS[name], t_len=rows)
    work = run.ROOT / ".perfbench-work" / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_benchmark_json()
        check_references()
        check_absent()
        check_bare_directory(work)
        check_perturbed_outputs(work)
        check_perturbed_program(work)
        check_metric_names()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke: ok")


if __name__ == "__main__":
    main()
