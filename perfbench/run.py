"""The repository benchmark: seeded CLI workloads, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository (the package is imported from its
`src/`).  One run:

1. writes the workload's inputs from the seed (inputs.py) and records
   their digests;
2. with --trace 0, times `setup_s`: the median wall time of
   SETUP_RUNS fresh `python -m spectral_imputer.cli graph --propose king`
   processes on the workload's layout;
3. starts one worker process (worker.py) that runs the workload's CLI
   commands in-process through `spectral_imputer.cli.main`, one after
   another (a closed loop with one client), for --seconds including an
   untimed warm-up pass.  --trace 1 alternates untraced and traced passes instead, and a
   second worker with OPENBLAS_NUM_THREADS=1 gives the serial baseline;
4. checks every output (checks.py) against independent oracles, against
   the warm-up pass byte for byte, and, for seeds in references.json,
   against values recorded from an earlier commit;
5. prints readable lines, then one JSON line: {correct, attempted,
   failed, metrics}.  --trace 0 reports the end-to-end metrics, --trace 1
   the per-layer ones.  The same record, with the machine description,
   goes to .perfbench-out/.

End-to-end metrics (every workload):
  setup_s      median fresh-process `graph --propose king` time
  command_s    median over passes of the summed wall time of the
               workload's commands, run in-process with warm imports
  peak_rss_mb  peak resident set of the worker process
  quality_rmse RMSE of the imputed cells against the generator's truth,
               in normalized units, or on loo-35 the weighted_graph
               report's mean_rmse; fixed by the seed, so it moves only
               when results change
Per-layer metrics come from the traced passes; see LAYER_METRICS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

ROOT = HERE.parent
SETUP_RUNS = 9
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    """A grid farm of rows x cols sensors, a panel of t_len rows with MCAR
    holes at `rate`, and the CLI commands timed on it, by label."""

    rows: int
    cols: int
    t_len: int
    rate: float
    commands: tuple[str, ...]
    setup: str = "complete"  # leave-one-out setup of evaluate commands
    oracle_rows: int | None = None  # weighted fills re-derived; None: all rows


# Sizes keep one pass between one and two seconds.
WORKLOADS = {
    "stream-35": Workload(5, 7, 2000, 0.05, ("impute.weighted_graph", "regret")),
    "loo-35": Workload(
        5, 7, 500, 0.02,
        ("evaluate.naive", "evaluate.location", "evaluate.unweighted_graph",
         "evaluate.weighted_graph"),
    ),
    "io-100": Workload(
        10, 10, 1200, 0.05, ("simulate", "impute.naive", "evaluate.location"),
        setup="incomplete",
    ),
    "large-256": Workload(16, 16, 250, 0.02, ("impute.weighted_graph",), oracle_rows=40),
}
# The evaluate report whose mean_rmse is the quality of a workload
# without an impute command.
QUALITY_EVAL = {"loo-35": "eval_rmse.weighted_graph"}

GRAPH_METHODS = ("unweighted_graph", "weighted_graph")

# Span name -> per-layer metric holding its summed self time.
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "io.parse": "io.parse_s",
    "io.format": "io.format_s",
    "io.write": "io.write_s",
    "graph.build": "graph.build_s",
    "online.update": "online.update_s",
    "online.track": "online.track_s",
    "online.prefix_best": "online.prefix_best_s",
    "spectral.eigh": "spectral.eigh_s",
    "spectral.eigsh": "spectral.eigsh_s",
    "spectral.route": "spectral.route_s",
    "spectral.embed": "spectral.embed_s",
    "kernels": "kernels.s",
    "estimators.impute_row": "estimators.impute_row_self_s",
    "estimators.impute": "estimators.impute_self_s",
    "evaluation.loo": "evaluation.loo_self_s",
    "evaluation.batched": "evaluation.batched_self_s",
    "evaluation.simulate": "evaluation.simulate_s",
}
COUNT_METRICS = {
    "io.parse_cells": "count",
    "io.format_cells": "count",
    "io.bytes_written": "B",
    "online.update_calls": "count",
    "spectral.eigh_calls": "count",
    "spectral.eigh_matrices": "count",
    "spectral.eigh_flops": "flop-computed",
    "spectral.eigsh_calls": "count",
    "kernels.calls": "count",
    "kernels.rows": "count",
    "estimators.impute_row_calls": "count",
    "evaluation.batched_calls": "count",
    "evaluation.batched_rows": "count",
    "evaluation.slow_rows": "count",
}
LAYER_METRICS = {
    **{name: "s" for name in SELF_METRICS.values()},
    **COUNT_METRICS,
    "kernels.rows_per_call": "count",
    "evaluation.batched_frac": "ratio",
    "evaluation.scored_cells": "count",
    **{f"estimators.cells.{tag}": "count" for tag in checks.TAGS},
    **{f"evaluation.fallbacks.{tag}": "count" for tag in checks.TAGS[1:]},
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "scaling.blas_speedup": "ratio",
    "env.src_lines": "count",
}
END_TO_END = {
    "setup_s": "s",
    "command_s": "s",
    "peak_rss_mb": "MB",
    "quality_rmse": "norm",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def command_specs(name, farm, seed, out_root):
    """Worker command specs: label, argv for cli.main, files written."""
    wl = WORKLOADS[name]
    specs = []
    for label in wl.commands:
        out = str(out_root / label)
        kind, _, method = label.partition(".")
        common = ["--layout", farm.layout]
        if method in GRAPH_METHODS or kind == "regret":
            common += ["--edges", farm.edges]
        if kind == "simulate":
            argv = ["simulate", "--layout", farm.layout, "--t-len", str(wl.t_len),
                    "--spatial-scale", repr(inputs.SPATIAL_SCALE),
                    "--persistence", repr(inputs.PERSISTENCE), "--mechanism", "mcar",
                    "--rate", repr(wl.rate), "--seed", str(seed)]
            files = ["panel_full.csv", "panel_masked.csv"]
        elif kind == "impute":
            argv = ["impute", "--method", method, *common, "--panel", farm.panel]
            files = ["filled.csv", "provenance.csv"]
        elif kind == "evaluate":
            argv = ["evaluate", "--method", method, "--setup", wl.setup, *common,
                    "--panel", farm.panel]
            files = ["report.csv", "report.json"]
        else:
            argv = ["regret", *common, "--panel", farm.panel]
            files = ["regret_curve.csv"]
        specs.append({
            "label": label,
            "argv": argv + ["--out", out],
            "outputs": [os.path.join(out, f) for f in files + ["manifest.json"]],
            "out": out,
        })
    return specs


def child_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra)
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("ran out of time")
    return left


def measure_setup(farm, work, deadline):
    """(times, failures) of fresh `graph --propose king` processes."""
    want = {(f"s{i:03d}", f"s{j:03d}") for i, j in farm.edge_index}
    times, failures = [], []
    for k in range(SETUP_RUNS):
        out = work / f"setup-{k}"
        argv = [sys.executable, "-m", "spectral_imputer.cli", "graph", "--propose",
                "king", "--layout", farm.layout, "--out", str(out)]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining(deadline))
        times.append(time.perf_counter() - start)
        try:
            lines = (out / "edges.csv").read_text().splitlines()[1:]
            got = {tuple(line.split(",")[:2]) for line in lines}
        except OSError:
            got = set()
        if proc.returncode != 0 or got != want:
            failures.append(f"setup run {k}: exit {proc.returncode}, "
                            f"{len(got)} of {len(want)} king edges "
                            f"{proc.stderr.strip()[-200:]}")
    return times, failures


def run_worker(work, tag, specs, mode, seconds, deadline, env):
    spec_path = work / f"{tag}-spec.json"
    result_path = work / f"{tag}-result.json"
    spec = {
        "src": str(ROOT / "src"),
        "mode": mode,
        "seconds": seconds,
        "commands": [{k: s[k] for k in ("label", "argv", "outputs")} for s in specs],
        "result": str(result_path),
        "spans": str(work / f"{tag}-spans.jsonl") if mode == "trace" else None,
    }
    spec_path.write_text(json.dumps(spec))
    with open(work / f"{tag}-stderr.txt", "w") as err:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
            timeout=remaining(deadline),
        )
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / f"{tag}-stderr.txt").read_text()[-2000:]
        raise BenchError(f"worker exited {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text())


def check_outputs(name, farm, specs, seed):
    """({label: [problems]}, {label: summary}) for the current outputs."""
    wl = WORKLOADS[name]
    problems, summaries = {}, {}
    for spec in specs:
        label, out = spec["label"], spec["out"]
        kind, _, method = label.partition(".")
        try:
            if kind == "impute":
                found = checks.check_impute(farm, method, out, inputs.CAPACITY, seed,
                                            wl.oracle_rows)
            elif kind == "evaluate":
                found = checks.check_evaluate(farm, method, wl.setup, out)
            elif kind == "regret":
                found = checks.check_regret(farm, out)
            else:
                found = checks.check_simulate(inputs.sensor_ids(wl.rows * wl.cols), out,
                                              wl.t_len, wl.rate, inputs.CAPACITY)
            summaries[label] = checks.summarize(kind, out, inputs.CAPACITY)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        problems[label] = found
    return problems, summaries


def serial_baseline(name, farm, seed, work, deadline, summaries, problems):
    """One traced pass with OPENBLAS_NUM_THREADS=1, in its own worker.

    Its outputs must match the main run's summaries at the checks'
    tolerance; mismatches are added to `problems`.  Returns the worker
    result and (attempted, failed) for its commands.
    """
    specs = command_specs(name, farm, seed, work / "out-serial")
    serial = run_worker(work, "serial", specs, "serial", 0.0, deadline,
                        child_env(OPENBLAS_NUM_THREADS="1"))
    for spec in specs:
        label = spec["label"]
        if label not in summaries:
            continue  # the main run's outputs already failed their check
        try:
            summary = checks.summarize(label.partition(".")[0], spec["out"],
                                       inputs.CAPACITY)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            summary = repr(exc)
        problems[label] += [f"serial BLAS run: {p}"
                            for p in checks.compare(summary, summaries[label], label)]
    return serial, tally_passes(serial["passes"], specs, set())[:2]


def load_references():
    path = HERE / "references.json"
    return json.loads(path.read_text()) if path.exists() else {}


def reference_problems(name, seed, farm, summaries):
    """Differences from the recorded reference, or None if none recorded."""
    ref = load_references().get(name, {}).get(str(seed))
    if ref is None:
        return None
    out = {"inputs": checks.compare(farm.digests, ref["inputs"], "inputs")}
    for label, want in ref["commands"].items():
        out[label] = checks.compare(summaries.get(label), want, label)
    return out


def tally_passes(passes, specs, bad_labels):
    """(attempted, failed, names) over every command run of every pass."""
    warm = passes[0]
    attempted = failed = 0
    names = set()
    for record in passes:
        for spec in specs:
            label = spec["label"]
            attempted += 1
            ok = (record["codes"][label] == 0 and label not in bad_labels
                  and record["digests"][label] == warm["digests"][label])
            if not ok:
                failed += 1
                names.add(label)
    return attempted, failed, names


def quality(farm, summaries, specs):
    """{name: RMSE} of every fill against the truth and every evaluation."""
    out = {}
    for spec in specs:
        kind, _, method = spec["label"].partition(".")
        if kind == "impute":
            _, _, filled = checks.read_panel(os.path.join(spec["out"], "filled.csv"),
                                             inputs.CAPACITY)
            holes = np.isnan(farm.observed)
            err = filled[holes] - farm.truth[holes]
            out["fill_rmse"] = float(np.sqrt(np.mean(err**2)))
        elif kind == "evaluate":
            out[f"eval_rmse.{method}"] = summaries[spec["label"]]["mean_rmse"]
    return out


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration", blas.get("name"))
    except (KeyError, TypeError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        **{k: os.environ.get(k) for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SPECTRAL_IMPUTER_THREADS")},
        "commit": commit,
        "src_lines": src_lines(),
    }


def layer_metrics(result, serial, summaries, untraced):
    layers, counts = result["layers"], result["counts"]
    m = {metric: layers.get(span, 0.0) for span, metric in SELF_METRICS.items()}
    m.update({metric: counts.get(metric, 0.0) for metric in COUNT_METRICS})
    m["kernels.rows_per_call"] = m["kernels.rows"] / max(m["kernels.calls"], 1)
    routed = m["evaluation.batched_rows"] + m["evaluation.slow_rows"]
    m["evaluation.batched_frac"] = m["evaluation.batched_rows"] / max(routed, 1)
    cells = dict.fromkeys(checks.TAGS, 0)
    fallbacks = dict.fromkeys(checks.TAGS[1:], 0)
    m["evaluation.scored_cells"] = 0
    for label, summary in summaries.items():
        for tag, count in summary.get("tags", {}).items():
            cells[tag] += count
        for tag, count in summary.get("fallbacks", {}).items():
            fallbacks[tag] += count
        m["evaluation.scored_cells"] += summary.get("scored_cells", 0)
    m.update({f"estimators.cells.{t}": c for t, c in cells.items()})
    m.update({f"evaluation.fallbacks.{t}": c for t, c in fallbacks.items()})
    traced_wall = statistics.fmean(p["wall"] for p in result["passes"]
                                   if p["kind"] == "traced")
    plain_wall = statistics.fmean(p["wall"] for p in untraced)
    cpu = statistics.fmean(p["cpu"] for p in untraced)
    serial_wall = statistics.fmean(p["wall"] for p in serial["passes"]
                                   if p["kind"] == "traced")
    m.update({
        "proc.cpu_s": cpu,
        "proc.cpu_util": cpu / plain_wall,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "scaling.blas_speedup": serial_wall / traced_wall,
        "env.src_lines": src_lines(),
    })
    return m


def absent_metrics(absent):
    """Per-layer metrics fed by a wrap target the package no longer has."""
    spans = {entry.split(" -> ")[1] for entry in absent}
    if "estimators.impute_row" in spans:
        spans.add("evaluation.slow_rows")
    return sorted(
        metric for metric in LAYER_METRICS for span in spans
        if metric.startswith(span) or SELF_METRICS.get(span) == metric
    )


def bench(args):
    if not (ROOT / "src" / "spectral_imputer" / "cli.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    name = args.workload
    wl = WORKLOADS[name]
    work = ROOT / ".perfbench-work" / f"{name}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench-out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        farm = inputs.write_farm(work / "in", wl.rows, wl.cols, wl.t_len, wl.rate,
                                 args.seed)
        specs = command_specs(name, farm, args.seed, work / "out")
        attempted = failed = 0
        failures = []
        record = {"workload": name, "seed": args.seed, "trace": args.trace,
                  "environment": environment(), "inputs": farm.digests}
        if args.trace == 0:
            setup_times, setup_failures = measure_setup(farm, work, deadline)
            attempted += len(setup_times)
            failed += len(setup_failures)
            failures += setup_failures
        result = run_worker(work, "main", specs, "trace" if args.trace else "plain",
                            args.seconds, deadline, child_env())
        problems, summaries = check_outputs(name, farm, specs, args.seed)
        serial = None
        if args.trace:
            serial, (a, f) = serial_baseline(name, farm, args.seed, work, deadline,
                                             summaries, problems)
            attempted, failed = attempted + a, failed + f
        refs = reference_problems(name, args.seed, farm, summaries)
        for label, found in (refs or {}).items():
            problems.setdefault(label, [])
            problems[label] += [f"reference: {p}" for p in found]
        bad = {label for label, found in problems.items() if found}
        a, f, bad_names = tally_passes(result["passes"], specs, bad)
        attempted, failed = attempted + a, failed + f
        if "inputs" in bad:
            failed += 1
        for label in sorted(bad | bad_names):
            failures.append(f"{label}: " + "; ".join(problems.get(label) or
                                                     ["exit code or output digest differs"]))

        untraced = [p for p in result["passes"] if p["kind"] == "untraced"]
        # impute_s, evaluate_s, regret_s, simulate_s: median over passes of the
        # time spent in that kind of command; printed, not emitted as metrics.
        kinds = dict.fromkeys(spec["label"].partition(".")[0] for spec in specs)
        per_kind = {
            kind: statistics.median(
                sum(t for label, t in p["times"].items() if label.startswith(kind))
                for p in untraced
            )
            for kind in kinds
        }
        try:
            rmses = quality(farm, summaries, specs)
        except (OSError, ValueError, KeyError):
            rmses = {}  # the failed checks already fail the run
        lines = [
            f"workload {name} seed {args.seed}: {len(untraced)} untraced passes, "
            f"reference {'checked' if refs is not None else 'not recorded for this seed'}",
            *(f"  {kind}_s {t:.4f} s" for kind, t in per_kind.items()),
            f"  peak_rss_mb {result['peak_rss_mb']:.2f} MB",
            *(f"  {k} {v:.6f} norm" for k, v in rmses.items()),
            f"  failed_frac {failed / max(attempted, 1):.4f} ({failed} of {attempted})",
            *(f"  FAILED {line}" for line in failures),
        ]
        if args.trace == 0:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "command_s": statistics.median(p["wall"] for p in untraced),
                "peak_rss_mb": result["peak_rss_mb"],
                "quality_rmse": rmses.get(QUALITY_EVAL.get(name, "fill_rmse"), 0.0),
            }
            units = END_TO_END
        else:
            metrics = layer_metrics(result, serial, summaries, untraced)
            units = LAYER_METRICS
            self_sum = sum(metrics[m] for m in SELF_METRICS.values())
            missing = absent_metrics(result["absent"])
            lines += [
                f"  self times sum {self_sum:.6f} s, traced wall "
                f"{metrics['trace.wall_s']:.6f} s",
                f"  absent: {', '.join(missing) or 'none'}",
            ]
            record["absent"] = missing
            shutil.copy(work / "main-spans.jsonl",
                        out_dir / f"{name}-seed{args.seed}-spans.jsonl")
        record.update(lines=lines, passes=result["passes"], metrics=metrics)
        (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        payload = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        return lines, record["environment"], payload
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lines, env, payload = bench(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("environment " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
