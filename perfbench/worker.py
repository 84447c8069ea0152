"""Runs one workload's CLI commands in-process and times them.

Started by run.py as its own child process with a JSON spec:

    python3 perfbench/worker.py SPEC.json

The spec names the package source directory, the commands (argument
lists for `spectral_imputer.cli.main`, plus the files each writes), the
mode and the time budget, which counts from before the warm-up pass.
Every mode starts with that warm-up pass; run.py checks its outputs, and
later passes must reproduce them byte for byte.

- plain: timed passes until the budget is spent (at least three).
- trace: alternates untraced and traced passes until the budget is
  spent (at least one of each); traced passes run with the wraps of
  `install_wraps` in place, untraced ones without any.
- serial: traced passes only; run.py sets OPENBLAS_NUM_THREADS=1.
- once: the warm-up pass alone, for recording references.

The result JSON holds per-pass command times, exit codes, output
digests, CPU time, peak RSS and, when traced, per-span self times and
counts averaged over the traced passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from tracer import Tracer


def _load(src: str):
    sys.path.insert(0, src)
    import numpy.linalg  # noqa: F401  (wrapped below)
    import scipy.sparse.linalg  # noqa: F401  (imported lazily by the package)

    from spectral_imputer import cli

    return cli


# ---------------------------------------------------------------------------
# Counters, run inside the span of the call they count.


def _parse_cells(tr, args, result):
    if isinstance(result, tuple) and hasattr(result[0], "values"):
        cells = result[0].values.size + result[0].t_len
    elif hasattr(result, "sensors"):
        cells = 4 * len(result.sensors)
    elif isinstance(result, tuple):
        cells = len(result[0]) * (2 if result[1] is None else 3)
    else:
        cells = 7 * len(getattr(result, "edge_ids", ()))
    tr.counts["io.parse_cells"] += cells


def _format_cells(tr, args, result):
    if isinstance(result, str):
        cells = result.count(",") + result.count("\n")
    else:
        cells = getattr(getattr(result, "values", None), "size", 0)
    tr.counts["io.format_cells"] += cells


def _bytes_written(tr, args, result):
    tr.counts["io.bytes_written"] += len(args[1].encode())


def _update(tr, args, result):
    tr.counts["online.update_calls"] += 1


def _eigh(tr, args, result):
    a = args[0]
    matrices = int(a.size // (a.shape[-1] * a.shape[-1]))
    tr.counts["spectral.eigh_calls"] += 1
    tr.counts["spectral.eigh_matrices"] += matrices
    # LAPACK's dense symmetric eigensolver costs about 9 n^3 flops per
    # matrix with eigenvectors: a computed figure, not a measured one.
    tr.counts["spectral.eigh_flops"] += 9.0 * a.shape[-1] ** 3 * matrices


def _eigsh(tr, args, result):
    tr.counts["spectral.eigsh_calls"] += 1


def _kernels(tr, args, result):
    tr.counts["kernels.calls"] += 1
    tr.counts["kernels.rows"] += args[1].shape[0]


def _impute_row(tr, args, result):
    tr.counts["estimators.impute_row_calls"] += 1
    if tr.inside("evaluation.loo"):
        tr.counts["evaluation.slow_rows"] += 1


def _batched(tr, args, result):
    tr.counts["evaluation.batched_calls"] += 1
    tr.counts["evaluation.batched_rows"] += args[0].shape[0]


def install_wraps(tracer: Tracer, cli) -> None:
    """Wrap the package's call sites where they are looked up."""
    import numpy.linalg
    import scipy.sparse.linalg

    from spectral_imputer import estimators, evaluation, online, spectral

    for attr, value in sorted(vars(cli).items()):
        module = getattr(value, "__module__", None)
        if not callable(value) or isinstance(value, type):
            continue
        if module == "spectral_imputer.io":
            if attr == "atomic_write_text":
                tracer.wrap(cli, attr, "io.write", _bytes_written)
            elif attr.startswith(("read_", "load_")):
                tracer.wrap(cli, attr, "io.parse", _parse_cells)
            else:
                tracer.wrap(cli, attr, "io.format", _format_cells)
        elif module == "spectral_imputer.graph":
            tracer.wrap(cli, attr, "graph.build")
    for attr, name in (
        ("prefix_best_losses", "online.prefix_best"),
        ("leave_one_out_eval", "evaluation.loo"),
        ("synth_panel", "evaluation.simulate"),
        ("apply_missingness", "evaluation.simulate"),
        ("impute_weighted_graph", "estimators.impute"),
        ("run_estimator", "estimators.impute"),
    ):
        tracer.wrap(cli, attr, name)
    tracer.wrap(numpy.linalg, "eigh", "spectral.eigh", _eigh)
    tracer.wrap(scipy.sparse.linalg, "eigsh", "spectral.eigsh", _eigsh)
    tracer.wrap(spectral, "_spectrum_for_adjacency", "spectral.route")
    tracer.wrap(spectral, "solve_generalized", "spectral.route")
    tracer.wrap(estimators, "_spectrum_for_adjacency", "spectral.route")
    tracer.wrap(estimators, "embed", "spectral.embed")
    tracer.wrap(estimators, "kernel_weight_rows", "kernels", _kernels)
    tracer.wrap(evaluation, "kernel_weight_rows", "kernels", _kernels)
    tracer.wrap(online.SimilarityTracker, "update", "online.update", _update)
    tracer.wrap(evaluation, "track_sequence", "online.track")
    imputer = getattr(estimators, "_WeightedRowImputer", None)
    if imputer is None:
        tracer.absent.append(
            "spectral_imputer.estimators._WeightedRowImputer -> estimators.impute_row"
        )
    else:
        tracer.wrap(imputer, "impute_row", "estimators.impute_row", _impute_row)
    tracer.wrap(
        evaluation, "_batched_embedding_distances", "evaluation.batched", _batched
    )


# ---------------------------------------------------------------------------


def _digest(path: str):
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def run_pass(cli, commands, tracer: Tracer | None) -> dict:
    times, codes = {}, {}
    for cmd in commands:
        sink = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    code = cli.main(cmd["argv"])
                else:
                    code = tracer.call("cli.main", cli.main, cmd["argv"])
        except SystemExit as exc:  # argparse rejects an argument list
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        times[cmd["label"]] = perf_counter() - start
        codes[cmd["label"]] = code
    digests = {
        cmd["label"]: {os.path.basename(p): _digest(p) for p in cmd["outputs"]}
        for cmd in commands
    }
    return {"times": times, "codes": codes, "digests": digests}


def _cpu() -> float:
    t = os.times()
    return t.user + t.system


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    cli = _load(spec["src"])
    commands, mode, budget = spec["commands"], spec["mode"], spec["seconds"]
    tracer = Tracer()

    start = perf_counter()  # the budget covers the warm-up pass too
    warmup = run_pass(cli, commands, None)
    passes = [dict(warmup, kind="warmup", wall=sum(warmup["times"].values()))]
    layers, counts, n_traced = {}, {}, 0
    while mode != "once":
        kinds = [p["kind"] for p in passes]
        if mode == "plain":
            kind = "untraced"
            done = kinds.count("untraced") >= 3
        elif mode == "trace":
            kind = "traced" if kinds[-1] == "untraced" else "untraced"
            done = kinds.count("traced") >= 1 and kinds[-1] == "traced"
        else:
            kind = "traced"
            done = kinds.count("traced") >= 1
        if done and perf_counter() - start >= budget:
            break
        if kind == "traced":
            tracer.reset()
            install_wraps(tracer, cli)
        cpu0 = _cpu()
        try:
            record = run_pass(cli, commands, tracer if kind == "traced" else None)
        finally:
            tracer.restore()
        record.update(kind=kind, cpu=_cpu() - cpu0)
        if kind == "traced":
            record["wall"] = tracer.root_time()
            if not n_traced and spec.get("spans"):
                tracer.write_spans(spec["spans"])
            n_traced += 1
            for name, value in tracer.self_times().items():
                layers[name] = layers.get(name, 0.0) + value
            for name, value in tracer.counts.items():
                counts[name] = counts.get(name, 0.0) + value
        else:
            record["wall"] = sum(record["times"].values())
        passes.append(record)

    n_traced = max(n_traced, 1)
    result = {
        "passes": passes,
        "layers": {k: v / n_traced for k, v in layers.items()},
        "counts": {k: v / n_traced for k, v in counts.items()},
        "absent": sorted(set(tracer.absent)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
