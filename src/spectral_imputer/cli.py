"""Command-line surface.

One command per invocation.  Each handler builds its output texts in
memory; `main` adds a manifest (settings echo + version) that is enough
to reproduce them, and only then creates `--out` and commits every file
atomically, so a failing run leaves neither files nor the directory.
Table cells are formatted in one place, `io._table_text`.  Errors from
this package exit nonzero with a single-line diagnostic.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys

from . import __version__
from .errors import ConfigError, SpectralImputerError
from .estimators import (
    METHODS,
    DEFAULT_WEIGHT_FLOOR,
    EstimatorConfig,
    revealed_similarity_rows,
    run_estimator,
)
from .evaluation import (
    SETUPS,
    SPLITS,
    MissingnessSpec,
    apply_missingness,
    leave_one_out_eval,
    split_rows,
    sweep,
    synth_panel,
)
from .graph import build_graph, components, propose_grid_edges
from .io import (
    checkpoint_csv_text,
    components_csv_text,
    edge_list_csv_text,
    embedding_csv_text,
    embedding_svg_text,
    load_panel,
    manifest_text,
    panel_cells,
    panel_cells_csv_text,
    panel_csv_text,
    pivot_csv_text,
    provenance_csv_text,
    ranked_csv_text,
    read_checkpoint,
    read_edge_list,
    read_layout,
    regret_csv_text,
    report_csv_text,
    report_json_text,
    atomic_write_text,
    _named_os_errors,
)
from .kernels import KERNEL_NAMES
from .online import SimilarityTracker, regret_curve
from .spectral import embed


def _settings(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "command"}


def _commit(staged, out: str) -> None:
    """Write all staged (path, text) pairs to temp files, then rename them all.

    `out` is created here, when every text is ready.  A failure deletes the
    temp files, and every directory this call created: a previous run's
    outputs stay intact and a first run leaves nothing.  A target that is
    a directory fails the commit before the first rename, not after the
    renames before it have landed in `out`.
    """
    created = []  # `out` and its missing parents, deepest first
    directory = os.path.abspath(out)
    while not os.path.isdir(directory):
        created.append(directory)
        directory = os.path.dirname(directory)
    temps = []
    try:
        os.makedirs(out, exist_ok=True)
        for path, text in staged:
            temps.append((atomic_write_text(path, text, defer=True), path))
        for _, path in temps:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for tmp, path in temps:
            with _named_os_errors(path):
                os.replace(tmp, path)
    except BaseException:
        for tmp, _ in temps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        for directory in created:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise


def _out_path(args, name: str) -> str:
    return os.path.join(args.out, name)


def _graph_method(methods):
    """The first of `methods` that needs a sensor graph, or None."""
    return next((m for m in methods if m in ("unweighted_graph", "weighted_graph")), None)


def _load_graph(layout, args, method: str | None):
    """The graph `--edges` names; without it, None, or ConfigError if `method` needs it."""
    if args.edges is None:
        if method is not None:
            raise ConfigError(f"method {method!r} needs --edges")
        return None
    pairs, weights = read_edge_list(args.edges)
    graph = build_graph(layout, pairs)
    if weights is not None:
        graph = graph.with_weights(weights)
    return graph


def _tracker(graph, args) -> SimilarityTracker:
    if args.checkpoint_in:
        return read_checkpoint(args.checkpoint_in, graph, eta=args.eta)
    return SimilarityTracker.for_graph(graph, eta=args.eta)


# ---------------------------------------------------------------------------
# Command handlers.  Each returns (staged files, one-line summary).


def _cmd_graph(args):
    layout = read_layout(args.layout)
    if args.edges is not None and args.propose is not None:
        raise ConfigError("give --edges or --propose, not both")
    graph = _load_graph(layout, args, None)
    if graph is None:
        graph = build_graph(layout, propose_grid_edges(layout, args.propose or "king"))
    partition = components(graph, weight_floor=args.weight_floor)
    staged = [
        (_out_path(args, "edges.csv"), edge_list_csv_text(graph)),
        (_out_path(args, "components.csv"), components_csv_text(partition)),
    ]
    return staged, (
        f"graph: {graph.n} nodes, {len(graph.edges)} edges, {partition.count} components"
    )


def _cmd_embed(args):
    layout = read_layout(args.layout)
    graph = _load_graph(layout, args, None)
    partition = components(graph)
    embeddings = embed(graph, partition, args.dim)
    embedded = sum(len(e.coordinates) for e in embeddings)
    staged = [
        (_out_path(args, "embedding.csv"), embedding_csv_text(embeddings)),
        (_out_path(args, "embedding.svg"), embedding_svg_text(embeddings)),
    ]
    return staged, f"embedded {embedded} of {graph.n} nodes ({partition.count} components)"


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(
        method=args.method,
        kernel=args.kernel,
        r=args.dim,
        learning_rate=args.eta,
        weight_floor=args.weight_floor,
    )


def _cmd_impute(args):
    config = _estimator_config(args)
    layout = read_layout(args.layout)
    graph = _load_graph(layout, args, _graph_method([args.method]))
    if args.method != "weighted_graph" and (
        args.checkpoint_in or args.checkpoint_out
    ):
        raise ConfigError("checkpoints only apply to the weighted_graph method")
    panel, clamped = load_panel(args.panel, layout)
    tracker = _tracker(graph, args) if args.method == "weighted_graph" else None
    result = run_estimator(panel, config, layout=layout, graph=graph, tracker=tracker)
    filled = panel_csv_text(layout, result.sensor_ids, result.timestamps, result.filled)
    staged = [
        (_out_path(args, "filled.csv"), filled),
        (_out_path(args, "provenance.csv"), provenance_csv_text(result)),
    ]
    if args.checkpoint_out:
        staged.append((args.checkpoint_out, checkpoint_csv_text(tracker)))
    tags = ", ".join(f"{k}={v}" for k, v in sorted(result.tag_counts().items()))
    return staged, f"imputed panel ({tags or 'all observed'}; {clamped} clamped)"


def _cmd_evaluate(args):
    config = _estimator_config(args)
    layout = read_layout(args.layout)
    graph = _load_graph(layout, args, _graph_method([args.method]))
    panel, clamped = load_panel(args.panel, layout)
    report = leave_one_out_eval(
        panel, config, args.setup, layout=layout, graph=graph,
        within=split_rows(panel.t_len, args.split),
    )
    staged = [
        (_out_path(args, "report.csv"), report_csv_text(report)),
        (_out_path(args, "report.json"), report_json_text(report)),
    ]
    return staged, (
        f"{args.method}/{args.setup}: mean_rmse={report.mean_rmse:.6f} "
        f"mean_improvement={report.mean_improvement:.4f} ({clamped} clamped)"
    )


def _split_list(text: str, what: str, allowed) -> list[str]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"empty {what} list")
    for item in items:
        if item not in allowed:
            raise ConfigError(
                f"unknown {what} {item!r}; choose from {', '.join(allowed)}"
            )
    return items


def _cmd_sweep(args):
    layout = read_layout(args.layout)
    methods = _split_list(args.methods, "method", METHODS)
    kernels = _split_list(args.kernels, "kernel", KERNEL_NAMES)
    setups = _split_list(args.setups, "setup", SETUPS)
    try:
        dims = [int(part) for part in args.dims.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"unparsable --dims {args.dims!r}") from None
    if not dims:
        raise ConfigError("empty --dims list")
    graph = _load_graph(layout, args, _graph_method(methods))
    panel, clamped = load_panel(args.panel, layout)

    configs = []
    for method in methods:
        if method == "naive":
            # kernel and dimension are inert for the plain mean; one row
            # with the indicator kernel keeps the table honest
            configs.append(
                EstimatorConfig(method, "naive", dims[0], args.eta, args.weight_floor)
            )
            continue
        for kernel in kernels:
            for r in dims:
                configs.append(
                    EstimatorConfig(method, kernel, r, args.eta, args.weight_floor)
                )
    reports = sweep(
        panel, configs, setups, layout=layout, graph=graph,
        within=split_rows(panel.t_len, args.split),
    )
    staged = [
        (_out_path(args, "ranked.csv"), ranked_csv_text(reports)),
        (_out_path(args, "by_kernel.csv"), pivot_csv_text(reports, "kernel")),
        (_out_path(args, "by_dim.csv"), pivot_csv_text(reports, "r")),
    ]
    best = reports[0]
    return staged, (
        f"swept {len(reports)} runs; best {best.method}/{best.kernel}/r={best.r} "
        f"{best.setup} mean_improvement={best.mean_improvement:.4f} ({clamped} clamped)"
    )


def _cmd_simulate(args):
    layout = read_layout(args.layout)
    panel = synth_panel(
        layout,
        args.t_len,
        spatial_scale=args.spatial_scale,
        temporal_persistence=args.persistence,
        seed=args.seed,
        driver_scale=args.driver_scale,
        noise_scale=args.noise_scale,
    )
    cells = panel_cells(layout, panel.sensor_ids, panel.values)
    full = panel_cells_csv_text(layout.ids, panel.timestamps, cells.tolist())
    staged = [(_out_path(args, "panel_full.csv"), full)]
    summary_bits = [f"simulated {panel.t_len}x{panel.n_sensors} panel"]
    if args.mechanism is not None:
        spec = MissingnessSpec(
            mechanism=args.mechanism,
            rate=args.rate,
            block_mean=args.block_mean,
            seed=args.seed + 1,
        )
        masked = apply_missingness(panel, spec)
        cells[~masked.mask] = ""
        text = panel_cells_csv_text(layout.ids, masked.timestamps, cells.tolist())
        staged.append((_out_path(args, "panel_masked.csv"), text))
        missing = int((~masked.mask).sum())
        summary_bits.append(
            f"{args.mechanism} masked {missing} cells "
            f"({int(masked.complete_rows().sum())} complete rows)"
        )
    return staged, "; ".join(summary_bits)


def _cmd_regret(args):
    layout = read_layout(args.layout)
    graph = _load_graph(layout, args, None)
    panel, clamped = load_panel(args.panel, layout)
    tracker = _tracker(graph, args)
    curve = regret_curve(revealed_similarity_rows(panel, graph), tracker=tracker)
    staged = [(_out_path(args, "regret_curve.csv"), regret_csv_text(curve))]
    if args.checkpoint_out:
        staged.append((args.checkpoint_out, checkpoint_csv_text(tracker)))
    return staged, (
        f"tracked {len(graph.edges)} edges over {panel.t_len} rounds; "
        f"final regret={curve.regret[-1]:.6f} ({clamped} clamped)"
    )


_HANDLERS = {
    "graph": _cmd_graph,
    "embed": _cmd_embed,
    "impute": _cmd_impute,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "regret": _cmd_regret,
}


def _add_estimator_flags(p):
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument(
        "--kernel", default="triweight", choices=KERNEL_NAMES,
        help="smoothing kernel (default: triweight)",
    )
    p.add_argument(
        "--dim", type=int, default=2,
        help="embedding dimension r (default: 2)",
    )
    p.add_argument(
        "--eta", type=float, default=0.5,
        help="similarity tracker learning rate (default: 0.5)",
    )
    p.add_argument(
        "--weight-floor", type=float, default=DEFAULT_WEIGHT_FLOOR,
        help="edges at or below this weight are dropped from per-timestep graphs",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-imputer",
        description=(
            "Impute missing sensor readings in farm panels with "
            "kernel-weighted neighbors in spectral graph embeddings."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build or validate a sensor graph")
    p.add_argument("--layout", required=True, help="layout CSV")
    p.add_argument("--edges", help="edge list CSV to validate")
    p.add_argument(
        "--propose", choices=("rook", "king"),
        help="propose grid edges from the layout instead of reading a file",
    )
    p.add_argument(
        "--weight-floor", type=float, default=0.0,
        help="edges at or below this weight are ignored for component counts",
    )
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("embed", help="emit embedding coordinates and an SVG scatter")
    p.add_argument("--layout", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--out", required=True)

    p = sub.add_parser("impute", help="fill missing cells of a panel")
    p.add_argument("--layout", required=True)
    p.add_argument("--edges", help="edge list CSV (graph methods)")
    p.add_argument("--panel", required=True, help="panel CSV")
    _add_estimator_flags(p)
    p.add_argument("--checkpoint-in", help="tracker checkpoint to resume from")
    p.add_argument("--checkpoint-out", help="write the tracker state here")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="leave-one-out evaluation of one config")
    p.add_argument("--layout", required=True)
    p.add_argument("--edges")
    p.add_argument("--panel", required=True)
    _add_estimator_flags(p)
    p.add_argument("--setup", default="complete", choices=SETUPS)
    p.add_argument(
        "--split", default="all", choices=SPLITS,
        help="score only a row-index half of the panel (default: all)",
    )
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="evaluate a grid of configurations")
    p.add_argument("--layout", required=True)
    p.add_argument("--edges")
    p.add_argument("--panel", required=True)
    p.add_argument(
        "--methods", default=",".join(METHODS),
        help="comma-separated methods (default: all)",
    )
    p.add_argument(
        "--kernels", default="triweight", help="comma-separated kernels"
    )
    p.add_argument("--dims", default="2", help="comma-separated dimensions")
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--weight-floor", type=float, default=DEFAULT_WEIGHT_FLOOR)
    p.add_argument(
        "--setups", default="complete,incomplete", help="comma-separated setups"
    )
    p.add_argument("--split", default="all", choices=SPLITS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic panel")
    p.add_argument("--layout", required=True)
    p.add_argument("--t-len", type=int, required=True)
    p.add_argument("--spatial-scale", type=float, required=True)
    p.add_argument("--persistence", type=float, required=True)
    p.add_argument("--driver-scale", type=float, default=1.2)
    p.add_argument("--noise-scale", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mechanism", choices=("mcar", "block"),
        help="also emit a panel with simulated missingness",
    )
    p.add_argument("--rate", type=float, default=0.1)
    p.add_argument("--block-mean", type=float, default=5.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("regret", help="tracker-vs-best-constant regret curves")
    p.add_argument("--layout", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--panel", required=True)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--checkpoint-in")
    p.add_argument("--checkpoint-out")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        staged, summary = _HANDLERS[args.command](args)
        manifest = manifest_text(args.command, _settings(args))
        _commit(staged + [(_out_path(args, "manifest.json"), manifest)], args.out)
    except (SpectralImputerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{summary} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
