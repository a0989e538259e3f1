"""Command-line interface: fit, serve and evaluate clustering artifacts,
and regenerate any paper table or figure.

Subcommands::

    repro fit --dataset adult --method fairkm -k 5 --out artifacts/m
    repro predict --model artifacts/m --data points.npy --out labels.npy
    repro evaluate --model artifacts/m --dataset adult
    repro registry publish --registry registry/ --model artifacts/m
    repro serve --registry registry/ --port 8000
    repro fleet up --registry registry/ --workers 4 --port 8100
    repro fleet rollout --registry registry/ --version v0007
    repro paper table5 --seeds 5 --engine chunked
    repro paper list
    repro bench --smoke --workers 2
    repro bench compare old/BENCH_assign.json results/BENCH_assign.json

``repro fit`` / ``repro predict`` are the train-once / assign-many
split: ``fit`` writes a portable :class:`~repro.api.ClusterModel`
artifact, ``predict`` serves batched S-blind assignment from it. All
knobs travel through :class:`~repro.api.RunConfig` (``--config run.json``
loads one; explicit flags override it) — the process environment is
never mutated; ``REPRO_*`` variables are read as defaults only.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from .api import BACKENDS, ENGINES, Assigner, ClusterModel, METHOD_REGISTRY, RunConfig
from .api import fit as api_fit
from .experiments.paper import EXPERIMENTS, BenchSettings, bench_scale

#: Prefix marking sensitive-attribute arrays inside an ``.npz`` input.
SENSITIVE_PREFIX = "sensitive_"


def positive_int(text: str) -> int:
    """argparse type: strictly positive integer (standard usage error)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def workers_value(text: str) -> int | str:
    """argparse type: worker count — a positive integer, -1, or 'auto'."""
    from .core.parallel import validate_workers

    try:
        value: int | str = text if text == "auto" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'workers must be a positive integer, -1, or "auto", got {text!r}'
        ) from None
    try:
        return validate_workers(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def lambda_value(text: str) -> float | str:
    """argparse type: a non-negative float or the string ``auto``."""
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'lambda must be a number or "auto", got {text!r}'
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"lambda must be non-negative, got {value}")
    return value


def _add_dataset_arguments(parser: argparse.ArgumentParser, *, with_data: bool) -> None:
    parser.add_argument(
        "--dataset",
        choices=["adult", "kinematics", "synthetic"],
        default=None,
        help="built-in workload (Adult is parity-undersampled as in §5.1)",
    )
    parser.add_argument(
        "--adult-n",
        type=positive_int,
        default=None,
        help="Adult rows before parity undersampling "
        "(default: env REPRO_BENCH_ADULT_N or 6000)",
    )
    if with_data:
        parser.add_argument(
            "--data",
            type=Path,
            default=None,
            help="feature matrix file: .npy, .csv, or .npz with a 'points' "
            f"array (plus optional '{SENSITIVE_PREFIX}<name>' arrays)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fair clustering with multiple sensitive attributes "
        "(EDBT 2020): fit portable models, serve batched assignment, "
        "regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    # ------------------------------------------------------------- fit #
    p_fit = sub.add_parser(
        "fit",
        help="fit a clustering method and save a portable model artifact",
        description="Fit any registered method on a built-in dataset or a "
        "matrix file and write a versioned ClusterModel artifact "
        "(model.json + model.npz).",
    )
    _add_dataset_arguments(p_fit, with_data=True)
    p_fit.add_argument(
        "--method", choices=sorted(METHOD_REGISTRY), default=None,
        help="clustering method (default fairkm)",
    )
    p_fit.add_argument("-k", type=positive_int, default=None, help="number of clusters")
    p_fit.add_argument(
        "--lambda", dest="lambda_", type=lambda_value, default=None,
        help='fairness weight or "auto" (the §5.4 heuristic)',
    )
    p_fit.add_argument(
        "--engine", choices=list(ENGINES), default=None,
        help="FairKM sweep strategy: 'sequential' (paper-literal), "
        "'chunked' (vectorized, identical results, fastest at scale) or "
        "'minibatch' (§6.1 approximation)",
    )
    p_fit.add_argument(
        "--chunk-size", type=positive_int, default=None,
        help="chunk size of the chunked engine / batch size of minibatch",
    )
    p_fit.add_argument(
        "--backend", choices=list(BACKENDS), default=None,
        help="training execution backend: 'local' (thread pool, default), "
        "'multiprocess' (worker processes over shared memory; bit-identical "
        "results)",
    )
    p_fit.add_argument(
        "--workers", type=workers_value, default=None,
        help="worker count for --backend (default 1; -1 or 'auto' = one "
        "per usable CPU; results are identical for every value)",
    )
    p_fit.add_argument("--max-iter", type=positive_int, default=None)
    p_fit.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    p_fit.add_argument(
        "--no-scale", action="store_true",
        help="skip z-scoring numeric features (for embedding spaces)",
    )
    p_fit.add_argument(
        "--sensitive", default=None,
        help="comma-separated sensitive attribute names to fair-cluster on "
        "(default: all available)",
    )
    p_fit.add_argument(
        "--config", type=Path, default=None,
        help="RunConfig JSON file; explicit flags override its values",
    )
    p_fit.add_argument(
        "--out", "-o", type=Path, default=Path("results/model"),
        help="artifact output directory (default results/model)",
    )
    p_fit.add_argument(
        "--metrics-out", type=Path, default=None, metavar="FILE",
        help="write the run's telemetry profile (per-sweep counters, "
        "move rates, phase wall-time histograms) as JSON to FILE",
    )

    # --------------------------------------------------------- predict #
    p_pred = sub.add_parser(
        "predict",
        help="batch-assign points with a saved model artifact",
        description="Load a ClusterModel artifact and route points to their "
        "nearest center (S-blind serving path).",
    )
    p_pred.add_argument("--model", "-m", type=Path, required=True,
                        help="artifact directory written by 'repro fit'")
    _add_dataset_arguments(p_pred, with_data=True)
    p_pred.add_argument(
        "--chunk-size", type=positive_int, default=None,
        help="rows scored per batch (default 8192)",
    )
    p_pred.add_argument(
        "--workers", type=workers_value, default=None,
        help="worker threads fanning assignment chunks out (default 1; "
        "-1 or 'auto' = one per usable CPU; labels identical for every value)",
    )
    p_pred.add_argument(
        "--out", "-o", type=Path, default=None,
        help="write labels to this file (.npy, or text with one label per line)",
    )

    # -------------------------------------------------------- evaluate #
    p_eval = sub.add_parser(
        "evaluate",
        help="score a saved model on a dataset (quality + fairness)",
        description="Assign a dataset through a saved artifact and report the "
        "paper's §5.2 measures (CO/SH and per-attribute AE/AW/ME/MW).",
    )
    p_eval.add_argument("--model", "-m", type=Path, required=True)
    _add_dataset_arguments(p_eval, with_data=False)

    # ----------------------------------------------------------- paper #
    p_paper = sub.add_parser(
        "paper",
        help="regenerate paper tables/figures",
        description="Regenerate tables/figures from the paper. Output is "
        "printed and written under results/.",
    )
    p_paper.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all", "list"],
        help="experiment id (tableN / figN-M), 'all', or 'list'",
    )
    p_paper.add_argument(
        "--seeds", type=positive_int, default=None,
        help="random restarts per configuration (default: env REPRO_BENCH_SEEDS or 3)",
    )
    p_paper.add_argument("--adult-n", type=positive_int, default=None,
                         help="Adult rows before parity undersampling")
    p_paper.add_argument("--full", action="store_true",
                         help="paper-scale settings (100 seeds, 32561 Adult rows)")
    p_paper.add_argument("--engine", choices=list(ENGINES), default=None)
    p_paper.add_argument("--chunk-size", type=positive_int, default=None)

    # ----------------------------------------------------------- bench #
    p_bench = sub.add_parser(
        "bench",
        help="run the perf suites and emit machine-readable BENCH_*.json; "
        "'bench compare' diffs two records",
        description="Run the assignment/serving/fleet/backend benchmark "
        "suites across worker counts, write schema-validated "
        "BENCH_assign.json / BENCH_serve.json / BENCH_fleet.json / "
        "BENCH_backend.json under results/, and print the rendered tables. "
        "'repro bench compare BASELINE CURRENT' diffs two bench files, runs "
        "the current file's suite gate (fleet, backend, or observability for "
        "serve) and exits nonzero on a rows/s regression or a failed gate.",
    )
    p_bench.add_argument(
        "suite", nargs="?",
        choices=["assign", "serve", "fleet", "backend", "all", "compare"],
        default="all",
        help="suite to run (default all), or 'compare' to diff two records",
    )
    p_bench.add_argument(
        "paths", nargs="*", type=Path, metavar="BENCH_JSON",
        help="for 'compare': the baseline and current BENCH_*.json files",
    )
    p_bench.add_argument(
        "--smoke", action="store_true",
        help="small sizes for CI (seconds, not minutes)",
    )
    p_bench.add_argument(
        "--workers", type=workers_value, default=4,
        help="top of the worker-count ladder 1,2,4,... (default 4)",
    )
    p_bench.add_argument(
        "--repeats", type=positive_int, default=None,
        help="timing repeats, best-of (default: 3 assign/serve/fleet, "
        "1 backend; 1 everywhere under --smoke)",
    )
    p_bench.add_argument(
        "--out", "-o", type=Path, default=None,
        help="output directory (default results/, or REPRO_RESULTS_DIR)",
    )
    p_bench.add_argument(
        "--threshold", type=float, default=None,
        help="for 'compare': minimum current/baseline rows/s ratio "
        "before a record counts as regressed (default 0.9)",
    )

    # ----------------------------------------------------------- chaos #
    p_chaos = sub.add_parser(
        "chaos",
        help="run seeded fault-injection soaks against a live fleet",
        description="Spin up a throwaway worker fleet behind the proxy "
        "and soak it with a seed-derived fault schedule (a SIGSTOP'd "
        "frozen worker, a SIGKILL'd crashed worker, injected worker-side "
        "delays), measuring availability and p50/p99 latency while "
        "asserting every successful response is bit-identical to "
        "in-process predict. Writes schema-validated "
        "results/BENCH_chaos.json with the breaker-on soak next to the "
        "identical breaker-off soak; exits nonzero when the breaker-on "
        "soak misses the availability gate or any answer was wrong.",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0,
        help="fault-schedule seed (same seed, same schedule; default 0)",
    )
    p_chaos.add_argument(
        "--smoke", action="store_true",
        help="single short breaker-on soak for CI (seconds, not minutes)",
    )
    p_chaos.add_argument(
        "--requests", type=positive_int, default=None,
        help="requests per soak (default 80 smoke / 250 full)",
    )
    p_chaos.add_argument(
        "--workers", type=positive_int, default=2,
        help="fleet worker processes (default 2)",
    )
    p_chaos.add_argument(
        "--out", "-o", type=Path, default=None,
        help="output directory (default results/, or REPRO_RESULTS_DIR)",
    )
    p_chaos.add_argument(
        "--min-availability", type=float, default=None, metavar="FRACTION",
        help="availability gate for the breaker-on soak "
        "(default 0.99 full / 0.90 smoke)",
    )

    # ----------------------------------------------------------- serve #
    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived HTTP assignment server",
        description="Serve batched S-blind assignment over HTTP from a "
        "model registry (hot-reloading its LATEST pointer) or from one "
        "artifact directory. Endpoints: POST /assign (JSON or npy "
        "bytes), GET /healthz, GET /model, POST /reload.",
    )
    p_serve.add_argument(
        "--registry", type=Path, default=None,
        help="registry root; the server follows its LATEST pointer "
        "(publishes/rollbacks hot-reload without a restart)",
    )
    p_serve.add_argument(
        "--model", "-m", type=Path, default=None,
        help="serve a single artifact directory instead of a registry",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8000,
        help="bind port (0 picks an ephemeral port; default 8000)",
    )
    p_serve.add_argument(
        "--uds", type=Path, default=None, metavar="SOCKET",
        help="bind a Unix domain socket at this path instead of TCP "
        "(co-located clients skip the TCP stack entirely)",
    )
    p_serve.add_argument(
        "--workers", type=workers_value, default=None,
        help="worker threads per assignment call (default 1; labels "
        "identical for every value)",
    )
    p_serve.add_argument(
        "--chunk-size", type=positive_int, default=None,
        help="default rows scored per block (default 8192)",
    )
    p_serve.add_argument(
        "--no-follow", action="store_true",
        help="pin the server: never auto-reload on a LATEST move; only an "
        "explicit POST /reload changes the serving version (fleet-worker mode)",
    )
    p_serve.add_argument(
        "--pin", default=None, metavar="VERSION",
        help="start serving this registry version instead of LATEST "
        "(implies --no-follow)",
    )
    p_serve.add_argument(
        "--announce", type=Path, default=None, metavar="FILE",
        help="after binding, atomically write {url, host, port, uds, pid, "
        "version} as JSON to FILE (how a fleet supervisor discovers its "
        "workers)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log every request",
    )

    # ----------------------------------------------------------- fleet #
    p_fleet = sub.add_parser(
        "fleet",
        help="run a multi-process serving fleet with canary rollouts",
        description="Supervise N pinned assignment-server processes behind "
        "one round-robin proxy port. Workers never follow LATEST on their "
        "own: 'fleet rollout' moves a canary first, replays a pinned probe "
        "batch through it, verifies the labels bit-for-bit, then staggers "
        "the rest (automatic LATEST rollback on mismatch).",
    )
    fleet_sub = p_fleet.add_subparsers(
        dest="fleet_command", required=True, metavar="action"
    )
    p_up = fleet_sub.add_parser(
        "up", help="start the workers + proxy in the foreground"
    )
    p_up.add_argument(
        "--registry", type=Path, required=True, help="registry root directory"
    )
    p_up.add_argument(
        "--workers", type=positive_int, default=2,
        help="worker processes (default 2)",
    )
    p_up.add_argument("--host", default="127.0.0.1", help="bind address")
    p_up.add_argument(
        "--port", type=int, default=8100,
        help="proxy port fronting the fleet (0 picks an ephemeral port; "
        "default 8100); workers get ephemeral ports of their own",
    )
    p_up.add_argument(
        "--chunk-size", type=positive_int, default=None,
        help="default rows scored per block per worker",
    )
    p_up.add_argument(
        "--state-dir", type=Path, default=None,
        help="fleet state/log directory (default <registry>/.fleet)",
    )
    p_up.add_argument(
        "--transport", choices=["auto", "tcp", "uds"], default="auto",
        help="worker transport: Unix domain sockets under the state dir, "
        "TCP loopback, or auto (UDS when the platform and path length "
        "allow it; default auto)",
    )
    p_up.add_argument(
        "--stagger", type=float, default=0.0, metavar="SECONDS",
        help="pause between post-canary worker reloads (default 0)",
    )
    p_up.add_argument(
        "--probe-rows", type=positive_int, default=64,
        help="rows in the pinned canary probe batch (default 64)",
    )
    for name, help_text in (
        ("status", "fleet-wide health: one row per worker"),
        ("rollout", "canary-roll the fleet to a registry version"),
    ):
        p_action = fleet_sub.add_parser(name, help=help_text)
        p_action.add_argument(
            "--url", default=None,
            help="proxy base URL (default: read from the fleet state file)",
        )
        p_action.add_argument(
            "--registry", type=Path, default=None,
            help="registry root (locates <registry>/.fleet/fleet.json)",
        )
        p_action.add_argument(
            "--state-dir", type=Path, default=None,
            help="fleet state directory override",
        )
        if name == "rollout":
            p_action.add_argument(
                "--version", default=None,
                help="candidate version (default: the current LATEST target)",
            )
            p_action.add_argument(
                "--require-identical", action="store_true",
                help="also require the canary's labels to equal the current "
                "fleet's labels on the probe (bit-identity republish mode)",
            )

    # ----------------------------------------------------------- trace #
    p_trace = sub.add_parser(
        "trace",
        help="render request traces from a span sink as trees",
        description="Read the JSONL span sink written by traced serving "
        "requests (REPRO_TRACE_SINK) and render each X-Trace-Id's spans "
        "as a parent/child tree: proxy ingress, per-worker lanes "
        "(including dead-lane replays), and server-side assignment.",
    )
    p_trace.add_argument(
        "sink", type=Path,
        help="span sink file (the path REPRO_TRACE_SINK pointed at)",
    )
    p_trace.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="render only this trace (default: every trace in the sink)",
    )
    p_trace.add_argument(
        "--list", action="store_true", dest="list_traces",
        help="one summary line per trace instead of full trees",
    )

    # -------------------------------------------------------- registry #
    p_registry = sub.add_parser(
        "registry",
        help="publish, list, roll back and prune serving artifacts",
        description="Manage a directory-of-artifacts model registry: "
        "versioned ClusterModel directories plus an atomically-updated "
        "LATEST pointer that live servers hot-reload.",
    )
    reg_sub = p_registry.add_subparsers(
        dest="registry_command", required=True, metavar="action"
    )
    for name, help_text in (
        ("publish", "copy an artifact into the registry as a new version"),
        ("list", "list published versions (the LATEST target is starred)"),
        ("rollback", "repoint LATEST at an earlier version"),
        ("prune", "delete old versions beyond a retention window"),
    ):
        p_action = reg_sub.add_parser(name, help=help_text)
        p_action.add_argument(
            "--registry", type=Path, required=True, help="registry root directory"
        )
        if name == "publish":
            p_action.add_argument(
                "--model", "-m", type=Path, required=True,
                help="artifact directory written by 'repro fit'",
            )
            p_action.add_argument(
                "--label", default=None,
                help="human suffix for the version directory name",
            )
            p_action.add_argument(
                "--no-latest", action="store_true",
                help="stage the version without repointing LATEST",
            )
        elif name == "rollback":
            p_action.add_argument(
                "--steps", type=positive_int, default=1,
                help="versions to walk back from LATEST (default 1)",
            )
            p_action.add_argument(
                "--to", default=None, help="explicit version id to roll to"
            )
        elif name == "prune":
            p_action.add_argument(
                "--retention", type=positive_int, required=True,
                help="newest versions to keep (the LATEST target is always kept)",
            )

    return parser


# --------------------------------------------------------------------- #
# Data loading                                                            #
# --------------------------------------------------------------------- #


def _build_dataset(name: str, adult_n: int | None, seed: int) -> Any:
    from .experiments.paper import build_adult, build_kinematics

    if name == "adult":
        return build_adult(adult_n or bench_scale()[1])
    if name == "kinematics":
        return build_kinematics()
    from .data.synthetic import make_fair_problem

    return make_fair_problem(600, seed=seed)


def load_points_file(path: Path) -> tuple[np.ndarray, dict[str, np.ndarray] | None]:
    """Read a feature-matrix file; returns ``(points, sensitive|None)``.

    ``.npz`` files must hold a ``points`` array and may carry sensitive
    attributes as ``sensitive_<name>`` arrays; ``.npy`` and ``.csv``
    hold the matrix alone.
    """
    suffix = path.suffix.lower()
    if suffix == ".npz":
        with np.load(path) as arrays:
            if "points" not in arrays:
                raise ValueError(f"{path}: .npz input needs a 'points' array")
            points = np.asarray(arrays["points"], dtype=np.float64)
            sensitive = {
                key[len(SENSITIVE_PREFIX):]: np.asarray(arrays[key])
                for key in arrays.files
                if key.startswith(SENSITIVE_PREFIX)
            }
        return points, sensitive or None
    if suffix == ".npy":
        return np.asarray(np.load(path), dtype=np.float64), None
    if suffix == ".csv":
        # ndmin=2 keeps a single-column file as (n, 1) instead of (1, n).
        return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2), None
    raise ValueError(f"{path}: unsupported data format {suffix!r} (.npy/.npz/.csv)")


def _require_one_source(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    if (args.dataset is None) == (args.data is None):
        parser.error("exactly one of --dataset or --data is required")


def _load_data_file(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[np.ndarray, dict[str, np.ndarray] | None]:
    """:func:`load_points_file` on ``--data``; an unreadable file is a
    usage error (exit 2), like an unreadable ``--config``."""
    try:
        return load_points_file(args.data)
    except (OSError, ValueError) as exc:
        parser.error(f"--data {args.data}: {exc}")
        raise AssertionError("unreachable")  # parser.error exits


def _resolve_fit_inputs(
    args: argparse.Namespace, parser: argparse.ArgumentParser, config: RunConfig
) -> tuple[Any, Any]:
    """(points-or-dataset, sensitive) for the ``fit`` command."""
    _require_one_source(args, parser)
    if args.dataset is not None:
        return _build_dataset(args.dataset, args.adult_n, config.seed), None
    points, sensitive = _load_data_file(args, parser)
    if sensitive is None and METHOD_REGISTRY[config.method].scope != "none":
        parser.error(
            f"--data {args.data}: method {config.method!r} needs sensitive attributes; "
            f"store them as {SENSITIVE_PREFIX}<name> arrays next to 'points' in an .npz file"
        )
    return points, sensitive


# --------------------------------------------------------------------- #
# Subcommand implementations                                              #
# --------------------------------------------------------------------- #


def _cmd_fit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        base = RunConfig.from_json(args.config.read_text()) if args.config else RunConfig()
    except (OSError, ValueError) as exc:
        parser.error(f"--config {args.config}: {exc}")
        raise AssertionError("unreachable")
    sensitive_names = (
        tuple(s.strip() for s in args.sensitive.split(",") if s.strip())
        if args.sensitive
        else None
    )
    config = base.with_overrides(
        method=args.method,
        k=args.k,
        lambda_=args.lambda_,
        engine=args.engine,
        chunk_size=args.chunk_size,
        backend=args.backend,
        workers=args.workers,
        max_iter=args.max_iter,
        seed=args.seed,
        scale_features=False if args.no_scale else None,
        sensitive=sensitive_names,
    )
    data, sensitive = _resolve_fit_inputs(args, parser, config)
    if args.metrics_out is not None:
        # The engine publishes per-sweep diagnostics into the process
        # registry; reset it first so the profile covers this fit only.
        from .obs import get_registry, reset_registry

        reset_registry()
    model = api_fit(config, data, sensitive=sensitive)
    path = model.save(args.out)
    print(model.summary())
    print(f"saved: {path}")
    if args.metrics_out is not None:
        import json

        profile = {
            "schema": "repro.fit-profile/v1",
            "metrics": get_registry().snapshot(),
            "diagnostics": model.diagnostics,
        }
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_out.write_text(
            json.dumps(profile, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"metrics profile written to {args.metrics_out}")
    return 0


def _load_model(path: Path, parser: argparse.ArgumentParser) -> ClusterModel:
    try:
        return ClusterModel.load(path)
    except (FileNotFoundError, ValueError) as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")  # parser.error exits


def _cmd_predict(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    model = _load_model(args.model, parser)
    _require_one_source(args, parser)
    if args.dataset is not None:
        dataset = _build_dataset(args.dataset, args.adult_n, model.config.seed)
        points = dataset.feature_matrix(scale=model.config.scale_features)
    else:
        points, _ = _load_data_file(args, parser)
    start = time.perf_counter()
    assigner = Assigner(model.centers, workers=args.workers)
    labels = assigner.assign(points, chunk_size=args.chunk_size)
    elapsed = time.perf_counter() - start
    counts = np.bincount(labels, minlength=model.k)
    rate = labels.size / elapsed if elapsed > 0 else float("inf")
    print(f"assigned {labels.size} points to k={model.k} clusters "
          f"in {elapsed:.3f}s ({rate:,.0f} rows/s)")
    print("cluster sizes:", counts.tolist())
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        if args.out.suffix.lower() == ".npy":
            np.save(args.out, labels)
        else:
            args.out.write_text("\n".join(str(x) for x in labels.tolist()) + "\n")
        print(f"labels written to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .api import evaluate_model
    from .experiments.tables import format_table

    model = _load_model(args.model, parser)
    if args.dataset is None:
        parser.error("--dataset is required for evaluate")
    dataset = _build_dataset(args.dataset, args.adult_n, model.config.seed)
    ev = evaluate_model(model, dataset)
    quality = ev.quality_dict()
    rows = [[key, f"{quality[key]:.4f}"] for key in ("CO", "SH")]
    print(format_table(["Measure", "Value"], rows,
                       title=f"{model.config.method} (k={model.k}) on {args.dataset}"))
    fairness_rows = [
        ["mean"] + [f"{ev.fairness.mean[m]:.4f}" for m in ("AE", "AW", "ME", "MW")]
    ]
    for attr in ev.fairness.attributes:
        fairness_rows.append(
            [attr.name] + [f"{attr[m]:.4f}" for m in ("AE", "AW", "ME", "MW")]
        )
    print()
    print(format_table(["Attribute", "AE", "AW", "ME", "MW"], fairness_rows,
                       title="Fairness (lower is better)"))
    return 0


def _cmd_paper(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.experiment == "list":
        for name, (_, description) in EXPERIMENTS.items():
            print(f"{name:10s} {description}")
        return 0
    settings = BenchSettings.resolve(
        seeds=args.seeds,
        adult_n=args.adult_n,
        full=args.full,
        engine=args.engine,
        chunk_size=args.chunk_size,
    )
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        fn, description = EXPERIMENTS[name]
        print(f"== {name}: {description} ==")
        start = time.time()
        print(fn(settings))
        print(f"[{name} done in {time.time() - start:.1f}s]\n")
    return 0


def _cmd_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import json

    from .core.parallel import resolve_workers
    from .perf.harness import render_bench, run_bench, validate_bench

    if args.suite == "compare":
        return _bench_compare(args, parser)
    if args.paths:
        parser.error("positional BENCH_JSON files are only for 'bench compare'")
    if args.threshold is not None:
        parser.error("--threshold is only for 'bench compare'")
    start = time.time()
    written = run_bench(
        args.suite,
        smoke=args.smoke,
        max_jobs=resolve_workers(args.workers),
        out_dir=args.out,
        repeats=args.repeats,
    )
    for suite, path in written.items():
        payload = json.loads(path.read_text(encoding="utf-8"))
        validate_bench(payload)  # what CI runs against the emitted file
        print(render_bench(payload))
        print(f"[{suite}] written: {path}\n")
    print(f"[bench done in {time.time() - start:.1f}s]")
    return 0


def _bench_compare(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import json

    from .perf.compare import (
        DEFAULT_THRESHOLD,
        backend_gate,
        compare_bench_files,
        fleet_gate,
        obs_gate,
        render_comparison,
        render_gate,
    )

    if len(args.paths) != 2:
        parser.error("bench compare needs exactly two files: BASELINE CURRENT")
    baseline, current = args.paths
    try:
        comparison = compare_bench_files(
            baseline,
            current,
            threshold=args.threshold if args.threshold is not None else DEFAULT_THRESHOLD,
        )
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")
    print(render_comparison(comparison))
    ok = comparison.ok
    current_payload = json.loads(Path(current).read_text(encoding="utf-8"))
    # Suites with their own acceptance bar, checked on the current file
    # alone: fleet workers and training processes must multiply
    # throughput, and serving telemetry must stay near-free.
    gates = {"fleet": fleet_gate, "backend": backend_gate, "serve": obs_gate}
    gate = gates.get(current_payload.get("suite"))
    if gate is not None:
        report = gate(current_payload)
        print(render_gate(report))
        ok = ok and report.ok
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .serving import AssignmentServer, RegistryError, serve_forever

    if (args.registry is None) == (args.model is None):
        parser.error("exactly one of --registry or --model is required")
    try:
        server = AssignmentServer(
            registry=args.registry,
            model_path=args.model,
            host=args.host,
            port=args.port,
            uds=args.uds,
            workers=args.workers,
            chunk_size=args.chunk_size,
            follow=not args.no_follow,
            pin_version=args.pin,
            quiet=not args.verbose,
        )
    except (RegistryError, FileNotFoundError, ValueError, OSError) as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")
    snap = server.snapshot()
    if args.announce is not None:
        _announce(args.announce, server, snap.version)
    print(f"serving {snap.version} (method={snap.model.config.method}, "
          f"k={snap.model.k}, d={snap.model.n_features}) on {server.url}")
    print("endpoints: POST /assign  GET /healthz  GET /model  POST /reload")
    serve_forever(server)
    return 0


def _announce(path: Path, server: Any, version: str) -> None:
    """Atomically write the bound-address announce file for supervisors."""
    import json
    import os

    from .serving.registry import atomic_write_text

    address = server.server_address
    uds = address if isinstance(address, (str, bytes)) else None
    if isinstance(uds, bytes):
        uds = uds.decode("utf-8", "surrogateescape")
    payload = {
        "url": server.url,
        "host": None if uds else address[0],
        "port": server.port,
        "uds": uds,
        "pid": os.getpid(),
        "version": version,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, json.dumps(payload) + "\n")


def _cmd_fleet(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.fleet_command == "up":
        return _fleet_up(args, parser)
    if args.fleet_command == "status":
        return _fleet_status(args, parser)
    return _fleet_rollout(args, parser)


def _fleet_up(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .serving import FleetError, FleetProxy, FleetSupervisor, RegistryError

    supervisor = FleetSupervisor(
        args.registry,
        workers=args.workers,
        host=args.host,
        chunk_size=args.chunk_size,
        state_dir=args.state_dir,
        probe_rows=args.probe_rows,
        stagger_s=args.stagger,
        transport=args.transport,
    )
    try:
        supervisor.start()
    except (RegistryError, FleetError, ValueError, OSError) as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")
    try:
        proxy = FleetProxy(supervisor, port=args.port)
    except OSError as exc:
        supervisor.stop()
        parser.error(str(exc))
        raise AssertionError("unreachable")
    state = supervisor.write_state(proxy.url)
    print(
        f"fleet up: {supervisor.n_workers} worker(s) serving "
        f"{supervisor.serving_version} behind {proxy.url}"
    )
    for index, url in supervisor.target_urls():
        print(f"  worker {index}: {url}")
    print(f"state file: {state}")
    print("proxy endpoints: POST /assign  GET /healthz  GET /model  "
          "GET /admin/status  POST /admin/rollout")

    # SIGTERM (kill, systemd stop, CI teardown) must tear the worker
    # processes down with us, exactly like Ctrl-C does.
    import signal

    def _terminate(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    previous_handler = signal.signal(signal.SIGTERM, _terminate)
    try:
        proxy.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_handler)
        proxy.server_close()
        supervisor.stop()
    return 0


def _cmd_chaos(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .faults.chaos import render_chaos, run_chaos_suite

    try:
        outcome = run_chaos_suite(
            seed=args.seed,
            smoke=args.smoke,
            requests=args.requests,
            workers=args.workers,
            out_dir=args.out,
            min_availability=args.min_availability,
        )
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")
    print(f"wrote {outcome['path']}")
    print(render_chaos(outcome["path"]))
    if not outcome["ok"]:
        for reason in outcome["reasons"]:
            print(f"chaos gate FAILED: {reason}", file=sys.stderr)
        return 1
    print("chaos gate passed: availability within budget, zero wrong answers")
    return 0


def _fleet_state_path(args: argparse.Namespace) -> Path | None:
    """The fleet state file implied by --state-dir/--registry, if any."""
    if getattr(args, "state_dir", None) is not None:
        return args.state_dir / "fleet.json"
    if getattr(args, "registry", None) is not None:
        return args.registry / ".fleet" / "fleet.json"
    return None


def _fleet_url(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    """Resolve the proxy URL from --url or the fleet state file."""
    import json

    if args.url:
        return args.url
    state_path = _fleet_state_path(args)
    if state_path is None:
        parser.error("one of --url, --registry or --state-dir is required")
        raise AssertionError("unreachable")
    if not state_path.is_file():
        parser.error(f"no fleet state file at {state_path} (is the fleet up?)")
    url = json.loads(state_path.read_text(encoding="utf-8")).get("proxy_url")
    if not url:
        parser.error(f"{state_path} records no proxy URL (is the fleet up?)")
    return url


def _pid_alive(pid: Any) -> bool:
    """True when *pid* names a live process we can see (signal-0 probe)."""
    import os

    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, TypeError, ValueError, OverflowError):
        return False
    except PermissionError:  # pragma: no cover - alive but not ours
        return True
    return True


def _fleet_stale_report(
    args: argparse.Namespace, url: str, exc: Exception
) -> str | None:
    """Diagnose an unreachable fleet via the PIDs its state file recorded.

    Returns a human-readable staleness report when the state file's
    supervisor (and workers) are dead — the usual aftermath of a
    SIGKILLed ``repro fleet up`` that never got to clean up — or
    ``None`` when there is no state file to consult or the recorded
    processes still look alive (a genuine connection problem).
    """
    import json

    state_path = _fleet_state_path(args)
    if state_path is None or not state_path.is_file():
        return None
    try:
        state = json.loads(state_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    supervisor_pid = state.get("pid")
    worker_pids = [w.get("pid") for w in state.get("workers", [])]
    supervisor_alive = supervisor_pid is not None and _pid_alive(supervisor_pid)
    live_workers = [p for p in worker_pids if p is not None and _pid_alive(p)]
    if supervisor_alive or live_workers:
        return None
    dead = [p for p in [supervisor_pid, *worker_pids] if p is not None]
    return (
        f"fleet state at {state_path} is STALE: {url} is unreachable ({exc}) "
        f"and none of its recorded processes are alive "
        f"(dead pids: {', '.join(str(p) for p in dead) or 'none recorded'}).\n"
        f"The fleet was likely killed without cleanup; start a new one with "
        f"'repro fleet up' (which rewrites the state file) or delete "
        f"{state_path}."
    )


def _fleet_status(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .experiments.tables import format_table
    from .serving import ServingClient, ServingClientError

    url = _fleet_url(args, parser)
    with ServingClient(url=url) as client:
        try:
            data = client.request_json("GET", "/admin/status")
        except ServingClientError as exc:
            stale = _fleet_stale_report(args, url, exc)
            if stale is not None:
                print(stale, file=sys.stderr)
                return 1
            parser.error(f"{url}: {exc}")
            raise AssertionError("unreachable")
        telemetry = _fleet_telemetry(client)
    rows = [
        [
            str(w["index"]),
            str(w["pid"] or "-"),
            str(w.get("uds") or w["port"]),
            "up" if w["alive"] else "DOWN",
            "ok" if w["healthy"] else "UNHEALTHY",
            w["version"] or "-",
            str(w["restarts"]),
            *_telemetry_cells(telemetry.get(str(w["index"]))),
        ]
        for w in data["workers"]
    ]
    print(format_table(
        ["worker", "pid", "address", "proc", "health", "version", "restarts",
         "reqs", "errs", "p50ms", "p99ms"],
        rows,
        title=f"Fleet at {url}: serving {data['version']} "
        f"(registry {data['registry']})",
    ))
    healthy = all(w["healthy"] for w in data["workers"])
    return 0 if healthy else 1


def _fleet_telemetry(client: Any) -> dict[str, dict[str, float]]:
    """Per-worker request/error/latency stats from ``/admin/metrics``.

    Returns ``{worker_label: {"requests", "errors", "p50", "p99"}}``
    (latencies in seconds; absent keys mean no samples). A fleet built
    before this endpoint existed — or mid-outage — yields ``{}`` and
    the status table simply shows dashes.
    """
    from .obs import parse_text, quantile_from_buckets
    from .serving import ServingClientError

    try:
        status, _, payload = client.request_raw("GET", "/admin/metrics", retry=False)
    except ServingClientError:
        return {}
    if status != 200:
        return {}
    try:
        families = parse_text(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return {}
    stats: dict[str, dict[str, float]] = {}
    buckets: dict[str, dict[float, float]] = {}
    for family in families:
        if family.name == "repro_http_requests_total":
            for sample in family.samples:
                worker = sample.labels.get("worker")
                if worker is None:
                    continue
                per = stats.setdefault(worker, {})
                per["requests"] = per.get("requests", 0.0) + sample.value
                if sample.labels.get("code", "").startswith(("4", "5")):
                    per["errors"] = per.get("errors", 0.0) + sample.value
        elif family.name == "repro_assign_latency_seconds":
            for sample in family.samples:
                worker = sample.labels.get("worker")
                if worker is None or not sample.name.endswith("_bucket"):
                    continue
                le = sample.labels.get("le")
                if le is None:
                    continue
                bound = float("inf") if le == "+Inf" else float(le)
                per_bounds = buckets.setdefault(worker, {})
                # Cumulative counts sum across modes bound-by-bound.
                per_bounds[bound] = per_bounds.get(bound, 0.0) + sample.value
    for worker, per_bounds in buckets.items():
        per = stats.setdefault(worker, {})
        for q, key in ((0.5, "p50"), (0.99, "p99")):
            value = quantile_from_buckets(per_bounds.items(), q)
            if value is not None:
                per[key] = value
    return stats


def _telemetry_cells(per: dict[str, float] | None) -> list[str]:
    """Render one worker's telemetry as table cells (dashes when absent)."""
    if not per:
        return ["-", "-", "-", "-"]
    return [
        str(int(per.get("requests", 0.0))),
        str(int(per.get("errors", 0.0))),
        f"{per['p50'] * 1000:.1f}" if "p50" in per else "-",
        f"{per['p99'] * 1000:.1f}" if "p99" in per else "-",
    ]


def _fleet_rollout(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import json

    from .serving import ServingClient, ServingUnavailableError

    url = _fleet_url(args, parser)
    body = json.dumps(
        {"version": args.version, "require_identical": args.require_identical}
    ).encode("utf-8")
    # Long timeout, no transparent retry: a staggered rollout can run for
    # minutes, and re-issuing the POST after a socket timeout would start
    # a second rollout (whose no-op "already serves" answer could mask a
    # rejection of the first).
    with ServingClient(url=url, timeout=3600.0) as client:
        try:
            status, _, payload = client.request_raw(
                "POST", "/admin/rollout", body, retry=False
            )
        except ServingUnavailableError as exc:
            parser.error(str(exc))
            raise AssertionError("unreachable")
    report = json.loads(payload.decode("utf-8"))
    if "error" in report:
        parser.error(report["error"])
    if report["ok"]:
        print(f"rollout ok: {report['previous']} -> {report['version']} "
              f"(canary worker {report['canary_worker']}, "
              f"{len(report['workers_reloaded'])} worker(s), "
              f"{report['probe_rows']}-row probe)")
        if report.get("reason"):
            print(report["reason"])
        return 0
    print(f"rollout REJECTED: {report['reason']}")
    print(f"workers reverted: {report['workers_reloaded'] or 'none'}; "
          f"LATEST rolled back: {report['rolled_back']}")
    return 1


def _cmd_trace(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .obs.trace import load_spans, render_trace_tree

    spans = load_spans(args.sink)
    if not spans:
        print(f"{args.sink}: no spans recorded", file=sys.stderr)
        return 1
    if args.list_traces:
        by_trace: dict[str, int] = {}
        for span in spans:
            by_trace[span.trace_id] = by_trace.get(span.trace_id, 0) + 1
        for trace_id in sorted(by_trace):
            print(f"{trace_id}  {by_trace[trace_id]} span(s)")
        return 0
    if args.trace_id is not None and not any(
        span.trace_id == args.trace_id for span in spans
    ):
        print(f"{args.sink}: no spans for trace {args.trace_id}", file=sys.stderr)
        return 1
    print(render_trace_tree(spans, trace_id=args.trace_id))
    return 0


def _cmd_registry(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from .serving import ModelRegistry, RegistryError

    registry = ModelRegistry(args.registry)
    try:
        if args.registry_command == "publish":
            version = registry.publish(
                args.model, label=args.label, set_latest=not args.no_latest
            )
            latest = " (LATEST)" if not args.no_latest else ""
            print(f"published {version}{latest} -> {registry.root / version}")
        elif args.registry_command == "list":
            versions = registry.list_versions()
            if not versions:
                print(f"{registry.root}: no published versions")
                return 0
            try:
                latest = registry.latest_version()
            except RegistryError:
                latest = None
            for version in versions:
                marker = " *" if version == latest else ""
                print(f"{version}{marker}")
        elif args.registry_command == "rollback":
            target = registry.rollback(steps=args.steps, to=args.to)
            print(f"LATEST -> {target}")
        elif args.registry_command == "prune":
            deleted = registry.prune(retention=args.retention)
            for version in deleted:
                print(f"deleted {version}")
            print(f"kept {len(registry.list_versions())} version(s)")
    except (RegistryError, FileNotFoundError, ValueError) as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "paper": _cmd_paper,
    "bench": _cmd_bench,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "fleet": _cmd_fleet,
    "registry": _cmd_registry,
    "trace": _cmd_trace,
}

def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except BrokenPipeError:
        # Downstream pager closed the pipe (`repro trace ... | head`):
        # detach stdout so the interpreter's exit flush cannot raise
        # again, and exit the POSIX way (128 + SIGPIPE).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
