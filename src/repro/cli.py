"""Command-line interface for the reproduction.

Usage (module form, no installation entry point required)::

    python -m repro.cli list
    python -m repro.cli run table_4 [--profile fast|paper] [--output results/]
    python -m repro.cli run all --output results/
    python -m repro.cli train --queries 72 --out model.bin
    python -m repro.cli estimate --model model.bin --queries 50
    python -m repro.cli estimate [--queries N] [--resource cpu|io|both]
    python -m repro.cli models inspect model.bin
    python -m repro.cli models list --registry registry/
    python -m repro.cli models diff --registry registry/ v0001 v0002
    python -m repro.cli models promote --registry registry/ v0002
    python -m repro.cli serve-bench [--mode closed|open] [--out results.json]
    python -m repro.cli adapt-bench [--out adaptive_loop.json]
    python -m repro.cli lint src/ tests/ [--format=github]

``run`` executes one registered experiment (or ``all`` of them) and prints
the regenerated table/figure; with ``--output`` the rendered results are
also written to one text file per experiment, mirroring what the benchmark
suite stores under ``benchmarks/results/``.

The train-once / serve-many workflow is split across three subcommands:

* ``train`` executes a TPC-H training workload, fits a SCALING estimator
  and writes it to a versioned model artifact (``--out``);
* ``estimate`` exercises the serving path through an
  :class:`~repro.api.EstimationService`: with ``--model`` it loads a
  persisted artifact (no retraining), otherwise it trains an identical
  estimator in memory first; either way a batch of freshly planned queries
  is estimated with one ``estimate_workload`` call;
* ``models inspect`` prints the format header and the
  :class:`~repro.core.serialization.ModelSizeReport` of an artifact — plus
  the registry manifest (corpus fingerprint, train metrics, lineage) when
  the artifact lives inside a :class:`~repro.adaptive.ModelRegistry`;
* ``models list`` / ``models diff`` / ``models promote`` operate on such a
  registry directly (``--registry``).

``adapt-bench`` drives the adaptive serving loop (:mod:`repro.adaptive`)
through a drifting TPC-H → TPC-DS mix: drift detection, background refit,
registry promotion and canary-checked hot-swap, recording pre-drift /
drifted / post-swap error; it exits 1 when any loop check fails, so CI can
gate on it directly.

``serve-bench`` drives the concurrent serving layer
(:mod:`repro.serving`) with a seeded closed- or open-loop load and
compares coalesced throughput against the single-caller sequential
baseline under a p99 latency budget; it exits 1 when the run records
request errors or misses the budget, so CI can gate on it directly.

``lint`` runs the static invariant checker of :mod:`repro.lint` over the
given paths.  Exit codes are uniform across every subcommand and flag
(including ``--version``): **0** success/clean, **1** runtime/data errors
(lint findings, missing or corrupt model artifacts), **2** usage errors
(bad flags, unknown experiments, resource mismatches).  ``main`` never
leaks :class:`SystemExit` to embedding callers — argparse exits are
converted to return codes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from repro import __version__
from repro.adaptive.registry import ModelRegistry, RegistryError, manifest_for_artifact
from repro.api.adapters import ADAPTER_MAGIC
from repro.api.service import EstimationService
from repro.catalog.statistics import StatisticsCatalog
from repro.catalog.tpch import build_tpch_catalog
from repro.core.estimator import ResourceEstimator
from repro.core.serialization import (
    ARTIFACT_VERSION,
    EstimatorCodecError,
    ModelSizeReport,
    load_estimator,
)
from repro.core.trainer import TrainerConfig
from repro.experiments.config import ExperimentConfig, get_config
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.features.definitions import FeatureMode
from repro.lint.cli import add_lint_arguments, run_lint_command
from repro.optimizer.planner import Planner
from repro.query.tpch_templates import tpch_template_set
from repro.serving import (
    SCENARIO_MIXES,
    LoadConfig,
    ServeBenchConfig,
    run_serve_bench,
    standard_scenarios,
)
from repro.workloads.datasets import build_training_data, split_workload
from repro.workloads.tpch import build_tpch_workload

__all__ = ["main", "build_parser", "train_scaling_estimator"]

#: Scale factor of the CLI's single-scale TPC-H training workload.
_TRAIN_SCALE = 0.1
#: Default number of executed queries in the CLI training workload.
_DEFAULT_TRAIN_QUERIES = 144
#: Default seed for the CLI training workload.
_DEFAULT_TRAIN_SEED = 7


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro.cli`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate the paper's evaluation; train, persist and serve estimators.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list the registered experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment",
        help="experiment identifier (see 'list'), or 'all'",
    )
    run_parser.add_argument(
        "--profile",
        choices=("fast", "paper"),
        default=None,
        help="experiment profile (default: REPRO_PROFILE or 'fast')",
    )
    run_parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="directory to write rendered results into (one file per experiment)",
    )

    train_parser = subparsers.add_parser(
        "train", help="train a SCALING estimator and save it as a model artifact"
    )
    train_parser.add_argument(
        "--out",
        type=Path,
        required=True,
        help="path of the model artifact to write",
    )
    train_parser.add_argument(
        "--queries",
        type=int,
        default=_DEFAULT_TRAIN_QUERIES,
        help=f"TPC-H queries executed for training data (default: {_DEFAULT_TRAIN_QUERIES})",
    )
    train_parser.add_argument(
        "--resource",
        choices=("cpu", "io", "both"),
        default="both",
        help="resource(s) to model (default: both)",
    )
    train_parser.add_argument(
        "--profile",
        choices=("fast", "paper"),
        default=None,
        help="experiment profile (default: REPRO_PROFILE or 'fast')",
    )
    train_parser.add_argument(
        "--train-seed",
        type=int,
        default=_DEFAULT_TRAIN_SEED,
        help=f"random seed of the training workload (default: {_DEFAULT_TRAIN_SEED})",
    )
    train_parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="override the profile's MART boosting iterations (smaller = faster)",
    )

    estimate_parser = subparsers.add_parser(
        "estimate", help="batch-estimate a freshly planned TPC-H workload"
    )
    estimate_parser.add_argument(
        "--model",
        type=Path,
        default=None,
        help="serve from this model artifact instead of retraining",
    )
    estimate_parser.add_argument(
        "--queries",
        type=int,
        default=100,
        help="number of queries to plan and estimate (default: 100)",
    )
    estimate_parser.add_argument(
        "--resource",
        choices=("cpu", "io", "both"),
        default="both",
        help="resource(s) to estimate (default: both)",
    )
    estimate_parser.add_argument(
        "--profile",
        choices=("fast", "paper"),
        default=None,
        help="experiment profile (default: REPRO_PROFILE or 'fast')",
    )
    estimate_parser.add_argument(
        "--seed",
        type=int,
        default=23,
        help="random seed for query generation (default: 23)",
    )
    estimate_parser.add_argument(
        "--show",
        type=int,
        default=10,
        help="number of per-query estimates to print (default: 10)",
    )
    estimate_parser.add_argument(
        "--train-queries",
        type=int,
        default=_DEFAULT_TRAIN_QUERIES,
        help="training-workload size when no --model is given "
        f"(default: {_DEFAULT_TRAIN_QUERIES})",
    )
    estimate_parser.add_argument(
        "--train-seed",
        type=int,
        default=_DEFAULT_TRAIN_SEED,
        help="training-workload seed when no --model is given "
        f"(default: {_DEFAULT_TRAIN_SEED})",
    )
    estimate_parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="override the profile's MART boosting iterations (in-memory training only)",
    )

    serve_parser = subparsers.add_parser(
        "serve-bench",
        help="benchmark concurrent coalesced serving against the sequential baseline",
    )
    serve_parser.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="load discipline: closed-loop workers or open-loop Poisson arrivals",
    )
    serve_parser.add_argument(
        "--requests",
        type=int,
        default=1200,
        help="measured requests after warmup (default: 1200)",
    )
    serve_parser.add_argument(
        "--warmup",
        type=int,
        default=100,
        help="warmup requests excluded from the measurement (default: 100)",
    )
    serve_parser.add_argument(
        "--concurrency",
        type=int,
        default=8,
        help="closed-loop worker threads (default: 8)",
    )
    serve_parser.add_argument(
        "--qps",
        type=float,
        default=200.0,
        help="open-loop offered arrival rate (default: 200)",
    )
    serve_parser.add_argument(
        "--seed",
        type=int,
        default=17,
        help="seed of the request trace (default: 17)",
    )
    serve_parser.add_argument(
        "--scenarios",
        choices=SCENARIO_MIXES,
        default="tpch",
        help="workload scenario mix (default: tpch)",
    )
    serve_parser.add_argument(
        "--pool-size",
        type=int,
        default=96,
        help="planned queries per scenario pool (default: 96)",
    )
    serve_parser.add_argument(
        "--max-batch-size",
        type=int,
        default=96,
        help="coalesced plans that close a micro-batch (default: 96, "
        "headroom above the standard mix's heaviest burst)",
    )
    serve_parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="longest a micro-batch waits for more requests (default: 2.0)",
    )
    serve_parser.add_argument(
        "--max-p99-ms",
        type=float,
        default=None,
        help="additional absolute p99 cap in ms (exit 1 when exceeded)",
    )
    serve_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the structured JSON record to this path",
    )
    serve_parser.add_argument(
        "--model",
        type=Path,
        default=None,
        help="serve from this model artifact instead of retraining",
    )
    serve_parser.add_argument(
        "--resource",
        choices=("cpu", "io", "both"),
        default="both",
        help="resource(s) to serve (default: both)",
    )
    serve_parser.add_argument(
        "--profile",
        choices=("fast", "paper"),
        default=None,
        help="experiment profile (default: REPRO_PROFILE or 'fast')",
    )
    serve_parser.add_argument(
        "--train-queries",
        type=int,
        default=_DEFAULT_TRAIN_QUERIES,
        help="training-workload size when no --model is given "
        f"(default: {_DEFAULT_TRAIN_QUERIES})",
    )
    serve_parser.add_argument(
        "--train-seed",
        type=int,
        default=_DEFAULT_TRAIN_SEED,
        help="training-workload seed when no --model is given "
        f"(default: {_DEFAULT_TRAIN_SEED})",
    )
    serve_parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="override the profile's MART boosting iterations (in-memory training only)",
    )

    models_parser = subparsers.add_parser(
        "models", help="inspect artifacts and manage model registries"
    )
    models_sub = models_parser.add_subparsers(dest="models_command")
    inspect_parser = models_sub.add_parser(
        "inspect", help="print format header, size report and registry manifest"
    )
    inspect_parser.add_argument("artifact", type=Path, help="model artifact path")
    list_parser = models_sub.add_parser(
        "list", help="list the versions of a model registry"
    )
    list_parser.add_argument(
        "--registry", type=Path, required=True, help="registry root directory"
    )
    diff_parser = models_sub.add_parser(
        "diff", help="compare two registry versions (manifests + metrics)"
    )
    diff_parser.add_argument(
        "--registry", type=Path, required=True, help="registry root directory"
    )
    diff_parser.add_argument("version_a", help="first version (e.g. v0001)")
    diff_parser.add_argument("version_b", help="second version (e.g. v0002)")
    promote_parser = models_sub.add_parser(
        "promote", help="make a registered version the active model"
    )
    promote_parser.add_argument(
        "--registry", type=Path, required=True, help="registry root directory"
    )
    promote_parser.add_argument("version", help="version to promote (e.g. v0002)")

    adapt_parser = subparsers.add_parser(
        "adapt-bench",
        help="drive the adaptive loop through a drifting TPC-H -> TPC-DS mix",
    )
    adapt_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the structured JSON record to this path",
    )
    adapt_parser.add_argument(
        "--registry",
        type=Path,
        default=None,
        help="keep the model registry here (default: a temporary directory)",
    )
    adapt_parser.add_argument(
        "--train-queries",
        type=int,
        default=96,
        help="TPC-H queries executed to train the incumbent (default: 96)",
    )
    adapt_parser.add_argument(
        "--iterations",
        type=int,
        default=30,
        help="MART boosting iterations for incumbent and refits (default: 30)",
    )
    adapt_parser.add_argument(
        "--pool-size",
        type=int,
        default=32,
        help="planned queries per serving pool (default: 32)",
    )
    adapt_parser.add_argument(
        "--pre",
        type=int,
        default=96,
        help="pre-drift TPC-H requests (default: 96)",
    )
    adapt_parser.add_argument(
        "--drift",
        type=int,
        default=192,
        help="drifted TPC-DS requests (default: 192)",
    )
    adapt_parser.add_argument(
        "--post",
        type=int,
        default=96,
        help="post-swap TPC-DS requests (default: 96)",
    )
    adapt_parser.add_argument(
        "--seed",
        type=int,
        default=29,
        help="seed of workloads, pools and the refit split (default: 29)",
    )
    adapt_parser.add_argument(
        "--trip-threshold",
        type=float,
        default=0.25,
        help="rolling median relative error that trips drift (default: 0.25)",
    )
    adapt_parser.add_argument(
        "--max-batch-size",
        type=int,
        default=16,
        help="coalesced plans that close a micro-batch (default: 16)",
    )
    adapt_parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=0.5,
        help="longest a micro-batch waits for more requests (default: 0.5)",
    )

    lint_parser = subparsers.add_parser(
        "lint", help="check the repo's estimation invariants (static analysis)"
    )
    add_lint_arguments(lint_parser)
    return parser


def _run_one(experiment_id: str, config, output_dir: Path | None) -> str:
    started = time.perf_counter()
    result = run_experiment(experiment_id, config)
    elapsed = time.perf_counter() - started
    text = result.render()
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
        (output_dir / f"{experiment_id}.txt").write_text(text + "\n", encoding="utf-8")
    return f"{text}\n[{experiment_id} completed in {elapsed:.1f}s]"


# ---------------------------------------------------------------------------
# train / estimate / models
# ---------------------------------------------------------------------------

def train_scaling_estimator(
    config: ExperimentConfig,
    resources: tuple[str, ...],
    n_queries: int = _DEFAULT_TRAIN_QUERIES,
    seed: int = _DEFAULT_TRAIN_SEED,
    iterations: int | None = None,
) -> ResourceEstimator:
    """Train the CLI's SCALING estimator (shared by ``train`` and ``estimate``).

    Deterministic in its arguments: ``train --out`` followed by
    ``estimate --model`` reproduces exactly what ``estimate`` without a
    model would have computed in memory with the same training parameters.
    """
    workload = build_tpch_workload(
        scale_factor=_TRAIN_SCALE,
        skew_z=config.tpch_skew,
        n_queries=n_queries,
        seed=seed,
    )
    train, _ = split_workload(workload, config.train_fraction, seed=config.seed)
    mart = config.mart
    if iterations is not None:
        mart = dataclasses.replace(mart, n_iterations=iterations)
    training_data = build_training_data(train, FeatureMode.EXACT)
    return ResourceEstimator.train(
        training_data,
        FeatureMode.EXACT,
        resources=resources,
        config=TrainerConfig(mart=mart),
    )


def _resources_from_arg(resource: str) -> tuple[str, ...]:
    return ("cpu", "io") if resource == "both" else (resource,)


def _run_train(args: argparse.Namespace) -> int:
    """Fit a SCALING estimator and persist it as a versioned artifact."""
    config = get_config(args.profile)
    resources = _resources_from_arg(args.resource)

    # Fail on an unwritable output path *before* the expensive training run.
    # The probe file is removed again so a failed or interrupted training
    # never leaves a zero-byte artifact behind.
    existed_before = args.out.exists()
    try:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.touch()
        if not existed_before:
            args.out.unlink()
    except OSError as exc:
        print(f"error: cannot write artifact {args.out}: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    estimator = train_scaling_estimator(
        config, resources, n_queries=args.queries, seed=args.train_seed,
        iterations=args.iterations,
    )
    train_seconds = time.perf_counter() - started

    try:
        estimator.save(args.out)
    except OSError as exc:
        print(f"error: cannot write artifact {args.out}: {exc}", file=sys.stderr)
        return 2
    artifact_bytes = args.out.stat().st_size
    report = ModelSizeReport.for_estimator(estimator)
    families = sorted({family.value for family, _ in estimator.model_sets})
    print(f"trained SCALING estimator on {args.queries} TPC-H queries "
          f"(profile={config.profile}, resources={'+'.join(resources)}) "
          f"in {train_seconds:.1f}s")
    print(f"model families: {', '.join(families)}")
    print(f"model sets: {report.n_model_sets}, models: {report.n_models}, "
          f"compact size: {report.total_bytes / 1024.0:.1f} KB")
    print(f"artifact: {args.out} ({artifact_bytes / 1024.0:.1f} KB, "
          f"format v{ARTIFACT_VERSION})")
    return 0


class _UsageError(Exception):
    """A request the CLI cannot serve as asked (exit code 2, not a data error)."""


def _load_native_estimator(path: Path) -> ResourceEstimator:
    """Load an artifact the CLI can serve, with a clear error otherwise.

    Technique-adapter artifacts are rejected on their magic bytes alone —
    they embed a pickle, which must never be deserialised just to find out
    the file is not servable here.
    """
    try:
        with path.open("rb") as handle:
            prefix = handle.read(len(ADAPTER_MAGIC))
    except OSError as exc:
        raise EstimatorCodecError(f"cannot read artifact {path}: {exc}") from exc
    if prefix == ADAPTER_MAGIC:
        raise EstimatorCodecError(
            f"{path} contains a pickled baseline technique; the CLI serves "
            "SCALING artifacts — load baseline artifacts with "
            "repro.api.load_artifact() instead"
        )
    return load_estimator(path)


def _serving_service(args: argparse.Namespace, config, resources) -> tuple[EstimationService, tuple[str, ...], str]:
    """Build the serving session: from an artifact, or train in memory."""
    if args.model is not None:
        service = EstimationService(_load_native_estimator(args.model))
        available = service.resources
        missing = [r for r in resources if r not in available]
        if missing and args.resource != "both":
            raise _UsageError(
                f"artifact {args.model} models {available}, not {missing[0]!r}"
            )
        served = tuple(r for r in resources if r in available) or available
        source = f"loaded from {args.model} (no retraining)"
        if missing:
            source += f"; artifact models {'+'.join(served)} only"
        return service, served, source
    estimator = train_scaling_estimator(
        config, resources, n_queries=args.train_queries, seed=args.train_seed,
        iterations=args.iterations,
    )
    return EstimationService(estimator), resources, "trained in memory"


def _run_estimate(args: argparse.Namespace) -> int:
    """Serve estimates for a fresh workload through an EstimationService."""
    config = get_config(args.profile)
    requested = _resources_from_arg(args.resource)
    try:
        service, resources, source = _serving_service(args, config, requested)
    except (EstimatorCodecError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    catalog = build_tpch_catalog(scale_factor=_TRAIN_SCALE, skew_z=config.tpch_skew)
    planner = Planner(catalog, StatisticsCatalog(catalog))
    queries = tpch_template_set().generate(catalog, args.queries, seed=args.seed)
    plans = [planner.plan(query) for query in queries]

    started = time.perf_counter()
    estimate = service.estimate_workload(plans, resources)
    elapsed = time.perf_counter() - started
    n_operators = sum(plan.operator_count() for plan in plans)

    unit = {"cpu": "us", "io": "logical reads"}
    print(f"model: {source}")
    for index in range(min(args.show, estimate.n_plans)):
        parts = ", ".join(
            f"{resource}={estimate.query(index, resource):,.0f} {unit[resource]}"
            for resource in resources
        )
        print(f"{plans[index].query.name}: {parts}")
    if estimate.n_plans > args.show:
        print(f"... and {estimate.n_plans - args.show} more queries")
    print()
    for resource in resources:
        total = float(estimate.query_totals(resource).sum())
        print(f"workload total ({resource}): {total:,.0f} {unit[resource]}")
    report = estimate.degradation
    if report is not None and not report.clean:
        print(f"degradation: {report.summary()}")
    print(
        f"estimated {estimate.n_plans} queries / {n_operators} operators "
        f"x {len(resources)} resource(s) in {elapsed:.3f}s "
        f"({estimate.n_plans / max(elapsed, 1e-12):,.0f} queries/s)"
    )
    return 0


def _run_serve_bench(args: argparse.Namespace) -> int:
    """Benchmark coalesced concurrent serving and gate on its SLOs."""
    config = get_config(args.profile)
    requested = _resources_from_arg(args.resource)
    try:
        load = LoadConfig(
            mode=args.mode,
            requests=args.requests,
            warmup=args.warmup,
            concurrency=args.concurrency,
            qps=args.qps,
            seed=args.seed,
        )
        bench_config = ServeBenchConfig(
            load=load,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        service, _, source = _serving_service(args, config, requested)
    except (EstimatorCodecError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    scenarios = standard_scenarios(args.scenarios, pool_size=args.pool_size)
    result = run_serve_bench(service, scenarios, bench_config)

    print(f"model: {source}")
    print(result.render())
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(result.to_record(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"record: {args.out}")

    failed = False
    if result.report.errors:
        print(f"FAIL: {result.report.errors} request error(s)", file=sys.stderr)
        failed = True
    if not result.p99_within_budget:
        print(
            f"FAIL: p99 {result.report.latency.p99_ms:.2f} ms over the "
            f"{result.p99_budget_ms:.2f} ms budget",
            file=sys.stderr,
        )
        failed = True
    if args.max_p99_ms is not None and result.report.latency.p99_ms > args.max_p99_ms:
        print(
            f"FAIL: p99 {result.report.latency.p99_ms:.2f} ms over the "
            f"--max-p99-ms cap of {args.max_p99_ms:g} ms",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _open_registry(path: Path) -> ModelRegistry:
    """Open an *existing* registry; a missing directory is a data error."""
    if not path.is_dir():
        raise FileNotFoundError(f"model registry {path} does not exist")
    return ModelRegistry(path)


def _run_models_list(args: argparse.Namespace) -> int:
    """List every version of a registry, newest last."""
    try:
        registry = _open_registry(args.registry)
        versions = registry.versions()
        active = registry.active
        rows = [(version, registry.manifest(version)) for version in versions]
    except (FileNotFoundError, RegistryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not rows:
        print(f"registry {args.registry}: no registered models")
        return 0
    print(f"registry {args.registry}: {len(rows)} version(s), active: {active or '-'}")
    header = f"{'version':<8} {'status':<10} {'checksum':<14} {'corpus':<24} metrics"
    print(header)
    for version, manifest in rows:
        corpus = (
            f"{manifest.corpus.get('name', '?')} "
            f"({manifest.corpus.get('n_queries', '?')}q)"
        )
        metrics = "; ".join(
            f"{resource} " + ", ".join(f"{k}={v:.3f}" for k, v in sorted(values.items()))
            for resource, values in sorted(manifest.metrics.items())
        )
        marker = "*" if version == active else " "
        print(
            f"{version:<7}{marker} {manifest.status:<10} "
            f"{manifest.checksum[:12]:<14} {corpus:<24} {metrics or '-'}"
        )
    return 0


def _run_models_diff(args: argparse.Namespace) -> int:
    """Print a structured comparison of two registry versions."""
    try:
        registry = _open_registry(args.registry)
        diff = registry.diff(args.version_a, args.version_b)
    except (FileNotFoundError, RegistryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = diff["status"]
    assert isinstance(status, dict)
    print(f"diff {args.version_a} ({status['a']}) -> {args.version_b} ({status['b']})")
    print(f"identical artifacts: {'yes' if diff['identical_artifacts'] else 'no'}")
    print(f"corpus changed: {'yes' if diff['corpus_changed'] else 'no'}")
    corpus = diff["corpus"]
    assert isinstance(corpus, dict)
    for side in ("a", "b"):
        fp = corpus[side]
        print(
            f"  {side}: {fp.get('name', '?')} — {fp.get('n_queries', '?')} queries / "
            f"{fp.get('n_operators', '?')} operators, digest "
            f"{str(fp.get('digest', '?'))[:12]}"
        )
    metrics_delta = diff["metrics_delta"]
    metrics = diff["metrics"]
    assert isinstance(metrics_delta, dict) and isinstance(metrics, dict)
    for resource, deltas in sorted(metrics_delta.items()):
        for metric, delta in sorted(deltas.items()):
            print(f"  {resource}/{metric}: {delta:+.4f} (b - a)")
        one_sided = (
            set(metrics["a"].get(resource, {})) ^ set(metrics["b"].get(resource, {}))
        )
        for metric in sorted(one_sided):
            side = "a" if metric in metrics["a"].get(resource, {}) else "b"
            value = metrics[side][resource][metric]
            print(
                f"  {resource}/{metric}: {value:.4f} on {side} only "
                f"({'b' if side == 'a' else 'a'} unmeasured)"
            )
    lineage = diff["lineage"]
    assert isinstance(lineage, dict)
    print(
        f"lineage: {args.version_a} <- {lineage['a_parent'] or 'seed'}, "
        f"{args.version_b} <- {lineage['b_parent'] or 'seed'}"
    )
    return 0


def _run_models_promote(args: argparse.Namespace) -> int:
    """Promote a registered version to active."""
    try:
        registry = _open_registry(args.registry)
        previous = registry.active
        manifest = registry.promote(args.version, note="promoted via CLI")
    except (FileNotFoundError, RegistryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"promoted {manifest.version} (checksum {manifest.checksum[:12]}); "
        f"previous active: {previous or '-'}"
    )
    return 0


def _run_adapt_bench(args: argparse.Namespace) -> int:
    """Run the adaptive-loop scenario and gate on its checks."""
    from repro.adaptive.bench import run_adapt_bench

    try:
        record = run_adapt_bench(
            out_path=args.out,
            registry_root=args.registry,
            train_queries=args.train_queries,
            iterations=args.iterations,
            pool_size=args.pool_size,
            pre_requests=args.pre,
            drift_requests=args.drift,
            post_requests=args.post,
            seed=args.seed,
            trip_threshold=args.trip_threshold,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    phases = record["phases"]
    checks = record["checks"]
    serving = record["serving"]
    registry_state = record["registry"]
    assert isinstance(phases, dict) and isinstance(checks, dict)
    assert isinstance(serving, dict) and isinstance(registry_state, dict)
    for name in ("pre_drift", "drifted", "post_swap"):
        phase = phases[name]
        errors = ", ".join(
            f"{resource}={value:.3f}"
            for resource, value in sorted(phase["median_relative_error"].items())
        )
        print(
            f"{name:>9}: {phase['requests']} requests, "
            f"median relative error {errors}, "
            f"swaps {phase['swaps_during_phase']}"
        )
    print(
        f"registry: {len(registry_state['versions'])} version(s), "
        f"active {registry_state['active']}"
    )
    print(
        f"serving: {serving['requests']} requests, "
        f"{serving['failed_requests']} failed, {serving['dropped_requests']} dropped, "
        f"{serving['swaps']} swap(s), {serving['failed_swaps']} failed swap(s)"
    )
    if args.out is not None:
        print(f"record: {args.out}")
    failed = False
    for check, passed in sorted(checks.items()):
        if not passed:
            print(f"FAIL: check {check!r} did not hold", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def _run_models_inspect(args: argparse.Namespace) -> int:
    """Print the format header and ModelSizeReport of a model artifact."""
    try:
        estimator = _load_native_estimator(args.artifact)
    except (EstimatorCodecError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = ModelSizeReport.for_estimator(estimator)
    print(f"artifact: {args.artifact} ({args.artifact.stat().st_size:,} bytes on disk)")
    print(f"format version: {ARTIFACT_VERSION}")
    print(f"feature mode: {estimator.feature_mode.value}")
    print(f"resources: {', '.join(estimator.resources)}")
    families = sorted({family.value for family, _ in estimator.model_sets})
    print(f"families: {', '.join(families)}")
    print(f"model sets: {report.n_model_sets}")
    print(f"models: {report.n_models}")
    print(f"compact-encoding size: {report.total_bytes:,} bytes")
    print(f"largest single model: {report.largest_single_model_bytes:,} bytes")
    ensembles: dict[int, object] = {}
    for model_set in estimator.model_sets.values():
        for combined in [*model_set.models, model_set.default_model]:
            ensembles.setdefault(id(combined), combined)
    n_trees = n_nodes = array_bytes = 0
    dtype_summary = ""
    for combined in ensembles.values():
        stats = combined.model_.flat_forest().stats()
        n_trees += stats.n_trees
        n_nodes += stats.n_nodes
        array_bytes += stats.array_bytes
        dtype_summary = stats.dtype_summary
    print(
        f"flat layout: {n_trees:,} trees / {n_nodes:,} nodes across "
        f"{len(ensembles)} compiled ensemble(s), {array_bytes:,} bytes "
        f"({dtype_summary})"
    )
    manifest = manifest_for_artifact(args.artifact)
    if manifest is not None:
        print(f"registry version: {manifest.version} ({manifest.status})")
        print(f"registry checksum: {manifest.checksum}")
        print(
            "corpus fingerprint: "
            f"{manifest.corpus.get('name', '?')} — "
            f"{manifest.corpus.get('n_queries', '?')} queries / "
            f"{manifest.corpus.get('n_operators', '?')} operators "
            f"({manifest.corpus.get('mode', '?')} features), digest "
            f"{str(manifest.corpus.get('digest', '?'))[:12]}"
        )
        for resource, values in sorted(manifest.metrics.items()):
            rendered = ", ".join(f"{k}={v:.4f}" for k, v in sorted(values.items()))
            print(f"train metrics ({resource}): {rendered}")
        print(f"lineage: refit of {manifest.parent or 'none (seed model)'}")
        if manifest.note:
            print(f"note: {manifest.note}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code (0 ok / 1 findings / 2 usage).

    argparse terminates the process on ``--version``, ``--help`` and usage
    errors; embedding callers (tests, servers) call ``main`` directly, so
    those :class:`SystemExit` outcomes are converted into the documented
    return codes instead of unwinding through the caller.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if args.command is None:
        parser.print_usage(sys.stderr)
        print(
            f"{parser.prog}: error: a subcommand is required "
            "(list, run, train, estimate, serve-bench, adapt-bench, models)",
            file=sys.stderr,
        )
        return 2

    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0

    if args.command == "train":
        return _run_train(args)

    if args.command == "estimate":
        return _run_estimate(args)

    if args.command == "serve-bench":
        return _run_serve_bench(args)

    if args.command == "adapt-bench":
        return _run_adapt_bench(args)

    if args.command == "lint":
        return run_lint_command(args)

    if args.command == "models":
        handlers = {
            "inspect": _run_models_inspect,
            "list": _run_models_list,
            "diff": _run_models_diff,
            "promote": _run_models_promote,
        }
        handler = handlers.get(args.models_command or "")
        if handler is None:
            print(
                f"{parser.prog}: error: usage: models "
                "{inspect <artifact> | list | diff | promote} [--registry DIR]",
                file=sys.stderr,
            )
            return 2
        return handler(args)

    config = get_config(args.profile)
    if args.experiment == "all":
        experiment_ids = sorted(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        experiment_ids = [args.experiment]
    else:
        known = ", ".join(sorted(EXPERIMENTS))
        print(
            f"{parser.prog}: error: unknown experiment {args.experiment!r}; "
            f"known: {known}, or 'all'",
            file=sys.stderr,
        )
        return 2

    for experiment_id in experiment_ids:
        print(_run_one(experiment_id, config, args.output))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
