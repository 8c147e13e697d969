"""Serving benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

The run trains the model ``repro train`` writes by default, saves it, serves
it from the artifact (memory-mapped), drives the workload's seeded request
stream through the public estimation API, checks the outputs, and prints a
JSON object as its last line.  Latencies and throughput are reported at
reference speed (``speed.py``); the line before the result gives the wall
clock's.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced quarters of the run, records
spans around each layer's entry points in the traced ones, and reports the
per-layer split instead (see README.md).
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts set-up at process start)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Git-ignored location for the artifact and the span files.
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("interactive", "bulk", "coalesced")


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def cold_setup(workdir: Path) -> tuple:
    """Simulate the corpus, train, save and reload: the model ``repro train`` writes."""
    from inputs import TRAIN_QUERIES, TRAIN_SCALE, TRAIN_SEED
    from repro.api.service import EstimationService
    from repro.core.estimator import ResourceEstimator
    from repro.core.trainer import TrainerConfig
    from repro.experiments.config import get_config
    from repro.features.definitions import FeatureMode
    from repro.workloads.datasets import build_training_data, split_workload
    from repro.workloads.tpch import build_tpch_workload

    config = get_config("fast")
    timings = {}
    started = time.perf_counter()
    workload = build_tpch_workload(
        scale_factor=TRAIN_SCALE, skew_z=config.tpch_skew, n_queries=TRAIN_QUERIES,
        seed=TRAIN_SEED,
    )
    train, _ = split_workload(workload, config.train_fraction, seed=config.seed)
    training_data = build_training_data(train, FeatureMode.EXACT)
    timings["corpus"] = time.perf_counter() - started

    started = time.perf_counter()
    estimator = ResourceEstimator.train(
        training_data, FeatureMode.EXACT, resources=("cpu", "io"),
        config=TrainerConfig(mart=config.mart),
    )
    timings["train"] = time.perf_counter() - started

    path = workdir / "model.bin"
    started = time.perf_counter()
    estimator.save(path)
    timings["save"] = time.perf_counter() - started
    timings["artifact_bytes"] = path.stat().st_size
    del estimator, training_data, train, workload

    started = time.perf_counter()
    service = EstimationService.from_artifact(path, mmap=True)
    timings["load"] = time.perf_counter() - started
    return service, timings


def end_to_end(phase, setup_s: float, scores: dict) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "plans_per_s": (phase.plans_per_s(), "plans/s"),
        "latency_p50_ms": (phase.latency_ms(50.0), "ms"),
        "latency_p95_ms": (phase.latency_ms(95.0), "ms"),
        "cpu_l1_error": (scores["cpu_l1_error"], "1"),
        "io_l1_error": (scores["io_l1_error"], "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from spans import Tracer

    tracer = Tracer().install() if args.trace else None
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        service, timings = cold_setup(workdir)
        setup_end = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        return run_workload(args, service, timings, setup_end, tracer)
    finally:
        # The memory-mapped artifact can go while the service still maps it.
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args, service, timings: dict, setup_end: float, tracer) -> int:
    """Inputs, warm-up, measured phases, checks and the result line."""
    from layers import per_layer
    from loads import WORKLOADS, Phase
    from speed import Speedometer

    # One vCPU from here on, for every thread the workload starts: the
    # reference task then times the core the requests run on (speed.py).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    started = time.perf_counter()
    workload = WORKLOADS[args.workload](service, args.seed)
    stages = {"inputs": time.perf_counter() - started}
    speed = Speedometer()
    try:
        started = time.perf_counter()
        workload.warm_up()
        timings["warmup"] = time.perf_counter() - started
        setup_s = (setup_end - _PROCESS_START) + timings["warmup"]

        if tracer is None:
            phase = workload.measure(args.seconds, speed)
            traced = None
        else:
            # Same length as an untraced run, in alternating untraced and
            # traced quarters, so drift in machine speed hits both halves
            # alike; the untraced half is the tracing-overhead baseline.
            untraced_parts, traced_parts = [], []
            cache = {"hits": 0, "misses": 0}
            for _ in range(2):
                untraced_parts.append(workload.measure(args.seconds / 4.0, speed))
                before = service.stats.snapshot()
                tracer.install()
                traced_parts.append(workload.measure(args.seconds / 4.0, speed, tracer))
                tracer.uninstall()
                after = service.stats.snapshot()
                cache["hits"] += after.cache_hits - before.cache_hits
                cache["misses"] += after.cache_misses - before.cache_misses
            phase, traced = Phase.merge(untraced_parts), Phase.merge(traced_parts)
    finally:
        workload.close()

    started = time.perf_counter()
    failures = workload.check()
    stages["checks"] = time.perf_counter() - started
    started = time.perf_counter()
    scores, band_failures = workload.score()
    stages["actuals"] = time.perf_counter() - started
    failures += band_failures
    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    phases = [phase] if traced is None else [phase, traced]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(
        f"{args.workload} seed={args.seed}: {attempted} requests, {failed} failed, "
        f"{sum(p.plans_done for p in phases)} plans; repeat share "
        f"{workload.repeat_share():.3f}; checks {'passed' if not failures else 'FAILED'}; "
        + ", ".join(f"{stage} {seconds:.1f}s" for stage, seconds in stages.items())
    )
    print(
        f"wall clock: latency p50 {phase.latency_ms(50.0, rescaled=False):.2f} ms, "
        f"p95 {phase.latency_ms(95.0, rescaled=False):.2f} ms, "
        f"{phase.plans_per_s(rescaled=False):.1f} plans/s; reference task median "
        f"{1000.0 * statistics.median(speed.durations):.3f} ms over {len(speed.durations)} runs, "
        f"rescaling {min(phase.scales):.3f}-{max(phase.scales):.3f}"
    )
    if traced is None:
        metrics = end_to_end(phase, setup_s, scores)
    else:
        metrics = per_layer(tracer, setup_end, traced, phase, timings, cache, workload)
        trace_path = OUT / f"trace-{args.workload}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}; "
              f"absent: {', '.join(tracer.absent) or 'none'}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
