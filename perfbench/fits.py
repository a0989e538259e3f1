"""The two fit workloads: the exact chunked fit and the mini-batch fit.

Both fit all five sensitive attributes of a seeded synthetic Adult
dataset through ``repro.api.registry.build_estimator(cfg).fit(...)``,
the call ``repro.api.fit`` makes, then assign the three request classes
in process with the fitted centers.

A run fits its dataset in passes. The exact workload splits its rows
into 32 disjoint slices, each fit on its own, so that every fit is short
enough to be timed between two calibrations of the host's speed
(``common.Calibration``); a whole 15,682-row fit takes 6-11 s, through
several of the host's speed swings. Every pass repeats the same fits.
``fit_s`` sums, over the slices, the median over passes of each
fit's time at the reference speed.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import traffic
from common import (BulkCalibration, Calibration, MemorySampler, median, one_cpu,
                    timed_imports)
from spans import Target, Tracer, resolve, wrapper_cost_us


@dataclass(frozen=True)
class FitSpec:
    rows: int
    config: dict[str, Any]
    #: Exact engines must never increase the objective between sweeps.
    monotone: bool
    #: The rows are split into this many disjoint slices, one fit each.
    slices: int = 1
    #: Where fits are calibrated (see ``common.Calibration``): around each
    #: fit ("fit", short fits pinned to one CPU) or also between the
    #: sweeps of one ("sweep"): a mini-batch fit runs ~12 s, through
    #: several of the host's speed swings, and forks backend workers that
    #: must not share one CPU.
    bracket: str = "fit"
    tiny_rows: int = 1200
    tiny_config: dict[str, Any] = field(default_factory=dict)


FIT_WORKLOADS = {
    "fit_exact_adult": FitSpec(
        rows=15_682,
        config=dict(method="fairkm", k=5, engine="chunked", lambda_="auto", workers=1),
        monotone=True,
        slices=32,
        tiny_config=dict(max_iter=4),
    ),
    "fit_minibatch_adult": FitSpec(
        rows=50_000,
        config=dict(
            method="minibatch_fairkm",
            k=5,
            chunk_size=16_384,
            max_iter=10,
            backend="multiprocess",
            workers=2,
        ),
        monotone=False,
        bracket="sweep",
        tiny_rows=3000,
        tiny_config=dict(chunk_size=1024, max_iter=3),
    ),
}

#: Requests per class in the in-process assign phase.
ASSIGN_COUNTS = {"small_npy": 2000, "bulk_npy": 200, "bulk_stream": 100}
#: Round trips timed between two calibrations in the assign phase.
ASSIGN_BLOCK = 50
#: Modules a fit run imports; timed in a fresh interpreter for setup_s.
SETUP_MODULES = ["numpy", "repro.api", "repro.backend", "repro.data", "repro.metrics.fairness"]
SETUP_REPEATS = 3
#: Relative agreement required between the reported and recomputed objective.
OBJECTIVE_RTOL = 1e-9


TRACE_TARGETS = [
    Target("cluster.init.initial_labels", "repro.core.engine:initial_labels"),
    Target("core.state.build", "repro.core.state:ClusterState.__init__"),
    Target("core.state.move_deltas", "repro.core.state:ClusterState.move_deltas"),
    Target(
        "core.state.batch_move_deltas",
        "repro.core.state:ClusterState.batch_move_deltas",
        count=lambda self, indices, *a, **k: len(indices),
    ),
    Target(
        "core.state.batch_move_deltas_cols",
        "repro.core.state:ClusterState.batch_move_deltas_cols",
        count=lambda self, indices, *a, **k: len(indices),
    ),
    Target("core.state.apply_move", "repro.core.state:ClusterState.apply_move"),
    Target("core.state.resync", "repro.core.state:ClusterState.resync"),
    Target("core.state.objective", "repro.core.state:ClusterState.objective"),
    Target("core.engine.sweep", "repro.core.engine:SweepStrategy.sweep"),
    Target("backend.start", "repro.backend.base:Backend.start"),
    Target(
        "backend.map_score",
        "repro.backend.base:Backend.map_score",
        count=lambda self, state, shards, *a, **k: len(shards),
    ),
    Target("backend.merge_stats", "repro.backend.base:Backend.merge_stats"),
    Target("backend.shutdown", "repro.backend.base:Backend.shutdown"),
]


@dataclass
class Slice:
    """One slice of the dataset and the first fit of it."""

    x: np.ndarray
    cats: list
    nums: list
    categorical: dict
    #: Wall time of each untraced fit of this slice, and at reference speed.
    times: list[float] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)
    result: Any = None


def _check_fit(result: Any, part: Slice, spec: FitSpec) -> list[str]:
    """Correctness gates for one fit; returns the violations."""
    from repro.core.objective import fairkm_objective

    problems = []
    labels = result.labels
    recomputed = fairkm_objective(part.x, part.cats, part.nums, labels,
                                  int(result.centers.shape[0]), result.lambda_)
    if abs(recomputed - result.objective) > OBJECTIVE_RTOL * abs(recomputed):
        problems.append(f"objective {result.objective!r} != recomputed {recomputed!r}")
    history = list(result.objective_history)
    if spec.monotone and any(b > a for a, b in zip(history, history[1:])):
        problems.append("objective_history increased")
    if part.result is not None and not np.array_equal(part.result.labels, labels):
        problems.append("labels differ from the first fit with the same seed")
    return problems


class SweepBrackets:
    """Calibrations between the sweeps of a fit, off its clock.

    Wraps the program's ``SweepStrategy.sweep`` (the traced run's
    ``core.engine.sweep``) so that each sweep is followed by a
    calibration. ``reference(wall_s)`` turns the fit's wall time, less
    the calibrations, into its time at the reference speed: each sweep
    by the calibrations around it, the rest (set-up, backend start and
    shutdown) by their mean. If the method is gone, the whole fit is
    calibrated at once.
    """

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self._patched: list[tuple[Any, str, Any]] = []
        self.sweeps: list[tuple[float, float]] = []
        self.calibrating_s = 0.0
        self._depth = 0

    def install(self) -> None:
        self.sweeps, self.calibrating_s = [], 0.0
        for owner, attr in resolve("repro.core.engine:SweepStrategy.sweep"):
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Any) -> Any:
        def calibrated(*args: Any, **kwargs: Any) -> Any:
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                # A sweep calling its parent's (super()) is one sweep.
                if self._depth == 0:
                    start = time.perf_counter()
                    factor = self.calibration.factor()
                    self.calibrating_s += time.perf_counter() - start
                    self.sweeps.append((elapsed, factor))

        return calibrated

    def reference(self, wall_s: float, factor: float) -> float:
        """Reference time of a fit of *wall_s*, calibrated at *factor* after it."""
        swept = sum(elapsed for elapsed, _ in self.sweeps)
        factors = [f for _, f in self.sweeps] + [factor]
        return (sum(elapsed * f for elapsed, f in self.sweeps)
                + max(0.0, wall_s - swept) * median(factors))


def _fit_slice(cfg: Any, part: Slice, spec: FitSpec, tracer: Tracer, traced: bool,
               calibration: Calibration) -> tuple[float | None, float, list[str]]:
    """Fit one slice: wall time (None if the fit failed), reference time, violations."""
    from repro.api.registry import build_estimator

    estimator = build_estimator(cfg)
    brackets = SweepBrackets(calibration) if spec.bracket == "sweep" else None
    if traced:
        tracer.install()
    elif brackets is not None:
        brackets.install()
    try:
        start = time.perf_counter()
        estimator.fit(part.x, sensitive=[*part.cats, *part.nums])
        elapsed = time.perf_counter() - start
    except Exception as exc:  # a raised fit is a failed operation
        return None, 0.0, [f"fit raised {type(exc).__name__}: {exc}"]
    finally:
        tracer.uninstall()
        if brackets is not None:
            brackets.uninstall()
    factor = calibration.factor()
    if brackets is not None and not traced:
        elapsed -= brackets.calibrating_s
        reference = brackets.reference(elapsed, factor)
    else:
        reference = elapsed * factor
    fit = estimator.result_
    violations = _check_fit(fit, part, spec)
    if part.result is None:
        part.result = fit
    return (None if violations else elapsed), reference, violations


def _fit_metrics(tracer: Tracer, results: list[Any], rows: int, fit_s: float) -> dict[str, float]:
    stats = tracer.stats
    out: dict[str, float] = {
        "cluster.init.initial_labels.s": stats["cluster.init.initial_labels"].total_s,
        "core.state.build.s": stats["core.state.build"].total_s,
    }
    for fn in ("move_deltas", "batch_move_deltas", "batch_move_deltas_cols",
               "apply_move", "resync", "objective"):
        out[f"core.state.{fn}.calls"] = stats[f"core.state.{fn}"].calls
        out[f"core.state.{fn}.self_s"] = stats[f"core.state.{fn}"].self_s
    for fn in ("batch_move_deltas", "batch_move_deltas_cols"):
        out[f"core.state.{fn}.rows"] = stats[f"core.state.{fn}"].work
    moves = sum(int(sum(r.moves_per_iter)) for r in results)
    out.update({
        "core.engine.sweeps": stats["core.engine.sweep"].calls,
        "core.engine.sweep.self_s": stats["core.engine.sweep"].self_s,
        "core.engine.moves": moves,
        "core.engine.moves_per_row": moves / rows,
        "core.engine.converged": sum(bool(r.converged) for r in results),
        "backend.start.s": stats["backend.start"].total_s,
        "backend.map_score.calls": stats["backend.map_score"].calls,
        "backend.map_score.shards": stats["backend.map_score"].work,
        "backend.map_score.s": stats["backend.map_score"].total_s,
        "backend.merge_stats.s": stats["backend.merge_stats"].total_s,
        "backend.shutdown.s": stats["backend.shutdown"].total_s,
        "fit.unexplained_s": fit_s - tracer.self_total_s(),
    })
    return out


class InProcessAssign:
    """Round trips of the three request classes in process (no transport).

    The requests follow one fixed schedule; ``run(n)`` sends the next *n*
    of them on one CPU in blocks of ``ASSIGN_BLOCK``, each block between
    two calibrations, and keeps each latency as measured and at the
    reference speed: small requests by the per-row task, bulk ones by
    the bulk task. A wrong answer is a failed operation, never a sample.
    """

    def __init__(self, centers: np.ndarray, features: np.ndarray, seed: int, tiny: bool,
                 calibration: Calibration) -> None:
        from repro.api.assign import Assigner

        self.assigner = Assigner(centers)
        self.bodies = traffic.make_bodies(features, self.assigner,
                                          np.random.default_rng([seed, 1]),
                                          0.05 if tiny else 1.0)
        counts = {c: max(20, n // 20) if tiny else n for c, n in ASSIGN_COUNTS.items()}
        self.order = traffic.schedule(counts)
        self.calibration = calibration
        self.bulk_calibration = BulkCalibration()
        self.samples: dict[str, list[float]] = {c: [] for c in counts}
        self.ref_samples: dict[str, list[float]] = {c: [] for c in counts}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run(self, n: int) -> None:
        with one_cpu():
            self._run(min(self.attempted + n, len(self.order)))

    def _run(self, end: int) -> None:
        self.calibration.mark()
        while self.attempted < end:
            self.bulk_calibration.mark()
            block = []
            for i in range(self.attempted, min(self.attempted + ASSIGN_BLOCK, end)):
                cls = self.order[i]
                body = self.bodies[cls][i % len(self.bodies[cls])]
                self.attempted += 1
                seconds_taken, labels = traffic.roundtrip(body, self.assigner)
                if np.array_equal(labels, body.expected):
                    block.append((cls, seconds_taken))
                else:
                    self.failed += 1
                    self.problems.append(f"{cls}: in-process labels differ")
            factors = {"small_npy": self.calibration.factor()}
            bulk = self.bulk_calibration.factor()
            for cls, seconds_taken in block:
                self.samples[cls].append(seconds_taken)
                self.ref_samples[cls].append(seconds_taken * factors.get(cls, bulk))


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict[str, Any]:
    """One run of a fit workload; returns metrics, counts and details."""
    spec = FIT_WORKLOADS[name]
    with one_cpu() if spec.bracket == "fit" else contextlib.nullcontext():
        return _run(spec, seed, seconds, trace, tiny)


def _run(spec: FitSpec, seed: int, seconds: float, trace: bool, tiny: bool) -> dict[str, Any]:
    from repro.api.assign import Assigner
    from repro.api.config import RunConfig
    from repro.data.adult import generate_adult
    from repro.metrics.fairness import fairness_report

    started = time.perf_counter()
    calibration = Calibration()
    setup = timed_imports(SETUP_MODULES, 1 if tiny else SETUP_REPEATS, calibration)

    rows = spec.tiny_rows if tiny else spec.rows
    config = {**spec.config, **(spec.tiny_config if tiny else {})}
    dataset = generate_adult(rows, seed)
    slices = []
    for indices in np.array_split(np.arange(rows), min(spec.slices, 2) if tiny else spec.slices):
        part = dataset.subset(indices)
        cats, nums = part.sensitive_specs()
        slices.append(Slice(part.feature_matrix(scale=True), cats, nums,
                            part.sensitive_categorical()))
    cfg = RunConfig(**config, seed=seed)

    # Each pass fits every slice once. An untraced run makes passes while
    # another still fits in --seconds from its start, set-up included
    # (at least two passes); a traced run makes
    # one untraced and one traced pass. An untraced run also assigns the
    # three request classes in process with the first fitted model,
    # spread over the gaps after the fits of its first two passes, so
    # that its latencies, too, sample the whole run.
    attempted = failed = 0
    problems: list[str] = []
    passes: list[float] = []
    traced_pass_s = None
    tracer = Tracer(TRACE_TARGETS)
    assign: InProcessAssign | None = None
    per_gap = 0
    with MemorySampler(os.getpid()) as memory:
        while not failed:
            traced = trace and len(passes) == 1
            pass_s = 0.0
            for part in slices:
                attempted += 1
                elapsed, reference, violations = _fit_slice(cfg, part, spec, tracer, traced,
                                                            calibration)
                problems.extend(violations)
                if elapsed is None:
                    failed += 1
                    continue
                pass_s += elapsed
                if not traced:
                    part.times.append(elapsed)
                    part.ref_times.append(reference)
                if trace:
                    continue
                if assign is None:
                    assign = InProcessAssign(part.result.centers,
                                             dataset.feature_matrix(scale=True), seed, tiny,
                                             calibration)
                    per_gap = -(-len(assign.order) // (2 * len(slices) - 1))
                assign.run(per_gap)
            if traced:
                traced_pass_s = pass_s
            else:
                passes.append(pass_s)
            if trace and traced_pass_s is not None:
                break
            if not trace and len(passes) >= 2 and (
                time.perf_counter() - started + median(passes) > seconds
            ):
                break

    metrics: dict[str, float] = {}
    latency: dict[str, dict[str, float]] = {}
    results = [part.result for part in slices]
    if trace and not failed:
        assigner = Assigner(results[0].centers)
        bodies = traffic.make_bodies(dataset.feature_matrix(scale=True), assigner,
                                     np.random.default_rng([seed, 1]), 0.05 if tiny else 1.0)
        metrics.update(traffic.layer_floors(bodies, assigner, 5 if tiny else 40))
    if assign is not None:
        attempted += assign.attempted
        failed += assign.failed
        problems.extend(assign.problems[:20])
        if all(assign.samples.values()):
            latency = traffic.latency_summary(assign.samples)
            metrics.update({f"{cls}_ms": v["p50"]
                            for cls, v in traffic.latency_summary(assign.ref_samples).items()})

    details: dict[str, Any] = {
        "rows": rows,
        "slices": len(slices),
        "config": config,
        "pass_s": passes,
        # Wall times as measured, next to their reference-speed figures.
        **{f"{cls}_{q}_ms": v[q] for cls, v in latency.items() for q in ("p50", "p90")},
    }
    if not failed:
        details.update(fit_wall_s=sum(median(part.times) for part in slices),
                       speed_factors=[min(calibration.factors), median(calibration.factors),
                                      max(calibration.factors)])
        fairness = [fairness_report(part.categorical, part.result.labels,
                                    int(part.result.centers.shape[0])).mean for part in slices]
        fairness_ae = float(np.mean([f.ae for f in fairness]))
        # ME (the worst cluster) spreads ~30% across seeds, too wide for
        # an end-to-end bound; it is recorded here next to AE.
        details.update(n_iter=[r.n_iter for r in results],
                       converged=sum(bool(r.converged) for r in results),
                       fairness_ae=fairness_ae,
                       fairness_me=float(np.mean([f.me for f in fairness])))
        if trace:
            metrics.update(_fit_metrics(tracer, results, rows, traced_pass_s))
            metrics["trace.overhead_s"] = traced_pass_s - passes[0]
            metrics["trace.wrapper_us_per_call"] = wrapper_cost_us()
            metrics["trace.absent"] = len(tracer.absent)
            details["absent"] = tracer.absent
        else:
            metrics.update(
                setup_s=median(setup),
                peak_rss_mb=memory.peak_mb,
                fit_s=sum(median(part.ref_times) for part in slices),
                objective=float(np.mean([r.objective for r in results])),
                fairness_ae=fairness_ae,
            )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "details": details,
    }
