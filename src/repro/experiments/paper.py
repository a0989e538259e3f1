"""Canonical paper experiments, keyed by table/figure id.

Each entry point builds its workload, runs the §5.5 protocol, renders the
corresponding table or figure, writes it under ``results/`` and returns
the rendered text. Every entry point takes a :class:`BenchSettings`
(scale + engine knobs) threaded explicitly from the CLI's ``repro
paper`` flags; no environment variable changes what is run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from ..api.config import RunConfig
from ..data.adult import generate_adult
from ..data.dataset import Dataset
from ..data.kinematics import generate_kinematics
from ..data.sampling import undersample_to_parity
from .charts import bar_chart, csv_lines, line_chart
from .runner import SuiteConfig, SuiteResult, run_suite
from .sweep import LambdaSweepResult, lambda_sweep
from .tables import render_fairness_table, render_quality_table, render_single_attribute_figure

RESULTS_DIR = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))


@dataclass(frozen=True)
class BenchSettings:
    """Scale and engine knobs shared by every paper entry point.

    Attributes:
        seeds: random restarts per configuration (paper: 100).
        adult_n: Adult rows before parity undersampling (paper: 32 561).
        engine: FairKM exact sweep strategy for every FairKM build.
        chunk_size: chunk size of the chunked engine, doubling as the
            ``minibatch_fairkm`` batch size (``None`` keeps defaults).
    """

    seeds: int = 3
    adult_n: int = 6000
    engine: str = RunConfig.engine
    chunk_size: int | None = None


def write_result(name: str, text: str) -> Path:
    """Persist rendered output under results/ (created on demand)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n", encoding="utf-8")
    return path


def build_adult(n: int | None = None, seed: int = 0) -> Dataset:
    """Adult workload: generate, then income-parity undersample (§5.1).

    *n* is the row count before undersampling (default 6000).
    """
    raw = generate_adult(n or BenchSettings.adult_n, seed=seed)
    return undersample_to_parity(raw, "income", seed)


def build_kinematics(seed: int = 0, epochs: int = 40) -> Dataset:
    """Kinematics workload: 161 problems, 100-dim Doc2Vec embedding."""
    return generate_kinematics(seed, dim=100, epochs=epochs)


def dataset_lambda(n: int) -> float:
    """Dataset-level FairKM λ, the §5.4 heuristic anchored at k=5.

    The paper uses one λ per dataset across all k (10⁶ for Adult at both
    k=5 and k=15; 10³ for Kinematics), so the harness does the same:
    λ = (n/5)², which reproduces the paper's 10³ for Kinematics exactly
    and scales the Adult setting with the (sub)sample size.
    """
    return (n / 5.0) ** 2


def _adult_suites(
    ks: tuple[int, ...],
    settings: BenchSettings,
    per_attribute_fairkm: bool = False,
) -> dict[int, SuiteResult]:
    dataset = build_adult(settings.adult_n)
    suites = {}
    for k in ks:
        config = SuiteConfig(
            k=k,
            seeds=tuple(range(settings.seeds)),
            fairkm_lambda=dataset_lambda(dataset.n),
            zgya_lambda=zgya_paper_lambda(dataset.n),
            scale_features=True,
            per_attribute_fairkm=per_attribute_fairkm,
            engine=settings.engine,
            chunk_size=settings.chunk_size,
        )
        suites[k] = run_suite(dataset, config)
    return suites


def zgya_paper_lambda(n: int) -> float:
    """ZGYA weight pinned to the regime the paper's tables report.

    The paper's ZGYA columns show degenerate behaviour on both datasets
    (CO far above K-Means(N), fairness at or below the S-blind baseline);
    our reimplementation reproduces that regime at λ ≈ n/2, past the
    instability cliff of the multiplicative updates. At moderate λ the
    method is far healthier — mapped by
    ``benchmarks/bench_ablation_zgya_lambda.py`` and discussed in
    EXPERIMENTS.md.
    """
    return n / 2.0


def _kinematics_suite(
    settings: BenchSettings, per_attribute_fairkm: bool = False, k: int = 5
) -> SuiteResult:
    dataset = build_kinematics()
    config = SuiteConfig(
        k=k,
        seeds=tuple(range(settings.seeds)),
        fairkm_lambda=dataset_lambda(dataset.n),
        zgya_lambda=zgya_paper_lambda(dataset.n),
        scale_features=False,
        silhouette_sample=None,
        per_attribute_fairkm=per_attribute_fairkm,
        engine=settings.engine,
        chunk_size=settings.chunk_size,
    )
    return run_suite(dataset, config)


# --------------------------------------------------------------------- #
# Tables                                                                  #
# --------------------------------------------------------------------- #


def table5(settings: BenchSettings = BenchSettings()) -> str:
    """Table 5: Adult clustering quality at k=5 and k=15."""
    suites = _adult_suites((5, 15), settings)
    text = render_quality_table(
        suites, title="Table 5: clustering quality on Adult (mean over seeds)"
    )
    write_result("table5_adult_quality.txt", text)
    return text


def table6(settings: BenchSettings = BenchSettings()) -> str:
    """Table 6: Adult fairness per sensitive attribute at k=5 and k=15."""
    suites = _adult_suites((5, 15), settings)
    text = render_fairness_table(
        suites, title="Table 6: fairness evaluation on Adult (mean over seeds)"
    )
    write_result("table6_adult_fairness.txt", text)
    return text


def table7(settings: BenchSettings = BenchSettings()) -> str:
    """Table 7: Kinematics clustering quality at k=5."""
    suite = _kinematics_suite(settings)
    text = render_quality_table(
        {5: suite}, title="Table 7: clustering quality on Kinematics (mean over seeds)"
    )
    write_result("table7_kinematics_quality.txt", text)
    return text


def table8(settings: BenchSettings = BenchSettings()) -> str:
    """Table 8: Kinematics fairness per type attribute at k=5."""
    suite = _kinematics_suite(settings)
    text = render_fairness_table(
        {5: suite}, title="Table 8: fairness evaluation on Kinematics (mean over seeds)"
    )
    write_result("table8_kinematics_fairness.txt", text)
    return text


# --------------------------------------------------------------------- #
# Figures                                                                 #
# --------------------------------------------------------------------- #


def figures_1_2(settings: BenchSettings = BenchSettings()) -> str:
    """Figures 1 & 2: Adult AW and MW — ZGYA(S) vs FairKM(All) vs FairKM(S)."""
    suites = _adult_suites((5,), settings, per_attribute_fairkm=True)
    outputs = []
    for fig, metric in (("Figure 1", "AW"), ("Figure 2", "MW")):
        table, series = render_single_attribute_figure(
            suites[5], metric, title=f"{fig}: Adult {metric} comparison (k=5)"
        )
        chart = bar_chart(series, title=f"{fig} ({metric}, lower = fairer)")
        outputs.append(table + "\n\n" + chart)
    text = "\n\n".join(outputs)
    write_result("fig1_2_adult_single_attribute.txt", text)
    return text


def figures_3_4(settings: BenchSettings = BenchSettings()) -> str:
    """Figures 3 & 4: Kinematics AW and MW comparisons."""
    suite = _kinematics_suite(settings, per_attribute_fairkm=True)
    outputs = []
    for fig, metric in (("Figure 3", "AW"), ("Figure 4", "MW")):
        table, series = render_single_attribute_figure(
            suite, metric, title=f"{fig}: Kinematics {metric} comparison (k=5)"
        )
        chart = bar_chart(series, title=f"{fig} ({metric}, lower = fairer)")
        outputs.append(table + "\n\n" + chart)
    text = "\n\n".join(outputs)
    write_result("fig3_4_kinematics_single_attribute.txt", text)
    return text


#: The paper's Figure 5–7 λ grid (Kinematics, λ from 1000 to 10000).
LAMBDA_GRID = [1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 8000.0, 10000.0]


def figures_5_6_7(
    settings: BenchSettings = BenchSettings(), lambdas: list[float] | None = None
) -> str:
    """Figures 5, 6 & 7: Kinematics quality and fairness vs λ."""
    dataset = build_kinematics()
    sweep = lambda_sweep(
        dataset,
        lambdas or LAMBDA_GRID,
        k=5,
        seeds=tuple(range(settings.seeds)),
        scale_features=False,
        silhouette_sample=None,
        engine=settings.engine,
        chunk_size=settings.chunk_size,
    )
    return render_lambda_figures(sweep)


def render_lambda_figures(sweep: LambdaSweepResult) -> str:
    """Render the three λ-sweep figures and persist their CSV series."""
    outputs = [
        line_chart(
            sweep.lambdas,
            {"CO": sweep.series("CO"), "SH": sweep.series("SH")},
            title="Figure 5: Kinematics (CO and SH) vs lambda",
        ),
        line_chart(
            sweep.lambdas,
            {"DevC": sweep.series("DevC"), "DevO": sweep.series("DevO")},
            title="Figure 6: Kinematics (DevC and DevO) vs lambda",
        ),
        line_chart(
            sweep.lambdas,
            {m: sweep.series(m) for m in ("AE", "AW", "ME", "MW")},
            title="Figure 7: Kinematics fairness metrics vs lambda",
        ),
    ]
    text = "\n\n".join(outputs)
    write_result("fig5_6_7_lambda_sweep.txt", text)
    write_result("fig5_6_7_lambda_sweep.csv", csv_lines(sweep.as_rows()))
    return text


#: Experiment registry for the CLI: id -> (callable, description).
EXPERIMENTS = {
    "table5": (table5, "Adult clustering quality (k=5, 15)"),
    "table6": (table6, "Adult fairness per attribute (k=5, 15)"),
    "table7": (table7, "Kinematics clustering quality (k=5)"),
    "table8": (table8, "Kinematics fairness per attribute (k=5)"),
    "fig1-2": (figures_1_2, "Adult AW/MW single-attribute comparison"),
    "fig3-4": (figures_3_4, "Kinematics AW/MW single-attribute comparison"),
    "fig5-7": (figures_5_6_7, "Kinematics quality/fairness vs lambda"),
}
