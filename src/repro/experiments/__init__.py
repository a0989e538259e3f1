"""Experiment harness regenerating every table and figure of the paper."""

from .charts import bar_chart, csv_lines, line_chart
from .evaluation import (
    QUALITY_METRIC_KEYS,
    ClusteringEval,
    evaluate_clustering,
    mean_evals,
)
from .paper import (
    EXPERIMENTS,
    LAMBDA_GRID,
    BenchSettings,
    build_adult,
    build_kinematics,
    figures_1_2,
    figures_3_4,
    figures_5_6_7,
    table5,
    table6,
    table7,
    table8,
    write_result,
)
from .runner import (
    METHOD_REGISTRY,
    MethodSpec,
    SuiteConfig,
    SuiteResult,
    register_method,
    run_suite,
)
from .sweep import LambdaSweepResult, lambda_sweep
from .tables import (
    format_table,
    render_extra_fairness_table,
    render_fairness_table,
    render_quality_table,
    render_single_attribute_figure,
)

__all__ = [
    "EXPERIMENTS",
    "LAMBDA_GRID",
    "METHOD_REGISTRY",
    "QUALITY_METRIC_KEYS",
    "BenchSettings",
    "ClusteringEval",
    "LambdaSweepResult",
    "MethodSpec",
    "SuiteConfig",
    "SuiteResult",
    "register_method",
    "bar_chart",
    "build_adult",
    "build_kinematics",
    "csv_lines",
    "evaluate_clustering",
    "figures_1_2",
    "figures_3_4",
    "figures_5_6_7",
    "format_table",
    "lambda_sweep",
    "line_chart",
    "mean_evals",
    "render_extra_fairness_table",
    "render_fairness_table",
    "render_quality_table",
    "render_single_attribute_figure",
    "run_suite",
    "table5",
    "table6",
    "table7",
    "table8",
    "write_result",
]
