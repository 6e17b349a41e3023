"""Experiment harness: Monte-Carlo runner, sweeps, fits, tables, persistence."""

from repro.experiments.fitting import (
    ConstantFit,
    PowerLawFit,
    fit_constant,
    fit_power_law,
)
from repro.core.anytime import AdaptiveInfo, Precision, TauAccumulator
from repro.experiments.fanout import SharedGraph, fanout_estimate, plan_shards
from repro.experiments.io import load_json, save_json, to_jsonable
from repro.experiments.runner import (
    LAZY_PROCESSES,
    PROCESS_DRIVERS,
    DispersionEstimate,
    driver_kwargs,
    estimate_dispersion,
    run_process,
)
from repro.experiments.stats import (
    AnytimeKS,
    KSVerdict,
    SummaryStats,
    bootstrap_ci,
    empirical_quantile,
    ks_statistic,
    summarize,
)
from repro.experiments.sweep import SweepPoint, SweepResult, sweep_dispersion
from repro.experiments.table1_report import (
    Table1Entry,
    build_table1_report,
    render_table1_report,
)
from repro.experiments.tables import format_value, render_table

__all__ = [
    "PROCESS_DRIVERS",
    "LAZY_PROCESSES",
    "SharedGraph",
    "fanout_estimate",
    "plan_shards",
    "run_process",
    "driver_kwargs",
    "estimate_dispersion",
    "DispersionEstimate",
    "Precision",
    "TauAccumulator",
    "AdaptiveInfo",
    "SummaryStats",
    "summarize",
    "AnytimeKS",
    "KSVerdict",
    "ks_statistic",
    "bootstrap_ci",
    "empirical_quantile",
    "fit_power_law",
    "fit_constant",
    "PowerLawFit",
    "ConstantFit",
    "sweep_dispersion",
    "Table1Entry",
    "build_table1_report",
    "render_table1_report",
    "SweepResult",
    "SweepPoint",
    "render_table",
    "format_value",
    "save_json",
    "load_json",
    "to_jsonable",
]
