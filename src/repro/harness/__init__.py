"""Experiment harness: caching, table rendering and per-table drivers."""

from .cache import cache_dir, cached_classifier, cached_dataset, clear_cache
from .experiments import (
    DEFAULT_TRAIN_CONFIG,
    RedundancyRow,
    ServeThroughputRow,
    StatsRow,
    comparison_rows,
    feature_matrix,
    global_classifier,
    loo_classifiers,
    model_quality,
    redundancy_rows,
    serve_throughput,
    suite_datasets,
    suite_statistics,
)
from .tables import format_table, write_report

__all__ = [
    "DEFAULT_TRAIN_CONFIG",
    "RedundancyRow",
    "ServeThroughputRow",
    "StatsRow",
    "cache_dir",
    "cached_classifier",
    "cached_dataset",
    "clear_cache",
    "comparison_rows",
    "feature_matrix",
    "format_table",
    "global_classifier",
    "loo_classifiers",
    "model_quality",
    "redundancy_rows",
    "serve_throughput",
    "suite_datasets",
    "suite_statistics",
    "write_report",
]
