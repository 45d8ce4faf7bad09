"""Feature ablation: retrain the classifier with one feature removed at a
time and measure the recall/accuracy drop (complements Figure 4's SHAP
attribution with an interventional measurement).
"""

import numpy as np

from repro.cuts import FEATURE_NAMES
from repro.harness import format_table, write_report
from repro.ml import (
    CutDataset,
    TrainConfig,
    confusion,
    train_classifier,
)

from conftest import record_report


def _evaluate(result, x, y):
    fused = result.fused_model()
    probs = 1.0 / (1.0 + np.exp(-fused.forward_logits(x)))
    return confusion(y > 0.5, probs >= 0.5)


def test_feature_ablation(benchmark, epfl_datasets):
    merged = CutDataset.concatenate(list(epfl_datasets.values()), "all")
    train, test = merged.split(0.8, seed=0)
    config = TrainConfig(epochs=10, patience=5, seed=0)

    full_result = benchmark.pedantic(
        lambda: train_classifier(train, config), rounds=1, iterations=1
    )
    full = _evaluate(full_result, test.x, test.y)

    rows = [["(all six)", f"{100 * full.recall:.1f}%", f"{100 * full.accuracy:.1f}%", "-"]]
    f1_full = full.f1
    for j, name in enumerate(FEATURE_NAMES):
        # Neutralize the feature by zeroing its column (keeps the 6-d
        # interface; a constant column carries no information).
        x_train = train.x.copy()
        x_train[:, j] = 0.0
        ds = CutDataset(x_train, train.y, f"wo_{name}")
        cfg = TrainConfig(epochs=10, patience=5, seed=0)
        result = train_classifier(ds, cfg)
        fused = result.fused_model()
        x_test = test.x.copy()
        x_test[:, j] = 0.0
        probs = 1.0 / (1.0 + np.exp(-fused.forward_logits(x_test)))
        c = confusion(test.y > 0.5, probs >= 0.5)
        rows.append(
            [
                f"w/o {name}",
                f"{100 * c.recall:.1f}%",
                f"{100 * c.accuracy:.1f}%",
                f"{c.f1 - f1_full:+.3f}",
            ]
        )
    text = format_table(
        ["Model", "Recall", "Accuracy", "dF1"],
        rows,
        title="Feature ablation - drop-one retraining on the EPFL-like data",
    )
    write_report("ablation_features", text)
    record_report("ablation_features", text)

    # Uncalibrated 0.5 threshold: recall sits below the deployed
    # (recall-calibrated) operating point; accuracy is high.
    assert full.recall > 0.35 and full.accuracy > 0.6, full
