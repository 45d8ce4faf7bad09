"""Fixtures shared by the exactness tests of the pruning screens.

The circuits are arithmetic and industrial generators whose outputs are
not constant, so a wrong pruning decision shows up in output digests.
"""

import pytest

from repro.circuits.arith import divider, hypotenuse, isqrt, log2_approx
from repro.circuits.industrial import industrial_design
from repro.elf import collect_dataset, train_leave_one_out
from repro.ml import TrainConfig


@pytest.fixture(scope="session")
def screen_circuits():
    return {
        "div": divider(5),
        "sqrt": isqrt(6),
        "hyp": hypotenuse(4),
        "log2": log2_approx(8),
        "ind1": industrial_design(1, 0.03),
        "ind5": industrial_design(5, 0.03),
    }


@pytest.fixture(scope="session")
def screen_classifier(screen_circuits):
    datasets = {
        name: collect_dataset(g, name=name) for name, g in screen_circuits.items()
    }
    return train_leave_one_out(datasets, "div", TrainConfig(epochs=3, seed=0))
