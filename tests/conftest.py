import concurrent.futures

import numpy as np
import pytest

from kneadlab import make_logistic, make_quadratic, make_sine
from screen import screened_parameters

SCREEN_SEED = 777


@pytest.fixture(scope="session")
def q2():
    return make_quadratic(2.0)


@pytest.fixture(scope="session")
def q19():
    return make_quadratic(1.9)


@pytest.fixture(scope="session")
def screened_taus():
    """20 stochasticity-screened parameters in (1.75, 2), seeded."""
    return screened_parameters(make_quadratic, 1.75, 2.0, 20, SCREEN_SEED)


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replace ProcessPoolExecutor with an in-process fake that records the
    max_workers of each pool made and starts no process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes
