import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def traced_peak(fn, *args) -> int:
    """The peak of Python-traced allocations, in bytes, while fn(*args) runs.
    numpy's array buffers are traced, so this counts every image-sized array."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
