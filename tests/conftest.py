import numpy as np
import pytest

from memsarray import assemble_full_array, spiral_subarray


@pytest.fixture(scope="session")
def full_array():
    return assemble_full_array(3, 3, seed=42)


@pytest.fixture(scope="session")
def one_panel():
    return assemble_full_array(1, 1, seed=42)


@pytest.fixture(scope="session")
def dnw_sub(full_array):
    sub = spiral_subarray(full_array, 140, 1.5, 0.1)  # the DNW-like sub-array
    assert sub.size == 140
    return sub


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
