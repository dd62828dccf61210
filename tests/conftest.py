import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# Property tests draw the same examples on every run and have no deadline,
# so a tier-1 run is reproducible and independent of machine load.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
