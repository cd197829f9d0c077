import os
import sys

# One BLAS thread, set before numpy loads, as tools/fit_digest.py and
# tools/sweep.py do: training's bits depend on the BLAS thread count, so
# without the pin a host's CPU count would choose which fit the suite
# trains, and not the one the sweeps rank.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from authverify.embeddings import EmbeddingTable
from authverify.numeric import make_rng


@pytest.fixture
def rng():
    return make_rng(12345)


@pytest.fixture
def tiny_table():
    """Five 3-dimensional vectors; enough for pipeline tests."""
    vecs = {
        "the": np.array([0.1, 0.2, 0.3]),
        "cat": np.array([1.0, -1.0, 0.5]),
        "sat": np.array([-0.5, 0.25, 0.75]),
        "mat": np.array([0.4, 0.4, -0.2]),
        ".": np.array([0.0, 0.1, -0.1]),
    }
    return EmbeddingTable(3, vecs)
