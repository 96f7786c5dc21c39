"""Shared fixtures: warm the kernels once per session.

The first spectrum sweep, the first enumeration of low-weight messages and
the first batched search round, over F_2 and over odd p, pay numpy's and
BLAS's set-up cost (thread pool start, first-touch allocations); warming
here keeps the runtime-bounded acceptance checks honest about steady-state
speed.
"""

import numpy as np
import pytest

from pgcodes import kernels


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    rows2 = np.array([[1, 0, 1, 0], [0, 1, 1, 0]], dtype=np.uint8)
    kernels.spectrum(rows2, 2, 4)
    rows3 = np.array([[1, 0, 2, 0], [0, 1, 1, 2]], dtype=np.uint8)
    kernels.spectrum(rows3, 3, 4)
    list(kernels.lightest_words(rows2, 2, 2))
    list(kernels.lightest_words(rows3, 3, 2))
    kernels.isd_rounds(rows2, np.arange(4)[None], 2, 4)
    kernels.isd_rounds(rows3, np.arange(4)[None], 3, 4)
    yield
