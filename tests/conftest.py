"""Shared fixtures: warm the kernels once per session.

The first spectrum sweep, the first enumeration of low-weight messages and
the first batched search round, over F_2 and over odd p, pay numpy's and
BLAS's set-up cost (thread pool start, first-touch allocations); warming
here keeps the runtime-bounded acceptance checks honest about steady-state
speed.

Hypothesis imports its failure-patch writer, and through it libcst, each
time a property test fails, and that first import warns
(mypy_extensions.TypedDict is deprecated).  Under filterwarnings = error the
warning ended the whole session with INTERNALERROR, so the module is
imported once here with DeprecationWarning ignored; later imports find it
loaded.
"""

import warnings

import numpy as np
import pytest

from pgcodes import kernels

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # a Hypothesis without it, or without libcst
        pass


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
