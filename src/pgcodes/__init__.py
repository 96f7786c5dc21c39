"""Linear codes from point-hyperplane incidences of projective spaces.

The package builds the incidence matrix of points versus hyperplanes of
PG(n, q), takes its row space over the prime field F_p, and provides the
machinery to study that code: weight spectra (exhaustive or randomized
low-weight search), word classification, hull computation, blocking-set
reduction, and a battery of structural verification suites exposed through
the ``pgcodes`` command line tool.
"""

from pgcodes.gf import FieldElement, FieldSpec, make_field
from pgcodes.geometry import GeometrySpec, Hyperplane, ProjPoint, Subspace, theta
from pgcodes.code import CodeModel, build_model, expected_dimension
from pgcodes.analysis import (
    SpectrumReport,
    TraceKind,
    WordKind,
    classify_word,
    classify_words,
    enumerate_spectrum,
    low_weight_search,
)
from pgcodes.blocking import PointSet, is_k_blocking, reduce_to_minimal
from pgcodes.verify import VerificationReport, emit_report, run_suite

__all__ = [
    "FieldElement",
    "FieldSpec",
    "make_field",
    "GeometrySpec",
    "ProjPoint",
    "Hyperplane",
    "Subspace",
    "theta",
    "CodeModel",
    "build_model",
    "expected_dimension",
    "SpectrumReport",
    "WordKind",
    "TraceKind",
    "classify_word",
    "classify_words",
    "enumerate_spectrum",
    "low_weight_search",
    "PointSet",
    "is_k_blocking",
    "reduce_to_minimal",
    "VerificationReport",
    "run_suite",
    "emit_report",
]

__version__ = "0.1.0"
