"""Odometer maps on truncated vector-valued Fock spaces.

Construct the map, read off its block structure and analytic Toeplitz
symbol, and verify or classify the structural dichotomies (isometry,
unitarity, invertibility, defect and index, Wold multiplicity, norm
formulas, resolvent floors, hyponormality obstructions) numerically.

All computation is pure functions over immutable inputs; nothing here
mutates shared state.
"""

from .errors import (
    AllNsWord,
    BoundaryZeroSuspected,
    CapExceeded,
    CertificateError,
    DefectUnstable,
    IdenticallySingular,
    MethodDisagreement,
    NotAProjection,
    NotIsometric,
    OdolabError,
    OnesChainWord,
    RangeNotContained,
    SpectralUncertified,
    SymbolFormatError,
)
from .numerics import Tolerance, winding_number
from .fock import BasisIndex, enumerate_basis, predecessor, successor
from .symbol import (
    MatrixPolynomial,
    Symbol,
    is_inner_exact,
    is_invertible_hinf,
    load_symbol,
    save_symbol,
    sup_norm,
)
from .operator import (
    FockOperator,
    SubspaceSelector,
    block,
    build_wl,
    build_wl_adjoint,
    toeplitz_truncation,
)
from .analysis import (
    ClassificationReport,
    classify,
    coburn_bound,
    defect,
    douglas_factor,
    fredholm_index,
    hyponormality_probe,
    norm_report,
    wold_multiplicity,
)
from .gallery import GalleryEntry, build_entry, gallery_names
from .verify import run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "AllNsWord",
    "BasisIndex",
    "BoundaryZeroSuspected",
    "CapExceeded",
    "CertificateError",
    "ClassificationReport",
    "DefectUnstable",
    "FockOperator",
    "GalleryEntry",
    "IdenticallySingular",
    "MatrixPolynomial",
    "MethodDisagreement",
    "NotAProjection",
    "NotIsometric",
    "OdolabError",
    "OnesChainWord",
    "RangeNotContained",
    "SpectralUncertified",
    "SubspaceSelector",
    "Symbol",
    "SymbolFormatError",
    "Tolerance",
    "block",
    "build_entry",
    "build_wl",
    "build_wl_adjoint",
    "classify",
    "coburn_bound",
    "defect",
    "douglas_factor",
    "enumerate_basis",
    "fredholm_index",
    "gallery_names",
    "hyponormality_probe",
    "is_inner_exact",
    "is_invertible_hinf",
    "load_symbol",
    "norm_report",
    "predecessor",
    "run_all",
    "run_suite",
    "save_symbol",
    "successor",
    "sup_norm",
    "toeplitz_truncation",
    "winding_number",
    "wold_multiplicity",
    "__version__",
]
