"""Exact arithmetic toolkit for sum-product experiments over the rationals.

Energies, representation histograms, collinear point counts, point-line
incidence bounds, constructive set decompositions, and a verification
harness, all over exact rational arithmetic.  Hot counting kernels run on
cleared-denominator Python ints, exact at any magnitude.

`energy` is the function, not its module: `addcomb.energy`, `from addcomb
import energy` and even `import addcomb.energy as m` bind the function.
Reach the module by `from addcomb.energy import ...` or by
`sys.modules["addcomb.energy"]`.
"""

from ._kernels import backend_name
from .collinear import (
    IdentityReport,
    TripleCountReport,
    t_count_brute,
    t_identity_check,
    t_o_count,
    triple_count_report,
)
from .core import (
    DEFAULT_BUDGET,
    LineKey,
    PlanePoint,
    canonical_line,
    line_through,
    point,
)
from .decompose import (
    DecompositionResult,
    DyadicBand,
    ExtractionCertificate,
    RegTrace,
    best_z,
    bw_decompose,
    dyadic_band,
    extract_mult_structured,
    recheck_certificate,
    recheck_reg_trace,
    regularize,
    xy_decompose,
)
from .energy import (
    CountHistogram,
    energy,
    energy_mul_product_form,
    l4_union_check,
    rep_histogram,
)
from .errors import AddcombError
from .harness import (
    DEFAULT_CORPUS,
    ExponentFit,
    VerifySuiteResult,
    fit_exponent,
    run_suite,
    shift_product_report,
)
from .incidence import (
    Arrangement,
    STReport,
    incidences,
    line_moment_sums,
    rich_lines,
    st_bound_check,
)
from .ratios import RatioProfile, popular_ratios, r_of_z, ratio_profile
from .sets import (
    GeneratorConfig,
    RatSet,
    SplitMix64,
    affine,
    ap,
    generate,
    gp,
    grid_example,
    random_set,
    read_set_file,
    set_op,
    write_set_file,
)

__version__ = "0.1.0"

__all__ = [
    "AddcombError",
    "Arrangement",
    "CountHistogram",
    "DecompositionResult",
    "DEFAULT_BUDGET",
    "DEFAULT_CORPUS",
    "DyadicBand",
    "ExponentFit",
    "ExtractionCertificate",
    "GeneratorConfig",
    "IdentityReport",
    "LineKey",
    "PlanePoint",
    "RatioProfile",
    "RatSet",
    "RegTrace",
    "SplitMix64",
    "STReport",
    "TripleCountReport",
    "VerifySuiteResult",
    "affine",
    "ap",
    "backend_name",
    "best_z",
    "bw_decompose",
    "canonical_line",
    "dyadic_band",
    "energy",
    "energy_mul_product_form",
    "extract_mult_structured",
    "fit_exponent",
    "generate",
    "gp",
    "grid_example",
    "incidences",
    "l4_union_check",
    "line_moment_sums",
    "line_through",
    "point",
    "popular_ratios",
    "r_of_z",
    "random_set",
    "ratio_profile",
    "read_set_file",
    "recheck_certificate",
    "recheck_reg_trace",
    "regularize",
    "rep_histogram",
    "rich_lines",
    "run_suite",
    "set_op",
    "shift_product_report",
    "st_bound_check",
    "t_count_brute",
    "t_identity_check",
    "t_o_count",
    "triple_count_report",
    "write_set_file",
    "xy_decompose",
]
