"""Exact arithmetic toolkit for sum-product experiments over the rationals.

Energies, representation histograms, collinear point counts, point-line
incidence bounds, constructive set decompositions, and a verification
harness, all over exact rational arithmetic.  Hot counting kernels run on
cleared-denominator Python ints, exact at any magnitude.

`import addcomb` loads only `energy` and what it imports.  Every other name
of `__all__` is read from its module on first use (PEP 562), so a command
compiles only the modules it needs.

`energy` is the function, not its module: `addcomb.energy`, `from addcomb
import energy` and even `import addcomb.energy as m` bind the function.
Reach the module by `from addcomb.energy import ...` or by
`sys.modules["addcomb.energy"]`.
"""

import importlib

from .energy import energy

__version__ = "0.1.0"

__all__ = [
    "AddcombError", "Arrangement", "CountHistogram", "DecompositionResult", "DEFAULT_BUDGET",
    "DEFAULT_CORPUS", "DyadicBand", "ExponentFit", "ExtractionCertificate", "GeneratorConfig",
    "IdentityReport", "LineKey", "PlanePoint", "RatioProfile", "RatSet", "RegTrace",
    "SplitMix64", "STReport", "TripleCountReport", "VerifySuiteResult", "affine", "ap",
    "backend_name", "best_z", "bw_decompose", "canonical_line", "dyadic_band", "energy",
    "energy_mul_product_form", "extract_mult_structured", "fit_exponent", "generate", "gp",
    "grid_example", "incidences", "l4_union_check", "line_moment_sums", "line_through",
    "point", "popular_ratios", "r_of_z", "random_set", "ratio_profile", "read_set_file",
    "recheck_certificate", "recheck_reg_trace", "regularize", "rep_histogram", "rich_lines",
    "run_suite", "set_op", "shift_product_report", "st_bound_check", "t_count_brute",
    "t_identity_check", "t_o_count", "triple_count_report", "write_set_file", "xy_decompose",
]

# the modules that define the names above, each after every module it imports
_MODULES = ("errors", "_kernels", "sets", "core", "energy", "collinear", "incidence", "ratios",
            "decompose", "harness")


def __getattr__(name):
    # the first module that binds a public name defines it; the package
    # keeps no copy, so a wrapper patched into that module and restored
    # leaves nothing behind here
    if name in __all__:
        for module in _MODULES:
            mod = importlib.import_module(f"{__name__}.{module}")
            if hasattr(mod, name):
                return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
