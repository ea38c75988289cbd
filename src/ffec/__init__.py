"""Exact arithmetic for elliptic curves over rational function fields F_q(t).

The public names below, and the submodules, are imported on first access
(PEP 562), so `import ffec` loads no submodule and each command of the
command line loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": (
        "CapError", "FFECError", "Fq", "ParseError", "Place", "Poly", "RatFunc",
        "field_create", "mult_order", "orbit_decomposition", "place_count",
        "places_up_to",
    ),
    "weierstrass": (
        "Curve", "CurvePoint", "NotEllipticError", "Transform", "base_change_pow",
        "classify", "format_curve_file", "minimal_polynomial_model",
        "parse_curve_file",
    ),
    "local": (
        "Conductor", "CurveAnalysis", "KodairaType", "LocalData", "bad_reduction",
        "conductor", "curve_analysis", "fiber_counts", "nprime_deg", "tate_type",
        "torsion_bound",
    ),
    "lfunction": (
        "LPoly", "analytic_rank", "check_functional_equation", "check_rh",
        "constant_l", "l_polynomial", "surface_zeta",
    ),
    "towers": (
        "BlockSystem", "lemma_la_verify", "rank_growth_scan", "tower_l",
    ),
    "heights_points": (
        "HeightValue", "canonical_height", "family_gram", "gram_matrix",
        "height_pairing", "is_torsion", "legendre_family", "naive_height",
        "points_report",
    ),
    "berger": (
        "BergerData", "berger_catalog", "c1", "c2", "genus", "parse_berger_data",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("algebra", "arrays", "berger", "catalog", "cli", "heights_points",
               "lfunction", "local", "towers", "weierstrass", "zfactor")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
