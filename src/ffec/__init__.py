"""Exact arithmetic for elliptic curves over rational function fields F_q(t)."""

__version__ = "0.1.0"

from .algebra import (
    CapError,
    FFECError,
    Fq,
    ParseError,
    Place,
    Poly,
    RatFunc,
    field_create,
    mult_order,
    place_count,
    places_up_to,
)
from .weierstrass import (
    Curve,
    CurvePoint,
    NotEllipticError,
    Transform,
    base_change_pow,
    classify,
    format_curve_file,
    minimal_polynomial_model,
    parse_curve_file,
)
from .local import (
    Conductor,
    CurveAnalysis,
    KodairaType,
    LocalData,
    bad_reduction,
    conductor,
    curve_analysis,
    fiber_counts,
    nprime_deg,
    tate_type,
    torsion_bound,
)
from .lfunction import (
    LPoly,
    analytic_rank,
    check_functional_equation,
    check_rh,
    constant_l,
    l_polynomial,
    surface_zeta,
)
from .towers import (
    BlockSystem,
    lemma_la_verify,
    orbit_decomposition,
    rank_growth_scan,
    tower_l,
)
from .heights_points import (
    HeightValue,
    canonical_height,
    family_gram,
    gram_matrix,
    height_pairing,
    is_torsion,
    legendre_family,
    naive_height,
    points_report,
)
from .berger import (
    BergerData,
    berger_catalog,
    c1,
    c2,
    genus,
    parse_berger_data,
)
