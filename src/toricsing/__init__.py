"""Exact analysis of polynomials and families on affine toric varieties.

The package decides, in exact arithmetic, whether a one-parameter family of
polynomial functions on an affine toric variety has constant Newton
boundary, non-degenerate and locally tame members, and (when everything
holds) certifies that the associated hypersurface family is Whitney
equisingular, together with its canonical stratification.
"""

from .errors import ToricError
from .rationals import GaussianRational
from .lattice import (
    ConeFace,
    RationalCone,
    RationalVector,
    dual_cone,
    face_lattice,
    hilbert_basis,
    minimize,
)
from .variety import (
    ToricVariety,
    TorusPoint,
    build_variety,
    distinguished_point,
    embed,
    embed_restricted,
    orbit_dimension,
)
from .newton import (
    LaurentForm,
    NewtonPolyhedron,
    PolyFace,
    ToricPolynomial,
    face_function,
    newton_polyhedron,
    torus_form,
)
from .checks import (
    EssentialFace,
    Verdict,
    check_all_tameness,
    check_local_tameness,
    check_nondegeneracy,
    essential_noncompact_faces,
    restrict,
    restriction_nondegeneracy_check,
    vanishing_split,
)
from .family import (
    AdmissibilityReport,
    FamilyPolynomial,
    Stratum,
    canonical_stratification,
    check_admissibility,
    check_condition_I,
    check_condition_II,
    specialize,
)
from .parser import parse_family, parse_polynomial, parse_problem

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "ConeFace",
    "EssentialFace",
    "FamilyPolynomial",
    "GaussianRational",
    "LaurentForm",
    "NewtonPolyhedron",
    "PolyFace",
    "RationalCone",
    "RationalVector",
    "Stratum",
    "ToricError",
    "ToricPolynomial",
    "ToricVariety",
    "TorusPoint",
    "Verdict",
    "build_variety",
    "canonical_stratification",
    "check_admissibility",
    "check_all_tameness",
    "check_condition_I",
    "check_condition_II",
    "check_local_tameness",
    "check_nondegeneracy",
    "distinguished_point",
    "dual_cone",
    "embed",
    "embed_restricted",
    "essential_noncompact_faces",
    "face_function",
    "face_lattice",
    "hilbert_basis",
    "minimize",
    "newton_polyhedron",
    "orbit_dimension",
    "parse_family",
    "parse_polynomial",
    "parse_problem",
    "restrict",
    "restriction_nondegeneracy_check",
    "specialize",
    "torus_form",
    "vanishing_split",
]
