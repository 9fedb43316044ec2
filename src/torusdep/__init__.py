"""Exact-arithmetic toolkit for multiplicative dependence on rational
curves inside an algebraic torus."""

from .errors import (
    AssumptionViolation,
    DomainError,
    ImproperParametrization,
    InvariantViolation,
    ParseError,
    PreconditionError,
)
from .exactcore import (
    Poly,
    RatFunc,
    factor_poly,
    nth_power_in_Q,
)
from .intlattice import (
    IntMatrix,
    LatticeBasis,
    hnf,
    kernel_basis,
    min_content,
    primitive_witness,
)
from .curvegeom import (
    Character,
    CurveData,
    NormalizedCharacter,
    Place,
    check_assumption,
    cyclotomic_realizable,
    divisor_of,
    map_degree,
    normalize_character,
    phi_enumerate,
)
from .multdep import (
    Decomposition,
    FactoredRational,
    decompose,
    factor_rational,
    is_dependent,
    is_primitively_dependent,
    point_height,
    relation_lattice,
    weil_height,
)
from .explorer import (
    AnalysisConfig,
    Report,
    ScanRecord,
    analyze,
    parse_curve,
    scan_dependent,
    torsion_fiber,
)

__version__ = "0.1.0"
