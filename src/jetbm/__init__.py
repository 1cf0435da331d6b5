"""jetbm: a desk-scale tensor-calculus engine for the time-dependent
(rheonomic) Berwald-Moor metric sqrt(h^11(t)) (y^1 y^2 y^3 y^4)^(1/4) on the
1-jet space J1(R, M4).

Every distinguished geometric object -- the fundamental metric, nonlinear and
Cartan connections, torsion and curvature d-tensors, Ricci data, Einstein
blocks, conservation residuals and the electromagnetic 2-form -- is computed
twice: through a generic pipeline, a batched closed-form kernel for the
metric's y-derivatives with batched second-order forward-mode Taylor
arithmetic as its oracle, and through its closed form; the two are verified against
each other over seeded samples.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConstructionError,
    DegenerateDenominatorError,
    DomainError,
    InvariantError,
    JetBMError,
    SingularTensorError,
)
from .jetcore import (
    JetPoint,
    QuarticTensor,
    Taylor2,
    TimeAxis,
    TimeMetric,
    taylor2_seed,
)
from .geometry import Geometry
from .closed import (
    MetricPair,
    a_table,
    bm_metric_closed,
    bm_s_closed,
    bm_s_raised_field,
    bm_s_ricci_contracted,
    bm_s_ricci_field,
    classify_s_case,
    scalar_curvature_field,
    xi_11,
)
from .metric import GScalars, g_scalars, metric_pair, metric_taylor2
from .connection import (
    CartanConnection,
    NonlinearConnection,
    adapted_coframe,
    adapted_frame,
    apriori_nlc,
    bm_cartan_closed,
    canonical_nlc,
    cartan_connection,
    christoffel_time,
)
from .curvature import CurvatureSet, RicciSet, TorsionSet, curvatures, ricci_scalar, torsions
from .fieldtheory import (
    ConservationResiduals,
    DesCheck,
    EinsteinBlocks,
    EMForm,
    GravPotential,
    conservation_residuals,
    des_check,
    einstein_blocks,
    em_form,
    grav_potential,
)

__all__ = [
    "__version__",
    "JetBMError",
    "ConstructionError",
    "DomainError",
    "SingularTensorError",
    "DegenerateDenominatorError",
    "ConfigError",
    "InvariantError",
    "Geometry",
    "JetPoint",
    "TimeMetric",
    "TimeAxis",
    "QuarticTensor",
    "Taylor2",
    "taylor2_seed",
    "GScalars",
    "MetricPair",
    "g_scalars",
    "metric_pair",
    "bm_metric_closed",
    "metric_taylor2",
    "NonlinearConnection",
    "CartanConnection",
    "christoffel_time",
    "canonical_nlc",
    "apriori_nlc",
    "adapted_frame",
    "adapted_coframe",
    "cartan_connection",
    "bm_cartan_closed",
    "a_table",
    "TorsionSet",
    "CurvatureSet",
    "RicciSet",
    "torsions",
    "curvatures",
    "bm_s_closed",
    "classify_s_case",
    "ricci_scalar",
    "bm_s_ricci_contracted",
    "bm_s_ricci_field",
    "bm_s_raised_field",
    "scalar_curvature_field",
    "GravPotential",
    "EinsteinBlocks",
    "ConservationResiduals",
    "DesCheck",
    "EMForm",
    "grav_potential",
    "einstein_blocks",
    "conservation_residuals",
    "des_check",
    "em_form",
    "xi_11",
]
