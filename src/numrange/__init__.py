"""Numerical ranges, numerical radii, finite Blaschke products, Clark
decompositions, teardrop regions and randomized theorem-verification suites
for dense complex matrices."""

from .blaschke import (
    BlaschkeProduct,
    ClarkDecomposition,
    circle_log_derivative,
    clark_decomposition,
    level_set,
)
from .diskfun import (
    Blaschke,
    Compose,
    DiskFunction,
    Mobius,
    Polynomial,
    Scale,
    eval_matrix,
    eval_scalar,
    mobius_automorphism,
)
from .fov import (
    BoundaryCurve,
    boundary,
    contains,
    hermitian_part,
    numerical_radius,
    support_values,
)
from .linalg import (
    is_psd,
    min_eigenvalue,
    operator_norm,
    solve,
)
from .regions import (
    drury_params_inner,
    drury_params_outer,
    q_form,
    region_S_boundary,
    region_S_contains,
    teardrop_boundary,
    teardrop_contains,
    teardrop_distance,
    teardrop_support,
)
from .verify import (
    VerifyReport,
    check_berger_stampfli,
    check_drury,
    check_local_inequality,
    check_operator_inequality,
    check_power_inequality,
    check_props52,
    check_region_S,
    extremal_search,
)

__version__ = "0.1.0"
