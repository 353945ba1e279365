"""Exact coincidence-site-lattice arithmetic for the A4 root lattice,
realised as the twist-invariant part of the icosian ring."""

from .errors import BudgetError, DomainError, ParseError
from .field import (
    KNum,
    OInt,
    OFactorization,
    factor_o,
    format_knum,
    format_oint,
    gcd_o,
    lcm_o,
    parse_knum,
    parse_oint,
    sqrt_o,
    unit_normalize,
)
from .quaternion import Quat, format_quat, parse_quat
from .icosian import (
    Icosian,
    Rank8Module,
    den,
    extension,
    glcd,
    right_ideal,
    same_right_ideal,
    to_icosian,
    unit_group,
)
from .lattice import (
    GRAM,
    SublatticeL,
    module_to_L,
    phi_plus_image,
    to_L_coords,
)
from .csl import (
    CoincidenceRotation,
    CslRecord,
    csl_Lq,
    csl_ideal_form,
    csl_intersection,
    csl_record,
    equal_csl,
    rotation_of,
    sufficient_equal_lemma,
    symmetry_related,
)
from .counting import (
    SigmaCensus,
    census,
    census_table,
    dirichlet_coeffs,
    enumerate_rotations,
    f,
    f_prime_power,
)
from .shortvec import NodeBudget

__version__ = "0.1.0"
