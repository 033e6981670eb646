"""Exact Morita-equivalence data for noncommutative tori.

Constructs and certifies, for an integer split-orthogonal group element g
and a rational skew matrix theta with g theta defined: the special-form
normalization, the dual pair of lattice embeddings, the target matrix
g' theta, the factorization g = mu(N) rho(A) g', and a numeric pointwise
check of the induced Heisenberg module actions.
"""

from .embedding import (
    EmbeddingError,
    Factorization,
    PipelineResult,
    build_torsion_data,
    embed,
    factor,
    pipeline,
)
from .exact_linalg import (
    alternating_normal_form_int,
    complete_basis,
    ext_gcd,
    rational_inverse,
    smith_normal_form,
    symplectic_factor_rational,
)
from .module_sim import (
    Block,
    ModuleDescriptor,
    Points,
    check_bimodule_commutation,
    check_left_relation,
    check_module_relation,
    inner_product_numeric,
    left_action,
    right_action,
    tile,
)
from .normal_form import SpecialForm, detect_special_form, domain_check, normalize, normalize_right
from .torus_group import (
    GroupElement,
    Theta,
    Undefined,
    act,
    check_membership,
    compose,
    invert_element,
    make_theta,
    mu,
    random_element,
    rho,
    sigma_flip,
)

__version__ = "0.1.0"
