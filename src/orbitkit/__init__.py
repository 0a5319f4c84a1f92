"""Holomorphic nilpotent orbits in the classical hermitian Lie algebras:
matrix models, sl2-triples, orbit classification, dual-pair momentum maps,
Lie-Poisson brackets, and Jordan-algebra invariants."""

from .classify import (
    NOT_PSEUDOHOLOMORPHIC, OrbitType, admissible_types, classify_many,
    classify_nilpotent, in_closure, is_holomorphic, k_rank, pplus_closure_report,
    random_conjugate, semisimple_orbit_check,
)
from .divalg import AlgebraElement, DAMatrix, cd_conj, cd_mul
from .dualpair import (
    CASES, DualPairConfig, InterlacingMap, canonical_alphas, dagger,
    g_action, h_action, invariant_quadratics_dim, make_dual_pair,
    moment_quadratic_forms, mu_g, mu_h, omega_w, quadratic_hamiltonian,
    rank_one_moment, reduce_and_classify, sample_sp1_nilcone,
    sample_zero_level, semisimple_reduction_check,
)
from .jordan import (
    AlbertElement, albert_rank, freudenthal_adjoint, fundamental_invariant,
    generic_norm, jordan_product, jordan_rank_classical,
)
from .liealg import (
    LieAlgebraDescriptor, PPlusElement, b_x_form, bracket, cartan_split,
    contains, frobenius, from_p_plus, make_algebra, proj_k, proj_p,
    random_element, to_p_plus,
)
from .poisson import (
    ContractionModel, PoissonContext, contraction_bracket, disc_model_bracket,
    half_trace, lie_poisson_bracket, model_metric_and_curvature, poly_bracket,
    pplus_bracket_matrix, s1_energy, stereographic_to_disc,
)
from .triples import check_triple, ks_element, orbit_rep, standard_triples

__version__ = "0.1.0"
