"""Exponential-sum machinery for band-limited fields: moment-matched
quadratures, sinc and chirplet cosine expansions, region kernels with
cascaded node clouds, concentrated eigenbases, and projection operators."""

def _cap_threads():
    # RLIMIT_THREADS caps BLAS pools; must land before numpy's first import.
    import os
    cap = os.environ.get("RLIMIT_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_cap_threads()
del _cap_threads

from .numkit import sinc, cosinc, expc, power_exp_integral, PointSet, \
    SampledField, make_grid, write_field_csv, read_field_csv
from .moments import MomentSequence, Quadrature1D, preset_moments, \
    solve_moment_problem, gauss_legendre_01, chebyshev_rule_for_j0, \
    uniform_rule, symmetrize, verify_moments
from .sincapprox import CosineSumApprox, build_sinc_cosine_approx, \
    eval_cosine_sum, error_epsilon_B, reduction_level, periodic_sinc, \
    uniform_max_error, scaling_multiplier, ChirpletApprox, \
    build_chirplet_approx, eval_chirplet_sum, symmetric_sinc_rule, \
    one_sided_unit_rule, frequency_rule
from .kernels import Region, TriangleSpec, TetraSpec, ConeSpec, \
    QuadratureND, interval_region, triangle_region, tetrahedron_region, \
    cone_region, ball_region, transformed_region, union_region, \
    region_contains, equilateral_spec, regular_tetra_spec, sub_tetra_spec, \
    k_triangle, triangle_scaling_refine, triangle_quadrature, \
    equilateral_symmetric_quadrature, k_tetra, tetra_quadrature, \
    tetra_symmetry_group, tetra_symmetric_quadrature, tetra_contains, \
    rotation_matrix, TETRA_VERTICES, k_cone, tilde_k_cone, cone_ls_error, \
    cone_ls_error_bruteforce, cone_quadrature, k_ball, ball_quadrature, \
    j1_expansion_from_rule
from .prolate import EigenBasis, pswf_exp_eigensystem, \
    pswf_kernel_eigensystem, ProlateEvaluator, extend_prolate, \
    rslepian_exp_eigensystem, rslepian_kernel_eigensystem, \
    eigenbasis_to_json, eigenbasis_from_json
from .projection import expsum_kernel, region_kernel_exact, \
    region_dim, bandlimited_projection_oracle, discrete_fourier_repr_1d, \
    discrete_repr_error_bound, nyquist_delta_train_check, \
    sampling_interpolation_1d, rlimited_discrete_fourier, \
    ra_sampling_interpolation, patched_projection, patched_sample_points, \
    ProjectionResult

__all__ = [
    "sinc", "cosinc", "expc", "power_exp_integral", "PointSet",
    "SampledField", "make_grid", "write_field_csv", "read_field_csv",
    "MomentSequence", "Quadrature1D", "preset_moments",
    "solve_moment_problem", "gauss_legendre_01", "chebyshev_rule_for_j0",
    "uniform_rule", "symmetrize", "verify_moments",
    "CosineSumApprox", "build_sinc_cosine_approx", "eval_cosine_sum",
    "error_epsilon_B", "reduction_level", "periodic_sinc",
    "uniform_max_error", "scaling_multiplier",
    "ChirpletApprox", "build_chirplet_approx", "eval_chirplet_sum",
    "symmetric_sinc_rule", "one_sided_unit_rule", "frequency_rule",
    "Region", "TriangleSpec", "TetraSpec", "ConeSpec", "QuadratureND",
    "interval_region", "triangle_region", "tetrahedron_region",
    "cone_region", "ball_region", "transformed_region", "union_region",
    "region_contains",
    "equilateral_spec", "regular_tetra_spec", "sub_tetra_spec",
    "k_triangle", "triangle_scaling_refine", "triangle_quadrature",
    "equilateral_symmetric_quadrature", "k_tetra", "tetra_quadrature",
    "tetra_symmetry_group", "tetra_symmetric_quadrature", "tetra_contains",
    "rotation_matrix", "TETRA_VERTICES", "k_cone", "tilde_k_cone",
    "cone_ls_error", "cone_ls_error_bruteforce", "cone_quadrature",
    "k_ball", "ball_quadrature", "j1_expansion_from_rule",
    "EigenBasis", "pswf_exp_eigensystem", "pswf_kernel_eigensystem",
    "ProlateEvaluator", "extend_prolate", "rslepian_exp_eigensystem",
    "rslepian_kernel_eigensystem", "eigenbasis_to_json",
    "eigenbasis_from_json",
    "expsum_kernel", "region_kernel_exact", "region_dim",
    "bandlimited_projection_oracle", "discrete_fourier_repr_1d",
    "discrete_repr_error_bound", "nyquist_delta_train_check",
    "sampling_interpolation_1d", "rlimited_discrete_fourier",
    "ra_sampling_interpolation", "patched_projection",
    "patched_sample_points", "ProjectionResult",
]
