"""Error profiles: the per-axis contraction against the dense node sum."""
import tracemalloc

import numpy as np
import pytest

from rlimited import kernels as K
from rlimited.moments import gauss_legendre_01, symmetrize
from rlimited.projection import expsum_kernel, measure_kernel_profile

# Non-square, off-centre boxes: a swapped axis or a wrong ravel order moves
# the sum to other grid points and fails the comparison.
BOX = {1: [[-0.7, 0.9]],
       2: [[-0.7, 0.9], [-0.3, 0.5]],
       3: [[-0.7, 0.9], [-0.3, 0.5], [-1.1, 0.2]]}
GRID_N = {1: 41, 2: 13, 3: 6}

CLOUDS = {
    "triangle": lambda: K.triangle_quadrature(K.TriangleSpec(0.8, 0.7), 4, 4,
                                              profile_grid=0),
    "equilateral-symmetric": lambda: K.equilateral_symmetric_quadrature(
        3, 3, profile_grid=0),
    "tetra-symmetric": lambda: K.tetra_symmetric_quadrature(
        2, 2, 2, profile_grid=0),
    "cone": lambda: K.cone_quadrature(K.ConeSpec(2.0, 1.0, 2), 4, 3, 3,
                                      profile_grid=0),
    "ball": lambda: K.ball_quadrature(1.3, 4, 4, 3, profile_grid=0),
    "interval": lambda: expsum_kernel(symmetrize(gauss_legendre_01(12), 3.0)),
    # a band that is neither the identity nor symmetric
    "banded-triangle": lambda: expsum_kernel(
        K.triangle_quadrature(K.TriangleSpec(0.8, 0.7), 4, 4, profile_grid=0),
        band=[[1.3, 0.4], [-0.2, 0.8]]),
}


def dense_error_profile(surrogate, exact, box, grid_n):
    """The dense route: max |exact - surrogate| over the whole
    (grid points x nodes) exponential matrix."""
    box = [[float(lo), float(hi)] for lo, hi in box]
    axes = [np.linspace(lo, hi, grid_n) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    err = np.max(np.abs(np.asarray(exact(pts)) - surrogate(pts)))
    return {"max_err": float(err), "box": box, "grid_n": int(grid_n)}


def base_sum(kern):
    """The dense banded sum at base-coordinate points Y = B^T x."""
    inv = np.linalg.inv(kern.band)
    return lambda Y: kern.eval_sum(Y @ inv)


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_contraction_matches_dense_sum_pointwise(name):
    kern = CLOUDS[name]()
    d = kern.nodes.shape[1]
    # with the dense sum as "exact", max_err is the largest pointwise gap
    # between the contracted and the dense sum, in the grid's ij order
    gap = K._error_profile((kern.weights, kern.nodes), base_sum(kern),
                           BOX[d], GRID_N[d])["max_err"]
    assert gap <= 1e-13 * np.abs(kern.weights).sum(), gap


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_measured_profile_matches_the_dense_oracle(name):
    kern = CLOUDS[name]()
    d = kern.nodes.shape[1]
    got = measure_kernel_profile(kern, BOX[d], GRID_N[d]) \
        .provenance["error_profile"]
    want = dense_error_profile(
        base_sum(kern),
        lambda Y: kern.det_band() * K.region_kernel_exact(kern.region, Y),
        BOX[d], GRID_N[d])
    assert got["box"] == want["box"] and got["grid_n"] == want["grid_n"]
    assert abs(got["max_err"] - want["max_err"]) \
        <= 1e-13 * np.abs(kern.weights).sum(), (got, want)


def test_recorded_profile_matches_the_dense_oracle():
    spec = K.TriangleSpec(0.8, 0.7)
    q = K.triangle_quadrature(spec, 3, 3, target_box=((-0.3, 0.3),) * 2)
    prof = q.provenance["error_profile"]
    want = dense_error_profile(q.eval_sum, lambda p: K.k_triangle(spec, *p.T),
                               prof["box"], prof["grid_n"])
    assert prof["box"] == want["box"] and prof["grid_n"] == 41
    assert abs(prof["max_err"] - want["max_err"]) \
        <= 1e-13 * q.weights.sum()


GRID_CLOUDS = {
    "line": lambda: K.QuadratureND(weights=np.array([0.5, 1.5]),
                                   nodes=np.array([[-0.5], [0.25]]),
                                   region=K.interval_region(), band=[[2.0]]),
    "banded-triangle": CLOUDS["banded-triangle"],
    "ball": CLOUDS["ball"],
    "tetra-symmetric": CLOUDS["tetra-symmetric"],
}


@pytest.mark.parametrize("name", sorted(GRID_CLOUDS))
def test_eval_grid_matches_dense_eval_sum_at_the_meshgrid_points(name):
    kern = GRID_CLOUDS[name]()
    d = kern.nodes.shape[1]
    # 5 x 7 x 3 points over the off-centre boxes, the last axis negated: a
    # swapped axis, a wrong ravel order or a dropped sign moves the sum
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(BOX[d], (5, 7, 3))]
    axes[-1] = -axes[-1]
    got = kern.eval_grid(axes)
    assert got.shape == tuple(map(len, axes))
    mesh = np.meshgrid(*axes, indexing="ij")
    want = kern.eval_sum(np.stack([m.ravel() for m in mesh], axis=-1))
    gap = np.max(np.abs(got.ravel() - want))
    assert gap <= 1e-13 * np.abs(kern.weights).sum(), gap
    with pytest.raises(ValueError, match="grid axes"):
        kern.eval_grid(axes[:-1] if d > 1 else axes * 2)


def test_3d_measured_profile_memory_is_linear_in_grid_axis():
    # the 31^3 grid of `rlimited project` for a 3D kernel; the dense
    # (29,791 x 12,000) exponential matrix alone would take 5.7 GB
    q = K.tetra_symmetric_quadrature(5, 5, 5, profile_grid=0)
    kern = expsum_kernel(q)
    G, N = 31, len(kern.weights)
    assert N == 12000
    tracemalloc.start()
    try:
        out = measure_kernel_profile(kern, [[-0.3, 0.3]] * 3, grid_n=G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * G * N * 16, peak / (G * N * 16)
    prof = out.provenance["error_profile"]
    assert prof["grid_n"] == G and np.isfinite(prof["max_err"])
    assert prof["max_err"] < 1e-6 * q.weights.sum()
