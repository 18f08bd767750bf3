import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from agnav.spline import (basis_matrix, clamped_uniform_knots, evaluate, make_clamped_uniform,
                          polygon_product, sample, sample_basis)


def random_path(rng, n_min=4, n_max=9, degree=3):
    n = rng.randint(n_min, n_max)
    pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(n)]
    return make_clamped_uniform(pts, degree)


def test_bezier_knots():
    path = make_clamped_uniform([(0, 0), (1, 2), (3, 1), (4, 0)], 3)
    assert np.array_equal(path.knots, [0, 0, 0, 0, 1, 1, 1, 1])


def test_single_interior_knot():
    path = make_clamped_uniform([(0, 0)] * 5, 3)
    assert np.array_equal(path.knots, [0, 0, 0, 0, 0.5, 1, 1, 1, 1])


def test_eight_point_knots():
    path = make_clamped_uniform([(i, 0) for i in range(8)], 3)
    assert len(path.knots) == 12
    assert np.allclose(path.knots[4:8], [0.2, 0.4, 0.6, 0.8])


def test_too_few_controls_rejected():
    with pytest.raises(ValueError):
        make_clamped_uniform([(0, 0), (1, 1)], 3)


def test_linear_interpolation():
    path = make_clamped_uniform([(0, 0), (2, 0)], 1)
    assert np.allclose(evaluate(path, 0.5), [1, 0])


def test_clamped_endpoints():
    rng = random.Random(1)
    for _ in range(20):
        path = random_path(rng)
        assert np.all(np.abs(evaluate(path, 0.0) - path.control_points[0]) < 1e-12)
        assert np.all(np.abs(evaluate(path, 1.0) - path.control_points[-1]) < 1e-12)


def test_u_outside_rejected():
    path = make_clamped_uniform([(0, 0), (1, 1), (2, 0), (3, 1)], 3)
    with pytest.raises(ValueError):
        evaluate(path, 1.5)
    with pytest.raises(ValueError):
        evaluate(path, -0.1)


def test_partition_of_unity_and_nonnegativity():
    rng = random.Random(2)
    for _ in range(10):
        path = random_path(rng)
        us = [rng.random() for _ in range(100)] + [0.0, 1.0]
        B = basis_matrix(path.knots, path.degree, us)
        assert np.all(B >= 0)
        assert np.all(np.abs(B.sum(axis=1) - 1.0) < 1e-9)


def test_convex_hull_membership():
    from scipy.spatial import ConvexHull

    rng = random.Random(3)
    for _ in range(10):
        path = random_path(rng, n_min=5)
        hull = ConvexHull(path.control_points)
        us = [rng.random() for _ in range(50)]
        pts = np.array([evaluate(path, u) for u in us])
        # inside every supporting half-plane up to tolerance
        margins = pts @ hull.equations[:, :2].T + hull.equations[:, 2][None, :]
        assert margins.max() < 1e-9


def test_affine_invariance_collinear():
    rng = random.Random(4)
    a, d = np.array([1.0, -2.0]), np.array([0.3, 0.7])
    controls = [a + t * d for t in (0.0, 0.8, 1.7, 2.2, 3.1)]
    path = make_clamped_uniform(controls, 3)
    for _ in range(100):
        p = evaluate(path, rng.random())
        cross = (p[0] - a[0]) * d[1] - (p[1] - a[1]) * d[0]
        assert abs(cross) < 1e-9


def test_matches_scipy_bspline():
    rng = random.Random(5)
    for _ in range(10):
        path = random_path(rng)
        ref = BSpline(path.knots, path.control_points, path.degree)
        for _ in range(20):
            u = rng.random()
            assert np.all(np.abs(evaluate(path, u) - ref(u)) < 1e-12)
        assert np.all(np.abs(evaluate(path, 1.0) - path.control_points[-1]) < 1e-12)


def test_sample_linear():
    path = make_clamped_uniform([(0, 0), (4, 0)], 1)
    assert np.array_equal(sample(path, 4), [[0, 0], [1, 0], [2, 0], [3, 0], [4, 0]])


def test_sample_m2():
    path = make_clamped_uniform([(0, 0), (2, 2)], 1)
    pts = sample(path, 2)
    assert np.allclose(pts, [[0, 0], [1, 1], [2, 2]])


def test_sample_rejects_small_m():
    path = make_clamped_uniform([(0, 0), (1, 0)], 1)
    with pytest.raises(ValueError):
        sample(path, 1)


def test_sample_basis_is_built_once_and_equals_basis_matrix():
    knots = clamped_uniform_knots(6, 3)
    B = sample_basis(knots, 3, 64)
    assert sample_basis(knots.copy(), 3, 64) is B
    assert not B.flags.writeable
    assert B.tobytes() == basis_matrix(knots, 3, np.arange(65) / 64).tobytes()
    assert sample_basis(knots, 3, 32) is not B
    assert sample_basis(clamped_uniform_knots(7, 3), 3, 64).shape == (65, 7)


def test_sample_bit_identical_to_a_fresh_basis():
    rng = np.random.default_rng(5)
    for n, degree, m in [(6, 3, 64), (6, 3, 64), (5, 2, 17), (8, 3, 64), (4, 1, 3)]:
        path = make_clamped_uniform(rng.uniform(-3.0, 3.0, (n, 2)), degree)
        fresh = basis_matrix(path.knots, degree, np.arange(m + 1) / m)
        assert sample(path, m).tobytes() == polygon_product(fresh, path.control_points).tobytes()


def test_chord_length_converges_from_below():
    path = make_clamped_uniform([(0, 0), (1, 2), (3, -1), (4, 1), (6, 0)], 3)

    def chord_sum(m):
        pts = sample(path, m)
        return float(np.sum(np.hypot(*np.diff(pts, axis=0).T)))

    lengths = [chord_sum(m) for m in (16, 32, 64, 128, 256)]
    assert all(a <= b + 1e-12 for a, b in zip(lengths, lengths[1:]))
    assert lengths[0] < lengths[-1]


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 1))
def test_partition_of_unity_property(u):
    path = make_clamped_uniform([(0, 0), (1, 3), (2, -1), (4, 2), (5, 0), (7, 1)], 3)
    B = basis_matrix(path.knots, path.degree, [u])
    assert abs(B.sum() - 1.0) < 1e-9
