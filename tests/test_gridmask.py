import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agnav.gridmask import (
    CameraModel,
    GridSpec,
    grid_lines,
    grid_to_world,
    ground_scale,
    render_gridmask_svg,
    world_to_grid,
)

# frozen oracle: 2 * 3.5 * tan(0.6) / 20 at 50-digit precision
S_CELL_35_12 = 0.23944788291959231097


def positions(spec):
    xs, ys = grid_lines(spec)
    return [x for _, x in xs], [y for _, y in ys]


def test_vertices_800x600():
    xs, ys = positions(GridSpec(800, 600, 80))
    assert xs == [0, 80, 160, 240, 320, 400, 480, 560, 640, 720]
    assert ys == [60, 140, 220, 300, 380, 460, 540]


def test_vertices_square_boundary():
    xs, ys = positions(GridSpec(160, 160, 80))
    assert xs == [0, 80]
    assert ys == [0, 80]


def test_vertex_count_1600():
    # independent enumeration of integers i with 0 <= 800 + 80 i < 1600
    expected = sum(1 for i in range(-100, 100) if 0 <= 800 + 80 * i < 1600)
    xs, _ = positions(GridSpec(1600, 1600, 80))
    assert expected == 20
    assert len(xs) == expected


def test_vertices_on_lattice():
    spec = GridSpec(801, 601, 80)
    xs, ys = positions(spec)
    for x in xs:
        assert 0 <= x < 801
        assert math.isclose((x - 801 / 2) % 80, 0, abs_tol=1e-12) or math.isclose(
            (x - 801 / 2) % 80, 80, abs_tol=1e-12)
    for y in ys:
        assert 0 <= y < 601


def test_grid_lines_match_integer_enumeration():
    # every integer index over a range far wider than the image, kept when its
    # line lies inside it: 0 <= w/2 + i*s < w and 0 <= h/2 - j*s < h
    rng = random.Random(0)
    for _ in range(1000):
        w, h = rng.randint(1, 400), rng.randint(1, 400)
        s = rng.choice([float(rng.randint(1, min(w, h))), rng.uniform(1.0, min(w, h))])
        span = range(-2 * max(w, h), 2 * max(w, h) + 1)
        xs = [(i, w / 2 + i * s) for i in span if 0 <= w / 2 + i * s < w]
        ys = sorted(((j, h / 2 - j * s) for j in span if 0 <= h / 2 - j * s < h),
                    key=lambda p: p[1])
        assert grid_lines(GridSpec(w, h, s)) == (xs, ys)


def test_spec_invariants():
    with pytest.raises(ValueError):
        GridSpec(0, 100, 10)
    with pytest.raises(ValueError):
        GridSpec(100, 100, 0)
    with pytest.raises(ValueError):
        GridSpec(100, 100, 101)


def test_ground_scale_closed_form():
    scale = ground_scale(CameraModel(2.0, math.pi / 2, 1600, 80))
    assert scale.n_grid == 20
    assert abs(scale.width_real - 4.0) < 1e-12
    assert abs(scale.cell_m - 0.2) < 1e-12
    assert abs(scale.cell_m * scale.n_grid - scale.width_real) < 1e-12


def test_ground_scale_high_precision_tangent():
    scale = ground_scale(CameraModel(3.5, 1.2, 1600, 80))
    assert abs(scale.cell_m - S_CELL_35_12) < 1e-12


def test_ground_scale_truncation_flag():
    scale = ground_scale(CameraModel(2.0, math.pi / 2, 1600, 96))
    assert scale.n_grid == 16


def test_ground_scale_rejections():
    with pytest.raises(ValueError):
        CameraModel(2.0, math.pi, 1600, 80)
    with pytest.raises(ValueError):
        CameraModel(0.0, 1.0, 1600, 80)
    with pytest.raises(ValueError):
        ground_scale(CameraModel(2.0, 1.0, 100, 200))


@pytest.mark.parametrize("altitude", [math.nan, 5e-324])
def test_ground_scale_rejects_a_cell_that_is_not_a_positive_finite_length(altitude):
    # a NaN altitude passes CameraModel's sign check; a subnormal one makes a
    # cell that underflows to 0
    camera = CameraModel(altitude, math.pi / 2, 1600, 80)
    with pytest.raises(ValueError, match="cell_m must be a positive finite length"):
        ground_scale(camera)


def test_doubling_interval():
    base = ground_scale(CameraModel(2.0, math.pi / 2, 1600, 40))
    doubled = ground_scale(CameraModel(2.0, math.pi / 2, 1600, 80))
    assert doubled.n_grid * 2 == base.n_grid
    assert doubled.cell_m == 2 * base.cell_m


def test_grid_to_world_examples():
    assert grid_to_world(0.2, (5, -3)) == (1.0, -0.6000000000000001) or \
        tuple(grid_to_world(0.2, (5, -3))) == pytest.approx((1.0, -0.6), abs=1e-12)
    assert tuple(grid_to_world(0.2, (0, 0))) == (0.0, 0.0)
    assert tuple(grid_to_world(0.5, (2, 2), origin=(1.0, -1.0))) == (2.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-50, 50), st.floats(-50, 50),
    st.floats(0.01, 10.0),
    st.floats(-5, 5), st.floats(-5, 5),
)
def test_round_trip_world_grid(x, y, cell, ox, oy):
    p = world_to_grid(cell, (x, y), origin=(ox, oy))
    q = grid_to_world(cell, p, origin=(ox, oy))
    assert abs(q[0] - x) < 1e-9 * max(1.0, abs(x))
    assert abs(q[1] - y) < 1e-9 * max(1.0, abs(y))


def test_round_trip_1000_points():
    rng = random.Random(0)
    for _ in range(1000):
        p = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        q = grid_to_world(0.2, world_to_grid(0.2, p))
        assert abs(q[0] - p[0]) < 1e-12 and abs(q[1] - p[1]) < 1e-12


def test_svg_line_counts():
    svg = render_gridmask_svg(GridSpec(160, 160, 80))
    assert svg.count("<line") == 4
    assert svg.count("<text") == 4


def test_svg_deterministic():
    a = render_gridmask_svg(GridSpec(800, 600, 80))
    b = render_gridmask_svg(GridSpec(800, 600, 80))
    assert a == b
    assert a.encode() == b.encode()


def test_svg_label_indices():
    spec = GridSpec(800, 600, 80)
    xs, _ = grid_lines(spec)
    assert [i for i, _ in xs] == list(range(-5, 5))
    svg = render_gridmask_svg(spec)
    for i, _ in xs:
        assert f">{i}</text>" in svg


@pytest.mark.parametrize("spec, digest", [
    (GridSpec(1600, 1600, 80), "0cb6b339509f0487dff6b9d3d56336ee797072868bd8c0889c438cefa99aa023"),
    (GridSpec(801, 601, 80), "097ad91e05a394be8adedf00884560fc259f8ba2381fe99a18076fe49eafe879"),
])
def test_svg_bytes_pinned(spec, digest):
    # the overlay's exact bytes, the 1600 x 1600 one as CI renders it
    assert hashlib.sha256(render_gridmask_svg(spec).encode()).hexdigest() == digest
