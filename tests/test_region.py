import csv
import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from saddlereg import (
    ENTER,
    EXIT,
    TANGENT,
    boundary_classify,
    check_assumption_separation,
    check_boundary_assumption,
    get_objective,
    halfspace_check,
    make_objective,
    quadratic_bowl,
    theta_region,
)
import saddlereg.region as region_module
from saddlereg.linalg import _norms
from saddlereg.region import (
    GRID_BLOCK_CELLS,
    RegionGrid,
    _erode,
    _grad_norm_grid,
    _labels,
)

from oracles import grad_norm_grid, region_csv


def test_valley_region_shape():
    # ||grad f||^2 = x^4 + y^2, so the region at theta=1 is {x^4 + y^2 <= 1}
    f = get_objective("cubic_valley")
    region = theta_region(f, [0.0, 0.0], 1.0, box=[[-2, 2], [-2, 2]], resolution=400)
    assert region.contains_point([0.5, 0.5])
    assert region.contains_point([0.0, 0.9])
    assert not region.contains_point([1.5, 0.0])
    assert not region.contains_point([0.0, 1.5])


def test_region_inside_cells_satisfy_threshold():
    f = get_objective("cubic_cone")
    region = theta_region(f, [0.0, 0.0], 3.0, resolution=150)
    centers = region.inside_cell_centers()
    norms = np.linalg.norm(f.gradient(centers), axis=-1)
    assert np.all(norms <= 3.0)


def test_region_is_connected_and_contains_seed():
    f = get_objective("cubic_cone")
    region = theta_region(f, [0.0, 0.0], 3.0, resolution=150)
    assert region.inside[region.seed_cell]
    structure = ndimage.generate_binary_structure(2, 1)
    _, n_components = ndimage.label(region.inside, structure=structure)
    assert n_components == 1
    # the paper's probe point for this surface lies inside the same component
    assert region.contains_point([1.5, 0.5])


def test_large_theta_covers_box():
    f = get_objective("cubic_valley")
    region = theta_region(f, [0.0, 0.0], 1e6, box=[[-2, 2], [-2, 2]], resolution=50)
    assert region.inside.all()
    assert not region.boundary.any()  # no inside cell has an outside neighbor


def test_seed_outside_region_rejected():
    f = get_objective("cubic_valley")
    with pytest.raises(ValueError):
        theta_region(f, [1.5, 0.0], 1.0, box=[[-2, 2], [-2, 2]], resolution=100)


@pytest.mark.parametrize("build", [
    lambda f, r: theta_region(f, [0.0, 0.0], 1.0, resolution=r),
    lambda f, r: check_assumption_separation(f, 1.0, resolution=r, points=[[0.0, 0.0]]),
], ids=["theta_region", "check_assumption_separation"])
@pytest.mark.parametrize("resolution", [0, -1, 2.5, True])
def test_resolution_below_one_rejected(build, resolution):
    with pytest.raises(ValueError, match="resolution must be at least 1"):
        build(get_objective("cubic_valley"), resolution)


def test_high_dimension_rejected():
    f = quadratic_bowl(1.0, dim=4)
    with pytest.raises(ValueError):
        theta_region(f, np.zeros(4), 1.0, resolution=10)


@pytest.mark.parametrize("build", [
    lambda f, p: theta_region(f, p, 1.0, resolution=10),
    lambda f, p: check_assumption_separation(f, 1.0, resolution=10, points=[[0.0, 0.0], p]),
], ids=["theta_region", "check_assumption_separation"])
@pytest.mark.parametrize("point", [0.0, [], [0.0], [0.0, 0.0, 0.0]],
                         ids=["scalar", "empty", "short", "long"])
def test_point_of_the_wrong_dimension_rejected(build, point):
    with pytest.raises(ValueError, match="dimension"):
        build(get_objective("cubic_valley"), point)


def test_contains_point_outside_box():
    f = get_objective("cubic_valley")
    region = theta_region(f, [0.0, 0.0], 1.0, box=[[-2, 2], [-2, 2]], resolution=100)
    assert not region.contains_point([5.0, 5.0])


def test_contains_point_batch_equals_single_points():
    # ||grad f||^2 = x^4 + y^2 <= 1 on a 10 x 10 grid over [-1, 1]^2
    f = get_objective("cubic_valley")
    region = theta_region(f, [0.0, 0.0], 1.0, box=[[-1, 1], [-1, 1]], resolution=10)
    edge = np.array([
        [1.0, 0.0], [0.0, 1.0],  # upper faces: last cells, centers inside
        [1.0, 1.0], [-1.0, -1.0],  # corner cells, centers outside
        [1.001, 0.0], [-1.5, 0.0], [0.0, 5.0], [-1.0 - 1e-9, 0.3],  # out of the box
    ])
    expected = [True, True, False, False, False, False, False, False]
    assert [region.contains_point(p) for p in edge] == expected
    points = np.concatenate([edge, np.random.default_rng(2).uniform(-1.2, 1.2, (40, 2))])
    single = [region.contains_point(p) for p in points]
    assert 0 < sum(single) < len(single)
    np.testing.assert_array_equal(region.contains_point(points), single)
    np.testing.assert_array_equal(region.contains_point(points.reshape(6, 8, 2)),
                                  np.reshape(single, (6, 8)))


def test_region_csv_export(tmp_path):
    f = get_objective("cubic_valley")
    region = theta_region(f, [0.0, 0.0], 1.0, box=[[-2, 2], [-2, 2]], resolution=40)
    path = tmp_path / "region.csv"
    region.save_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "inside", "boundary"]
    assert len(rows) - 1 == 40 * 40
    n_inside = sum(int(r[2]) for r in rows[1:])
    assert n_inside == int(region.inside.sum())
    for r in rows[1:]:
        if r[3] == "1":
            assert r[2] == "1"  # boundary cells are inside cells


def test_boundary_classify_examples():
    f = get_objective("cubic_valley")
    # at (-1,0): grad=(1,0), hess=diag(-2,1) -> s = 1*(-2)*1 = -2 < 0
    assert boundary_classify(f, [-1.0, 0.0], [0.0, 0.0]) == EXIT
    # any critical point gives s = 0
    assert boundary_classify(f, [0.0, 0.0], [0.7, -0.3]) == TANGENT
    # bowl: s = c^3 ||x||^2 > 0, plain flow always enters the region around the minimum
    bowl = quadratic_bowl(1.0)
    assert boundary_classify(bowl, [0.5, -0.5], [0.0, 0.0]) == ENTER


def test_bowl_boundary_all_enter_under_zero_regularizer():
    bowl = quadratic_bowl(1.0)
    region = theta_region(bowl, [0.0, 0.0], 1.0, resolution=100)
    for center in region.boundary_cell_centers():
        assert boundary_classify(bowl, center, [0.0, 0.0]) == ENTER


def test_boundary_assumption_zero_regularizer_vacuous():
    f = get_objective("cubic_valley")
    region = theta_region(f, [0.0, 0.0], 1.0, box=[[-2, 2], [-2, 2]], resolution=150)
    holds, violations = check_boundary_assumption(f, region, [0.0, 0.0])
    assert holds and len(violations) == 0


def test_boundary_assumption_holding_keeps_point_shape():
    # with l = 0 the inclusion holds, and the empty violation list still has
    # one column per coordinate, as the cell-center helpers do on empty masks
    f = get_objective("cubic_cone")
    region = theta_region(f, [0.0, 0.0], 3.0, resolution=300)
    holds, violations = check_boundary_assumption(f, region, [0.0, 0.0])
    assert holds
    assert violations.shape == (0, 2) and violations[:, 0].size == 0
    for mask, centers in ((region.inside, region.inside_cell_centers()),
                          (region.boundary, region.boundary_cell_centers())):
        np.testing.assert_array_equal(
            centers, [region.cell_center(idx) for idx in np.argwhere(mask)])
    empty = dataclasses.replace(region, inside=np.zeros_like(region.inside),
                                boundary=np.zeros_like(region.boundary))
    assert empty.inside_cell_centers().shape == (0, 2)
    assert empty.boundary_cell_centers().shape == (0, 2)


def test_boundary_assumption_cone_violation_band():
    # On the exact boundary of the theta=3 region, s_0 = 2x(9 + 4y^2(x^2+y^2)),
    # so the plain-flow exit region is exactly {x < 0}. The regularizer
    # (2.5, 1.5) pushes the exit region slightly across the x=0 axis near the
    # bottom of the region, producing a genuine thin violation band with
    # 0 < x <= ~0.12 at y near -1.73. See notes/decisions.md for the analysis.
    f = get_objective("cubic_cone")
    region = theta_region(f, [1.5, 0.5], 3.0, resolution=300)
    holds, violations = check_boundary_assumption(f, region, [2.5, 1.5])
    assert not holds
    assert 1 <= len(violations) <= 12
    for cell in violations:
        assert 0.0 < cell[0] < 0.15
        assert cell[1] < -1.5
        # independent recomputation of both sign tests at the flagged cell
        g = f.gradient(cell)
        H = f.hessian(cell)
        assert (g + np.array([2.5, 1.5])) @ H @ g < 0  # regularized flow exits
        assert g @ H @ g > 0  # plain flow enters


def test_halfspace_checks():
    cone = get_objective("cubic_cone")
    region = theta_region(cone, [0.0, 0.0], 3.0, resolution=200)
    assert halfspace_check(cone, region, [1.0, 0.0])
    assert not halfspace_check(cone, region, [0.0, 1.0])

    valley = get_objective("cubic_valley")
    region = theta_region(valley, [0.0, 0.0], 1.0, box=[[-2, 2], [-2, 2]], resolution=200)
    assert halfspace_check(valley, region, [1.0, 0.0])

    bowl = quadratic_bowl(1.0)
    region = theta_region(bowl, [0.0, 0.0], 1.0, resolution=100)
    assert not halfspace_check(bowl, region, [1.0, 0.0])


def test_halfspace_requires_unit_vector():
    f = get_objective("cubic_cone")
    region = theta_region(f, [0.0, 0.0], 3.0, resolution=50)
    with pytest.raises(ValueError):
        halfspace_check(f, region, [2.0, 0.0])


def test_separation_double_degenerate():
    f = get_objective("double_degenerate")
    results = check_assumption_separation(f, 0.1, resolution=400, grid_density=21)
    assert len(results) == 3
    assert all(r["pass"] for r in results)

    results = check_assumption_separation(f, 10.0, resolution=400, grid_density=21)
    assert not any(r["pass"] for r in results)


def test_separation_single_minimum_trivial():
    bowl = quadratic_bowl(1.0)
    results = check_assumption_separation(bowl, 0.5, resolution=100, grid_density=5)
    assert len(results) == 1 and results[0]["pass"]


def test_separation_connected_critical_line_not_a_violation():
    # the monkey surface's critical set is the whole y=0 line: distinct points
    # on it share one region but count as the same connected critical subset
    f = get_objective("monkey_line")
    pts = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
    results = check_assumption_separation(
        f, 1.0, box=[[-2, 2], [-2, 2]], resolution=201, points=pts
    )
    assert all(r["pass"] for r in results)


def test_monkey_region_extends_along_line():
    f = get_objective("monkey_line")
    region = theta_region(f, [0.0, 0.0], 4.7, resolution=200)
    for x in (-2.5, -1.0, 1.0, 2.5):
        assert region.contains_point([x, 0.0])


def test_region_one_dimensional():
    f = get_objective("double_degenerate")
    region = theta_region(f, [1.0], 0.1, resolution=400)
    assert region.contains_point([1.0])
    assert not region.contains_point([0.0])  # separate component
    assert region.inside.ndim == 1


_A3 = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.3], [0.0, -0.3, 1.5]])


def _quadratic_3d():
    return make_objective(
        "quad3", 3,
        lambda x: 0.5 * np.einsum("...i,ij,...j->...", x, _A3, x),
        lambda x: x @ _A3,
        lambda x: np.broadcast_to(_A3, np.shape(x)[:-1] + (3, 3)),
        domain_box=[[-1.0, 1.5], [-2.0, 1.0], [-0.5, 2.0]],
    )


@pytest.mark.parametrize("make_region, digest", [
    (lambda: theta_region(get_objective("double_degenerate"), [1.0], 0.1, resolution=400),
     "87d11f0a9d2b0fc00a4a3888b29f7f44ba2cb6452d3952cd262693108f9b416d"),
    (lambda: theta_region(get_objective("cubic_cone"), [0.0, 0.0], 3.0, resolution=300),
     "548cac63cec75d89259009d5ec713c675b3eba8beb44b8b5aff7313900009d92"),
    (lambda: theta_region(_quadratic_3d(), [0.0, 0.0, 0.0], 1.5, resolution=20),
     "7ba1bfc6aaeadea71f6f74b6d26291bd78b2677b9b62a0cd4a772b3169b22783"),
], ids=["1d", "2d", "3d"])
def test_save_csv_bytes_pinned(tmp_path, make_region, digest):
    # digests of the per-cell writer (repr of each cell_center coordinate, rows
    # in np.ndindex order), which the one-pass writer must reproduce
    path = tmp_path / "region.csv"
    make_region().save_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@st.composite
def _grids(draw):
    n, resolution = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    low = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.floats(1e-6, 1e6), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # independent masks, so boundary cells outside inside (flags 0,1) occur too
    inside = rng.random((resolution,) * n) < draw(st.floats(0, 1))
    boundary = rng.random((resolution,) * n) < draw(st.floats(0, 1))
    return RegionGrid(np.column_stack([low, low + width]), resolution, 1.0, inside, boundary, ())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(grid=_grids())
def test_save_csv_matches_csv_writer(tmp_path_factory, grid):
    out = tmp_path_factory.mktemp("region_csv")
    grid.save_csv(out / "streamed.csv")
    region_csv(grid, out / "oracle.csv")
    assert (out / "streamed.csv").read_bytes() == (out / "oracle.csv").read_bytes()


@pytest.mark.parametrize("resolution", [10, 300, 3000])
def test_upper_face_has_no_tolerance(resolution):
    grid = RegionGrid(box=np.array([[-1.0, 1.0], [-1.0, 1.0]]), resolution=resolution,
                      theta=1.0, inside=np.ones((resolution, resolution), dtype=bool),
                      boundary=np.zeros((resolution, resolution), dtype=bool), seed_cell=())
    last, mid = resolution - 1, resolution // 2
    beyond = np.array([[1.0 + 1e-6, 0.0], [0.0, 1.0 + 1e-9], [1.0 + 1e-12, 1.0]])
    assert [grid.cell_index(p) for p in beyond] == [None] * 3
    assert not grid.contains_point(beyond).any()
    assert grid.cell_index([-1.0 - 1e-9, 0.3]) is None  # the lower faces alike
    on_face = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert [grid.cell_index(p) for p in on_face] == [(last, mid), (mid, last), (last, last)]
    assert grid.contains_point(on_face).all()


def _scipy_component(mask, cell):
    labels, _ = ndimage.label(mask, structure=ndimage.generate_binary_structure(mask.ndim, 1))
    return labels == labels[cell]


def _scipy_erosion(mask):
    structure = ndimage.generate_binary_structure(mask.ndim, 1)
    return ndimage.binary_erosion(mask, structure=structure, border_value=1)


@st.composite
def _masks_with_cell(draw):
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    mask = draw(arrays(np.bool_, shape))
    cell = tuple(draw(st.integers(0, s - 1)) for s in shape)
    mask[cell] = True
    return mask, cell


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_masks_with_cell())
def test_component_and_erosion_match_ndimage(case):
    mask, cell = case
    labels = _labels(mask)
    np.testing.assert_array_equal(labels == labels[cell], _scipy_component(mask, cell))
    np.testing.assert_array_equal(_erode(mask), _scipy_erosion(mask))


def _checkerboard(shape):
    return np.indices(shape).sum(axis=0) % 2 == 0


def _snake(rows, cols):
    mask = np.zeros((rows, cols), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = mask[3::4, 0] = True
    return mask


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mask=st.lists(st.integers(1, 16), min_size=1, max_size=3).flatmap(
    lambda shape: arrays(np.bool_, tuple(shape), elements=st.booleans(), fill=st.nothing())))
# a component per cell of one color, and one snake that turns at every row end
@example(mask=_checkerboard((12, 12, 12)))
@example(mask=_checkerboard((1, 31)))
@example(mask=_snake(15, 16))
def test_labels_partition_the_mask_as_ndimage_does(mask):
    labels = _labels(mask)
    expected, n_components = ndimage.label(
        mask, structure=ndimage.generate_binary_structure(mask.ndim, 1))
    assert labels.dtype == np.int32
    np.testing.assert_array_equal(labels == 0, ~mask)
    # the same partition: each of our ids meets one of scipy's, and each of scipy's one of ours
    pairs = set(zip(labels[mask].tolist(), expected[mask].tolist()))
    assert len(pairs) == len(np.unique(labels[mask])) == n_components


_REGION_OBJECTIVES = ["cubic_valley", "cubic_cone", "monkey_line", "double_degenerate",
                      "quadratic_bowl"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(_REGION_OBJECTIVES), u=st.lists(st.floats(0.05, 0.95), min_size=2,
       max_size=2), theta=st.floats(0.05, 20.0), resolution=st.integers(3, 80))
def test_theta_region_properties(name, u, theta, resolution):
    f = get_objective(name)
    box = f.domain_box
    seed = box[:, 0] + np.array(u[:f.dim]) * (box[:, 1] - box[:, 0])
    try:
        region = theta_region(f, seed, theta, resolution=resolution)
    except ValueError:
        assume(False)
    assert region.inside[region.seed_cell]
    assert region.cell_index(seed) == region.seed_cell
    assert not np.any(region.boundary & ~region.inside)
    mask = _grad_norm_grid(f, box, resolution) <= theta
    np.testing.assert_array_equal(region.inside, _scipy_component(mask, region.seed_cell))
    np.testing.assert_array_equal(region.boundary,
                                  region.inside & ~_scipy_erosion(region.inside))


@st.composite
def _cells(draw):
    f = get_objective(draw(st.sampled_from(_REGION_OBJECTIVES)))
    resolution = draw(st.sampled_from([37, 150, 300, 301]))
    return f, resolution, tuple(draw(st.integers(0, resolution - 1)) for _ in range(f.dim))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_cells())
def test_region_seeded_at_cell_center_with_its_own_gradient_norm(case):
    # theta equal to ||grad f|| at a cell center, as the descent engine measures it:
    # the seed test and the grid mask must both count that center as inside
    f, resolution, cell = case
    grid = RegionGrid(f.domain_box, resolution, 0.0, None, None, ())
    center = grid.cell_center(cell)
    theta = float(_norms(f.gradient(center[np.newaxis]))[0])
    region = theta_region(f, center, theta, resolution=resolution)
    assert region.seed_cell == cell
    assert region.inside[cell]


def test_winding_monkey_region_matches_ndimage():
    # the theta = 4.7 region of x y^3 / 3 at resolution 600 has long winding
    # arms, the case where the labelling's round count would grow with path length
    f = get_objective("monkey_line")
    region = theta_region(f, [0.0, 0.0], 4.7, resolution=600)
    mask = _grad_norm_grid(f, f.domain_box, 600) <= 4.7
    expected = _scipy_component(mask, region.seed_cell)
    assert 0 < expected.sum() < expected.size
    np.testing.assert_array_equal(region.inside, expected)
    np.testing.assert_array_equal(region.boundary, expected & ~_scipy_erosion(expected))


_GRID_OBJECTIVES = [get_objective(name) for name in _REGION_OBJECTIVES] + [quadratic_bowl(dim=3)]


@st.composite
def _slab_cases(draw):
    # blocks of as many first-axis lines as the grid has plus one, as it has, minus
    # one, any count (a ragged last slab when it does not divide), or less than a line
    f = draw(st.sampled_from(_GRID_OBJECTIVES))
    low = np.array(draw(st.lists(st.floats(-3, 3), min_size=f.dim, max_size=f.dim)))
    width = np.array(draw(st.lists(st.floats(0.01, 4), min_size=f.dim, max_size=f.dim)))
    resolution = draw(st.integers(1, 9))
    line = resolution ** (f.dim - 1)
    lines = draw(st.sampled_from([resolution + 1, resolution, resolution - 1, 0])
                 | st.integers(1, resolution))
    block = max(1, lines * line + draw(st.integers(0, line - 1)))
    return f, np.column_stack([low, low + width]), resolution, block


def _real_block(f, resolution):
    return f, f.domain_box, resolution, GRID_BLOCK_CELLS


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_slab_cases())
# GRID_BLOCK_CELLS itself: 1-D grids of one cell, one line fewer than a block, one
# block, one line more and a ragged third slab; 2-D grids one line short of a block,
# one line over and ragged; 3-D grids of exactly one block and ragged
@example(case=_real_block(get_objective("double_degenerate"), 1))
@example(case=_real_block(get_objective("double_degenerate"), GRID_BLOCK_CELLS - 1))
@example(case=_real_block(get_objective("double_degenerate"), GRID_BLOCK_CELLS))
@example(case=_real_block(get_objective("double_degenerate"), GRID_BLOCK_CELLS + 1))
@example(case=_real_block(get_objective("double_degenerate"), 20001))
@example(case=_real_block(get_objective("cubic_cone"), 90))
@example(case=_real_block(get_objective("monkey_line"), 91))
@example(case=_real_block(get_objective("cubic_valley"), 300))
@example(case=_real_block(quadratic_bowl(dim=3), 20))
@example(case=_real_block(quadratic_bowl(dim=3), 21))
def test_grad_norm_grid_in_slabs_equals_one_shot_grid(case):
    f, box, resolution, block = case
    g, shapes = dataclasses.replace(f), []
    g.gradient = lambda x, _g=f.gradient: shapes.append(np.shape(x)) or _g(x)
    with mock.patch.object(region_module, "GRID_BLOCK_CELLS", block):
        grid = _grad_norm_grid(g, box, resolution)
    expected = grad_norm_grid(f, box, resolution)
    assert grid.shape == expected.shape and grid.tobytes() == expected.tobytes()
    # each call takes whole first-axis lines, as many as fit in a block but at least one
    assert all(s[1:] == (resolution,) * (f.dim - 1) + (f.dim,) for s in shapes)
    lines = [s[0] for s in shapes]
    step = max(1, block // resolution ** (f.dim - 1))
    assert sum(lines) == resolution and set(lines[:-1]) <= {step} and lines[-1] <= step


@pytest.mark.parametrize("f, resolution", [
    (get_objective("double_degenerate"), 2 ** 31),
    (get_objective("cubic_cone"), 46341),  # 46340^2 < 2**31 <= 46341^2
    (quadratic_bowl(dim=3), 1291),  # 1290^3 < 2**31 <= 1291^3
])
def test_grid_of_2_31_cells_rejected(f, resolution):
    # the labelling's ids are int32
    with pytest.raises(ValueError, match=r"fewer than 2\*\*31 cells"):
        theta_region(f, np.zeros(f.dim), 1.0, resolution=resolution)
    with pytest.raises(ValueError, match=r"fewer than 2\*\*31 cells"):
        check_assumption_separation(f, 1.0, resolution=resolution, points=[np.zeros(f.dim)])


def _counting_gradient(f):
    # a copy of f whose gradient counts the rows it evaluates
    g, rows = dataclasses.replace(f), []
    g.gradient = lambda x, _g=f.gradient: rows.append(np.size(x) // f.dim) or _g(x)
    return g, rows


_SEPARATION_CASES = [
    ("double_degenerate", 0.1, 400, [[-1.0], [0.0], [1.0]]),
    ("cubic_cone", 3.0, 200, [[0.0, 0.0]]),
]


@pytest.mark.parametrize("name, theta, resolution, points", _SEPARATION_CASES)
def test_separation_builds_one_gradient_grid(name, theta, resolution, points):
    # one grid for every point's region and for phi, plus one row per seed check
    f, rows = _counting_gradient(get_objective(name))
    results = check_assumption_separation(f, theta, resolution=resolution, points=points)
    assert sum(rows) == resolution ** f.dim + len(points)
    expected = check_assumption_separation(get_objective(name), theta, resolution=resolution,
                                           points=points)
    for r, e in zip(results, expected):
        assert r["pass"] == e["pass"] and r["violations"] == e["violations"]


@pytest.mark.parametrize("name, theta, resolution, points", _SEPARATION_CASES)
def test_separation_labels_each_mask_once(name, theta, resolution, points):
    # one labelling of the theta mask and one of the near-critical mask serve every point
    with mock.patch.object(region_module, "_labels", wraps=_labels) as labels, \
            mock.patch.object(region_module, "_grad_norm_grid", wraps=_grad_norm_grid) as grids:
        check_assumption_separation(get_objective(name), theta, resolution=resolution,
                                    points=points)
    assert (labels.call_count, grids.call_count) == (2, 1)


def test_nan_theta_puts_the_seed_outside_the_region():
    # NaN fails every comparison: the seed test must not pass it on to the grid mask
    f = get_objective("cubic_cone")
    with pytest.raises(ValueError, match="seed lies outside the small-gradient region"):
        theta_region(f, [0.0, 0.0], float("nan"), resolution=40)
    with pytest.raises(ValueError, match="seed lies outside the small-gradient region"):
        check_assumption_separation(f, float("nan"), resolution=40, points=[[0.0, 0.0]])


def test_separation_keeps_theta_region_seed_errors():
    f = get_objective("cubic_valley")
    # a seed whose gradient norm exceeds theta, then one outside the box
    with pytest.raises(ValueError, match="outside the small-gradient region"):
        check_assumption_separation(f, 0.5, resolution=50, points=[[0.0, 0.0], [1.5, 1.5]])
    with pytest.raises(ValueError, match="outside the box"):
        check_assumption_separation(f, 100.0, resolution=50, points=[[0.0, 0.0], [5.0, 5.0]])
    with pytest.raises(ValueError, match="raise the resolution"):
        # the seed's cell is centered at (1, 1), where ||grad f|| = sqrt(2)
        check_assumption_separation(f, 0.5, box=[[-2, 2], [-2, 2]], resolution=2,
                                    points=[[0.0, 0.49]])


@pytest.mark.parametrize("lookup", ["contains_point", "cell_index"])
@pytest.mark.parametrize("point", [0.0, [0.0], [0.0, 0.0, 0.0], [[0.0], [0.1]]],
                         ids=["scalar", "short", "long", "narrow_batch"])
def test_a_region_rejects_a_point_of_the_wrong_dimension(lookup, point):
    # a short point used to broadcast against the box: [0.0] read as (0, 0), inside
    region = theta_region(get_objective("cubic_valley"), [0.0, 0.0], 1.0, resolution=20)
    with pytest.raises(ValueError, match="dimension|expected a vector"):  # one point or a batch
        getattr(region, lookup)(point)


def test_contains_point_rejects_a_non_finite_point():
    region = theta_region(get_objective("cubic_valley"), [0.0, 0.0], 1.0, resolution=20)
    with pytest.raises(ValueError, match="point has non-finite entries"):
        region.contains_point([[0.0, 0.0], [np.nan, 0.0]])
