"""Small-gradient region geometry on a grid, and boundary flow classification.

The small-gradient region is {x : ||grad f(x)|| <= theta}; its connected
component through a seed point is discretized on a regular grid, whose mask
of small-gradient cells is labelled once, every face-connected (2n-connectivity)
component with its own id. Boundary cells are inside cells with at least one
in-grid neighbor outside. Grids are limited to dimension <= 3; higher
dimensions must test membership pointwise along trajectories instead.
A grid is built in slabs of at most GRID_BLOCK_CELLS cells, holds fewer than 2**31
cells (the labels are int32), and a region build peaks below 15 bytes a cell.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .critical import _as_box, find_critical_points
from .linalg import _check_count, _norms, as_vector

EXIT = "exit"
ENTER = "enter"
TANGENT = "tangent"
# |s| at or below FLOW_TOL counts as tangent in the boundary flow sign test
FLOW_TOL = 1e-9
GRID_BLOCK_CELLS = 8192  # cells per gradient call of a grid: a peak-memory bound, not speed


@dataclass
class RegionGrid:
    """Connected component of the small-gradient region on a regular grid."""

    box: np.ndarray  # (n, 2)
    resolution: int
    theta: float
    inside: np.ndarray  # bool, shape (resolution,) * n
    boundary: np.ndarray  # bool, same shape; inside cells with an outside neighbor
    seed_cell: tuple

    @property
    def dim(self):
        return self.box.shape[0]

    @property
    def cell_widths(self):
        return (self.box[:, 1] - self.box[:, 0]) / self.resolution

    def cell_center(self, idx):
        return self.box[:, 0] + (np.asarray(idx, dtype=float) + 0.5) * self.cell_widths

    def _cells(self, points):
        """Cell indices (..., n) of points (..., n), and whether each lies in the box."""
        rel = (points - self.box[:, 0]) / self.cell_widths
        idx = np.floor(rel).astype(int)
        # points on the upper box face belong to the last cell
        idx = np.where((idx == self.resolution) & (points <= self.box[:, 1]), idx - 1, idx)
        return idx, np.all((idx >= 0) & (idx < self.resolution), axis=-1)

    def cell_index(self, point):
        """Grid index of the cell containing `point`, or None if outside the box."""
        idx, in_box = self._cells(as_vector(point, self.dim, "point"))
        return tuple(int(i) for i in idx) if in_box else None

    def contains_point(self, point):
        """Whether a point (n,), or each point of a batch (..., n), lies in an inside cell."""
        points = np.asarray(point, dtype=float)
        if points.shape[-1:] != (self.dim,):
            raise ValueError(f"points of shape {points.shape} in a region of dimension {self.dim}")
        if not np.all(np.isfinite(points)):
            raise ValueError("point has non-finite entries")
        idx, in_box = self._cells(points)
        idx = np.where(in_box[..., None], idx, 0)
        hit = in_box & self.inside[tuple(np.moveaxis(idx, -1, 0))]
        return bool(hit) if hit.ndim == 0 else hit

    def inside_cell_centers(self):
        return self.cell_center(np.argwhere(self.inside))

    def boundary_cell_centers(self):
        return self.cell_center(np.argwhere(self.boundary))

    def save_csv(self, path):
        """Cell centers with inside/boundary flags, one row per cell, streamed by grid line."""
        # coordinate i depends on index i alone; row k is cell_center((k,) * n)
        centers = self.cell_center(np.arange(self.resolution)[:, None])
        texts = [[repr(v) + "," for v in col] for col in centers.T.tolist()]
        # a last-axis cell's text and flags, at (inside + 2 * boundary) * resolution + j
        tails = [t + flags for flags in ("0,0\r\n", "1,0\r\n", "0,1\r\n", "1,1\r\n")
                 for t in texts[-1]]
        codes = np.add(self.inside, self.boundary, dtype=np.intp)  # built in place
        codes += self.boundary
        codes *= self.resolution
        codes += np.arange(self.resolution)
        heads = map("".join, itertools.product(*texts[:-1]))  # one empty head in 1-D
        header = [f"x{i}" for i in range(self.dim)] + ["inside", "boundary"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(head + head.join(map(tails.__getitem__, row.tolist()))
                          for head, row in zip(heads, codes.reshape(-1, self.resolution)))


def _labels(mask):
    """Face-connected (2n-connectivity) components of `mask`: one int32 id > 0 shared by
    the cells of each component, 0 off the mask.

    Every mask cell starts with its own id. A sweep along an axis sets each whole run of
    mask cells to the least id in it; rounds of sweeps repeat until one changes no id, as
    often as a path turns, not per cell.
    """
    labels = np.cumsum(mask, dtype=np.int32).reshape(mask.shape)
    labels *= mask
    runs = []  # per axis: the ids and mask in its run order, and each run's start and length
    for axis in range(mask.ndim):
        m = np.moveaxis(mask, axis, -1)
        starts = np.flatnonzero((m & np.diff(m, axis=-1, prepend=False))[m])
        runs.append((np.moveaxis(labels, axis, -1), m, starts,
                     np.diff(starts, append=np.count_nonzero(mask))))
    changed = True
    while changed:
        changed = False
        for ids, m, starts, lengths in runs:
            old = ids[m]
            new = np.repeat(np.minimum.reduceat(old, starts), lengths)
            if not np.array_equal(old, new):
                ids[m] = new
                changed = True
    return labels


def _erode(mask):
    """Cells of `mask` whose 2n face neighbors are all in it; cells beyond the grid count as in."""
    eroded = mask.copy()
    for axis in range(mask.ndim):
        e, m = np.moveaxis(eroded, axis, 0), np.moveaxis(mask, axis, 0)
        e[1:] &= m[:-1]
        e[:-1] &= m[1:]
    return eroded


def _grad_norm_grid(f, box, resolution):
    """||grad f|| at every cell center, with the arithmetic of `RegionGrid.cell_center`
    and of the descent engine's region test, filled slab by slab: each gradient call takes
    whole first-axis lines, at most GRID_BLOCK_CELLS cells and at least one line. A grid of
    2**31 cells or more is rejected before any allocation: `_labels` ids are int32.
    """
    _check_count("resolution", resolution)
    if resolution ** len(box) >= 2 ** 31:
        raise ValueError(f"a grid must have fewer than 2**31 cells, got {resolution}^{len(box)}")
    widths = (box[:, 1] - box[:, 0]) / resolution
    axes = [lo + (np.arange(resolution) + 0.5) * w for lo, w in zip(box[:, 0], widths)]
    gn = np.empty((resolution,) * len(box))
    step = max(1, GRID_BLOCK_CELLS // resolution ** (len(box) - 1))  # lines per call
    for i in range(0, resolution, step):
        mesh = np.meshgrid(axes[0][i:i + step], *axes[1:], indexing="ij")
        gn[i:i + step] = _norms(f.gradient(np.stack(mesh, axis=-1)))
    return gn


def theta_region(f, seed, theta, box=None, resolution=200):
    """Connected component of {||grad f|| <= theta} through `seed`, on a grid.

    Raises if the seed itself falls outside the region or the box, or its cell
    center outside the region (refine `resolution` in the last case).
    """
    return _separation(f, theta, box, resolution, [], seed)[1]


def _grid_box(f, box):
    box = _as_box(f, box)
    if box.shape[0] > 3:
        raise ValueError(f"region grids are unsupported for dimension {box.shape[0]} (max 3)")
    return box


def _separation(f, theta, box, resolution, points, seed=None):
    """check_assumption_separation's checks of `points`, and theta_region's region through
    `seed` (None without a seed), from one gradient-norm grid freed before labelling."""
    box = _grid_box(f, box)
    points = [as_vector(p, f.dim, "point") for p in points]
    seeds = points if seed is None else points + [as_vector(seed, f.dim, "seed")]
    gn = _grad_norm_grid(f, box, resolution)
    mask = gn <= theta
    phi_mask = gn <= 1e-8 if points else None  # near-critical cells
    del gn
    grid = RegionGrid(box, resolution, float(theta), inside=None, boundary=None, seed_cell=())
    cells = [_seed_cell(f, grid, mask, p) for p in seeds]
    labels = _labels(mask)

    # near-critical connectivity at the grid resolution stands in for connected critical
    # subsets (e.g. a whole critical line); each point's own cell counts as near-critical
    checks = []
    if points:
        point_cells = cells[:len(points)]
        for cell in point_cells:
            phi_mask[cell] = True
        phi = _labels(phi_mask)
        ids = [(labels[cell], phi[cell]) for cell in point_cells]
        for p, (region, same) in zip(points, ids):
            violations = [j for j, (r, s) in enumerate(ids) if r == region and s != same]
            checks.append({"point": p, "pass": len(violations) == 0, "violations": violations})
    if seed is None:
        return checks, None
    grid.seed_cell = cells[-1]
    grid.inside = labels == labels[grid.seed_cell]
    grid.boundary = grid.inside & ~_erode(grid.inside)
    return checks, grid


def _seed_cell(f, grid, mask, seed):
    """The cell of a region seed, which must lie in the region, the box and a mask cell."""
    if not _norms(f.gradient(seed)) <= grid.theta:  # NaN fails
        raise ValueError("seed lies outside the small-gradient region")
    cell = grid.cell_index(seed)
    if cell is None:
        raise ValueError(f"seed {seed.tolist()} lies outside the box {grid.box.tolist()}")
    if not mask[cell]:
        raise ValueError(
            "seed cell center is outside the small-gradient region; raise the resolution"
        )
    return cell


def _flow_sign(g, H, l):
    """s = (g + l)^T H g for gradients g (..., n) and Hessians H (..., n, n)."""
    return (((g + l)[..., None, :] @ H) @ g[..., :, None])[..., 0, 0]


def boundary_classify(f, x, l):
    """Sign test for the regularized flow against the region boundary normal.

    s = (grad f(x) + l)^T hess f(x) grad f(x); s < -FLOW_TOL means the regularized
    negative gradient points out of the region ("exit"), s > FLOW_TOL into it
    ("enter"), otherwise "tangent".
    """
    x = as_vector(x, f.dim, "x")
    s = float(_flow_sign(f.gradient(x), f.hessian(x), as_vector(l, f.dim, "l")))
    if s < -FLOW_TOL:
        return EXIT
    if s > FLOW_TOL:
        return ENTER
    return TANGENT


def check_boundary_assumption(f, region, l):
    """Verify exit-under-l implies exit-under-0 on every boundary cell.

    One sign test per boundary cell center, as `boundary_classify` makes it,
    all cells at once. Returns (holds, violating_cell_centers); the centers
    have shape (k, n), (0, n) when the inclusion holds.
    """
    l = as_vector(l, f.dim, "l")
    centers = region.boundary_cell_centers()
    g = f.gradient(centers)
    H = f.hessian(centers)
    violated = (_flow_sign(g, H, l) < -FLOW_TOL) & ~(_flow_sign(g, H, 0.0) < -FLOW_TOL)
    return not violated.any(), centers[violated]


def halfspace_check(f, region, v):
    """True when v^T grad f > 0 at every inside cell center except where grad f = 0,
    both to 1e-12.

    A gradient image confined to such a half-space rules out critical points
    of the shifted objective anywhere in the region, for any regularizer
    sampled from the region's own gradients.
    """
    v = as_vector(v, f.dim, "v")
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    grads = f.gradient(region.inside_cell_centers())
    s = grads @ v
    norms = np.linalg.norm(grads, axis=-1)
    ok = (s > 1e-12) | (norms <= 1e-12)
    return bool(np.all(ok))


def check_assumption_separation(f, theta, box=None, resolution=200, points=None, grid_density=10):
    """Check that each critical point's region contains no foreign critical points.

    `points` defaults to find_critical_points(f, box, grid_density). For every
    such point, the theta-region through it must contain no other
    critical point except those connected to it through near-critical cells
    (gradient norm <= 1e-8), which represent the same connected critical
    subset. Returns one dict per point with a pass flag and the indices of
    violating partners.
    """
    if points is None:
        points = [r.location for r in find_critical_points(f, _grid_box(f, box), grid_density)]
    return _separation(f, theta, box, resolution, points)[0]
