"""Small-gradient region geometry on a grid, and boundary flow classification.

The small-gradient region is {x : ||grad f(x)|| <= theta}; its connected
component through a seed point is discretized on a regular grid by flood
fill (2n-connectivity). Boundary cells are inside cells with at least one
in-grid neighbor outside. Grids are limited to dimension <= 3; higher
dimensions must test membership pointwise along trajectories instead.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .critical import find_critical_points
from .linalg import as_vector

EXIT = "exit"
ENTER = "enter"
TANGENT = "tangent"


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

    def cell_index(self, point):
        """Grid index of the cell containing `point`, or None if outside the box."""
        point = as_vector(point)
        rel = (point - self.box[:, 0]) / self.cell_widths
        idx = np.floor(rel).astype(int)
        # points exactly on the upper box face belong to the last cell
        idx = np.where((idx == self.resolution) & np.isclose(rel, self.resolution), idx - 1, idx)
        if np.any(idx < 0) or np.any(idx >= self.resolution):
            return None
        return tuple(int(i) for i in idx)

    def contains_point(self, point):
        idx = self.cell_index(point)
        return bool(self.inside[idx]) if idx is not None else False

    def inside_cell_centers(self):
        return self.box[:, 0] + (np.argwhere(self.inside) + 0.5) * self.cell_widths

    def boundary_cell_centers(self):
        return self.box[:, 0] + (np.argwhere(self.boundary) + 0.5) * self.cell_widths

    def save_csv(self, path):
        """Cell centers with inside/boundary flags, one row per grid cell."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i}" for i in range(self.dim)] + ["inside", "boundary"])
            for idx in np.ndindex(self.inside.shape):
                center = self.cell_center(idx)
                writer.writerow(
                    [repr(float(v)) for v in center]
                    + [int(self.inside[idx]), int(self.boundary[idx])]
                )


def _grad_norm_grid(f, box, resolution):
    axes = [
        lo + (np.arange(resolution) + 0.5) * (hi - lo) / resolution for lo, hi in box
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    grads = np.asarray(f.gradient(np.stack(mesh, axis=-1)), dtype=float)
    return np.linalg.norm(grads, axis=-1)


def theta_region(f, seed, theta, box=None, resolution=200):
    """Flood-filled connected component of {||grad f|| <= theta} through `seed`.

    Raises if the seed itself, or its cell center, falls outside the region
    (refine `resolution` in the latter case).
    """
    seed = as_vector(seed)
    if box is None:
        box = f.domain_box
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    n = box.shape[0]
    if n > 3:
        raise ValueError(f"region grids are unsupported for dimension {n} (max 3)")
    if float(np.linalg.norm(f.gradient(seed))) > theta:
        raise ValueError("seed lies outside the small-gradient region")

    gn = _grad_norm_grid(f, box, resolution)
    mask = gn <= theta

    grid = RegionGrid(
        box=box,
        resolution=resolution,
        theta=float(theta),
        inside=np.zeros_like(mask),
        boundary=np.zeros_like(mask),
        seed_cell=(),
    )
    seed_cell = grid.cell_index(seed)
    if seed_cell is None or not mask[seed_cell]:
        raise ValueError(
            "seed cell center is outside the small-gradient region; raise the resolution"
        )

    structure = ndimage.generate_binary_structure(n, 1)  # faces only: 2n-connectivity
    labels, _ = ndimage.label(mask, structure=structure)
    inside = labels == labels[seed_cell]
    eroded = ndimage.binary_erosion(inside, structure=structure, border_value=1)
    grid.inside = inside
    grid.boundary = inside & ~eroded
    grid.seed_cell = seed_cell
    return grid


def boundary_classify(f, x, l, tol=1e-9):
    """Sign test for the regularized flow against the region boundary normal.

    s = (grad f(x) + l)^T hess f(x) grad f(x); s < -tol means the regularized
    negative gradient points out of the region ("exit"), s > tol into it
    ("enter"), otherwise "tangent".
    """
    x = as_vector(x)
    l = as_vector(l)
    g = np.asarray(f.gradient(x), dtype=float)
    s = float((g + l) @ f.hessian(x) @ g)
    if s < -tol:
        return EXIT
    if s > tol:
        return ENTER
    return TANGENT


def check_boundary_assumption(f, region, l, tol=1e-9):
    """Verify exit-under-l implies exit-under-0 on every boundary cell.

    Returns (holds, violating_cell_centers); the centers have shape (k, n),
    (0, n) when the inclusion holds.
    """
    l = as_vector(l)
    zero = np.zeros_like(l)
    violations = []
    for center in region.boundary_cell_centers():
        if boundary_classify(f, center, l, tol) == EXIT:
            if boundary_classify(f, center, zero, tol) != EXIT:
                violations.append(center)
    return len(violations) == 0, np.reshape(violations, (-1, region.dim))


def halfspace_check(f, region, v, zero_tol=1e-12):
    """True when v^T grad f > 0 at every inside cell center except where grad f = 0.

    A gradient image confined to such a half-space rules out critical points
    of the shifted objective anywhere in the region, for any regularizer
    sampled from the region's own gradients.
    """
    v = as_vector(v)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    grads = np.asarray(f.gradient(region.inside_cell_centers()), dtype=float)
    s = grads @ v
    norms = np.linalg.norm(grads, axis=-1)
    ok = (s > zero_tol) | (norms <= zero_tol)
    return bool(np.all(ok))


def check_assumption_separation(
    f, theta, box=None, resolution=200, points=None, phi_tol=1e-8, **finder_kwargs
):
    """Check that each critical point's region contains no foreign critical points.

    For every located critical point, the flood-filled region through it must
    contain no other critical point except those connected to it through
    near-critical cells (gradient norm <= phi_tol), which represent the same
    connected critical subset. Returns one dict per point with a pass flag
    and the indices of violating partners.
    """
    if box is None:
        box = f.domain_box
    box = np.asarray(box, dtype=float).reshape(-1, 2)
    if points is None:
        points = [r.location for r in find_critical_points(f, box, **finder_kwargs)]
    points = [as_vector(p) for p in points]
    regions = [theta_region(f, p, theta, box, resolution) for p in points]

    # near-critical connectivity at the grid resolution stands in for connected
    # critical subsets (e.g. a whole critical line)
    gn = _grad_norm_grid(f, box, resolution)
    phi_mask = gn <= phi_tol
    cells = [regions[0].cell_index(p) if regions else None for p in points]
    for c in cells:
        if c is not None:
            phi_mask[c] = True
    structure = ndimage.generate_binary_structure(box.shape[0], 1)
    phi_labels, _ = ndimage.label(phi_mask, structure=structure)

    results = []
    for i, (p, region) in enumerate(zip(points, regions)):
        violations = []
        for j, q in enumerate(points):
            if j == i:
                continue
            if not region.contains_point(q):
                continue
            same_phi = (
                cells[i] is not None
                and cells[j] is not None
                and phi_labels[cells[i]] == phi_labels[cells[j]]
            )
            if not same_phi:
                violations.append(j)
        results.append({"point": p, "pass": len(violations) == 0, "violations": violations})
    return results
