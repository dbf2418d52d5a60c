"""Measure how much of the plane falls into a degenerate saddle's basin.

For f(x,y) = x^3/3 + y^2/2 the origin is a non-strict saddle whose basin
under plain descent is the entire halfspace x > 0: half of all starting
points converge to a saddle instead of descending further. Switching on
local linear regularization empties that basin.
"""

import numpy as np

from saddlereg import OptimizerConfig, get_objective, stable_set_fraction

f = get_objective("cubic_valley")
box = [[-2, 2], [-2, 2]]
exclude = lambda X: np.abs(X[:, 0]) < 0.05  # skip the razor-thin boundary strip

cfg = OptimizerConfig(gamma=0.15, theta=0.0, eps_converge=1e-6, max_iters=2000)
frac_plain = stable_set_fraction(f, [0.0, 0.0], box, n_samples=2000, cfg=cfg,
                                 seed=11, exclude=exclude)
print(f"plain descent:       {frac_plain:.1%} of 2000 starts converge to the saddle")
print("                     (the saddle's basin is the halfspace x > 0)")

cfg_reg = OptimizerConfig(gamma=0.15, theta=0.5, eps_converge=1e-6, max_iters=2000)
frac_reg = stable_set_fraction(f, [0.0, 0.0], box, n_samples=2000, cfg=cfg_reg,
                               seed=11, exclude=exclude)
print(f"regularized descent: {frac_reg:.1%} converge to the saddle (theta = 0.5)")

# the same contrast on the critical line of x*y^3/3
f = get_objective("monkey_line")
dist_to_line = lambda X: np.abs(X[:, 1])
box = [[0.5, 2.0], [0.5, 2.0]]
cfg = OptimizerConfig(gamma=0.1, theta=0.0, eps_converge=1e-9, max_iters=3000,
                      escape_radius=15)
frac_plain = stable_set_fraction(f, dist_to_line, box, n_samples=1000, cfg=cfg, seed=2)
cfg_reg = OptimizerConfig(gamma=0.1, theta=4.7, eps_converge=1e-9, max_iters=3000,
                          escape_radius=15)
frac_reg = stable_set_fraction(f, dist_to_line, box, n_samples=1000, cfg=cfg_reg, seed=2)
print(f"\nmonkey_line, starts in [0.5,2]^2:")
print(f"plain descent lands on the critical line y=0 for {frac_plain:.1%} of starts")
print(f"regularized descent (theta = 4.7): {frac_reg:.1%}")
