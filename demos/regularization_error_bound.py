"""The price of regularizing near a genuine minimum.

A shift l with ||l|| <= theta moves a minimum x* to the nearby point x*_l
where grad f = -l. When f satisfies the Polyak-Lojasiewicz inequality with
constant c around the minimum, the value increase is at most theta^2 / (2c),
and for the quadratic bowl (c/2)||x||^2 the bound is exact at ||l|| = theta.
"""

import numpy as np

from saddlereg import OptimizerConfig, pl_error_check, quadratic_bowl, run_regularized_gd

print(f"{'c':>4} {'theta':>6} {'worst excess':>14} {'bound':>10}")
for c in (1.0, 4.0):
    for theta in (0.5, 1.0):
        bowl = quadratic_bowl(c)
        excess = pl_error_check(bowl, np.zeros(2), theta=theta, n_l=200, seed=0)
        bound = theta ** 2 / (2 * c)
        print(f"{c:4.0f} {theta:6.2f} {excess:14.6f} {bound:10.6f}")

# the same bound realized by an actual descent run
bowl = quadratic_bowl(1.0)
cfg = OptimizerConfig(theta=0.5, eps_converge=1e-10, max_iters=5000)
rec = run_regularized_gd(bowl, [2.0, 0.0], cfg)
print(f"\ndescent from (2,0) with theta = 0.5: {rec.status} at "
      f"{np.round(rec.final_x, 6).tolist()}")
print(f"value above the true minimum: {rec.final_value:.6f} "
      f"(bound {0.5 ** 2 / 2:.6f})")
