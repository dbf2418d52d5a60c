"""How a linear shift reshapes the double saddle f(x) = (x^2 - 1)^3.

The surface has a minimum at 0 and non-strict saddles at +-1 whose third
derivatives have opposite signs (+48 at +1, -48 at -1). Any non-zero shift
l*x therefore eliminates one saddle and splits the other into a false
minimum plus a local maximum; the affected side flips with the sign of l.
Continuation traces each shifted critical point back to its ancestor as the
shift is scaled down to zero.
"""

import numpy as np

from saddlereg import (
    continuation_trace,
    find_critical_points,
    get_objective,
    make_regularized,
)

f = get_objective("double_degenerate")


def third_derivative(x):
    """f'''(x) of (x^2 - 1)^3 in closed form."""
    return 120.0 * x ** 3 - 72.0 * x


print("third derivative at the saddles:",
      f"f'''(+1) = {third_derivative(1.0):+.3f},",
      f"f'''(-1) = {third_derivative(-1.0):+.3f}")

for l in (0.0, 0.01, -0.01, 0.001, -0.001):
    fl = make_regularized(f, [l]) if l else f
    reports = find_critical_points(fl, box=[[-2, 2]], grid_density=41)
    print(f"\nl = {l:+.3f}: {len(reports)} critical points")
    for r in reports:
        print(f"  x = {r.location[0]:+.6f}  {r.classification:<24}"
              f" f'' = {r.eigenvalues[0]:+.4f}")
    if l:
        for r in reports:
            path = continuation_trace(f, r.location, [l], steps=100)
            print(f"  continuation from {r.location[0]:+.6f} -> "
                  f"mu=0 at x = {path.points[-1][0]:+.6f}"
                  f"{'  (fold)' if path.fold else ''}")
