"""With no vortices the coupled system only admits the constant solution
(e^u, v) = (f^{-1}(s), s): integrating the equations forces v == s, and then
the second equation pins f(e^u) == s.  This script solves the vacuum for
both built-in models and shows the solver landing on those constants to
solver precision, with w == q(v - f(e^u)) identically zero.
"""

import numpy as np

from mcsvortex import (
    GridSpec,
    ProblemSpec,
    cp1_model,
    no_vortices,
    solve_coupled,
    sup_norm,
    u1_model,
)

grid = GridSpec(64)

for model in (u1_model(1.0), cp1_model(0.5)):
    target = model.inverse(model.s)
    print(f"\n{model.name} model, s = {model.s}: expect e^u = {target}, v = {model.s}")
    for q in (5.0, 50.0):
        spec = ProblemSpec(model=model, vortices=no_vortices(), q=q, grid=grid)
        bundle = solve_coupled(spec)
        e_u = np.exp(bundle.u_star.values)
        print(
            f"  q = {q:4g}: |e^u - {target:g}| <= {np.abs(e_u - target).max():.2e}, "
            f"|v - s| <= {np.abs(bundle.v.values - model.s).max():.2e}, "
            f"sup|w| = {sup_norm(bundle.w):.2e}, "
            f"{bundle.newton_iters} Newton passes"
        )
