"""One vortex at the center of the torus: solve the coupled system at a
moderate coupling and run every invariant check.

The vortex forces quantized flux: integrating either equation over the
closed surface gives integral(w) = 4*pi.  The pointwise bounds
f(0) <= f(e^{u*}), v <= s hold up to a mollification-sized slack, and the
field v peaks far from the vortex core.
"""

import numpy as np

from mcsvortex import (
    GridSpec,
    ProblemSpec,
    VortexConfig,
    all_reports,
    integrate,
    solve_coupled,
    u1_model,
)

grid = GridSpec(96)
vortices = VortexConfig(points=((0.5, 0.5),), multiplicities=(1,), sigma=4 * grid.h)

# the linear model can carry 4*pi of flux only if s^2/4 clears it; s = 9
# leaves a ~27% margin (see demos/06_flux_capacity.py)
spec = ProblemSpec(model=u1_model(9.0), vortices=vortices, q=40.0, grid=grid)

bundle = solve_coupled(spec)
print(f"converged in {bundle.newton_iters} Newton passes")
print(f"integral(w) = {integrate(bundle.w):.12f}   (4*pi = {4 * np.pi:.12f})")
print(f"v range: [{bundle.v.min():.4f}, {bundle.v.max():.4f}]  (s = {spec.model.s})")
print(f"e^(u*) dips to {np.exp(bundle.u_star.values).min():.4f} at the core\n")

width = max(len(r.name) for r in all_reports(bundle))
for report in all_reports(bundle):
    if report.status == "not_applicable":
        print(f"{report.name:<{width}}  NOT_APPLICABLE")
    else:
        print(
            f"{report.name:<{width}}  {report.status.upper():4}  "
            f"rel discrepancy {report.rel_discrepancy:.3e}  (tol {report.tolerance:g})"
        )
