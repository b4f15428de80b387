"""Start-up cost: importing the package and running a step of each route
loads no scipy submodule the package does not call.  ``scipy.optimize``
alone costs 70–85 ms and about 19 MB per process (scipy 1.17 on a 2-vCPU
VM), so a top-level import that brings it back fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

UNUSED = ("scipy.optimize", "scipy.sparse.linalg")

ROUTES = """
import json, sys
import numpy as np
import wentzellflow, wentzellflow.cli
from wentzellflow import discretization as disc
from wentzellflow import flux_models as fm
from wentzellflow import step_solver as ss

# a smooth 1D Newton step
g = disc.interval_grid(32)
w1 = 0.5 * np.cos(2 * np.pi * g.nodes[:, 0])
sol = ss.solve_step(g, fm.anisotropic_p_laplacian(4.0), 0.01, 0.01, w1,
                    w1[g.boundary_nodes], ss.StepConfig(tol=1e-10))
assert [s["exit"] for s in sol.iterations] == ["converged"]

# a 32^2 p = 4 step on the lagged factor's CG path
g = disc.rectangle_grid(32, 32)
assert g.gram_plan.kd >= 4 * ss._CG_CAP
x, y = g.nodes.T
y0 = np.cos(np.pi * x) * np.cos(np.pi * y)
model = fm.anisotropic_p_laplacian(4, dimension=2)
held = ss._LaggedFactor()
u = y0
for i in (1, 2):
    sol = ss.solve_step(g, model, i * 0.0025, 0.0025, u, u[g.boundary_nodes],
                        ss.StepConfig(tol=1e-10), u0=u, lagged=held)
    u = sol.u
assert sol.iterations[-1]["cg_iters"] > 0

# a fractured step that ends in the multiplier loop
g = disc.rectangle_grid(16, 16)
x, y = g.nodes.T
w1 = 0.5 * np.cos(2 * np.pi * x) * np.cos(np.pi * y)
sol = ss.solve_step(g, fm.fractured_medium(4.0, thresholds=0.5, dimension=2),
                    0.01, 0.01, w1, w1[g.boundary_nodes])
assert sol.iterations[-1]["rescue"] == "loop"

# a total-variation step
g = disc.rectangle_grid(16, 16)
x, y = g.nodes.T
sol = ss.tv_step(g, 1.0, 0.01, ((x > 0.5) & (y > 0.3)).astype(float))
assert "rounds" in sol.iterations[-1]

# an obstacle step
g = disc.interval_grid(16)
w1 = np.sin(2 * np.pi * g.nodes[:, 0])
sol = ss.solve_step_obstacle(g, fm.anisotropic_p_laplacian(4.0), 0.1, 0.1, w1,
                             w1[g.boundary_nodes], ss.StepConfig(tol=1e-10))
assert 0 < np.count_nonzero(sol.u == 0.0) < g.n_nodes

json.dump(sorted(sys.modules), sys.stdout)
"""


def test_steps_of_every_route_load_no_unused_scipy_submodule():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", ROUTES], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout))
    assert "wentzellflow.cli" in loaded
    assert sorted(loaded & set(UNUSED)) == []
