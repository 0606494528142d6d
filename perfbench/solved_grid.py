"""Write ``solved_grid.json``, the parameters the ``replay-grid`` workload replays.

    python3 perfbench/solved_grid.py

Runs the frozen GRID configuration of the acceptance gate (criteria 3 and
4: ten heading tasks, [5,8,2], constant-margin VVC, seed 1) and stores the
best restart's parameters, which solve every task.  It takes a few
minutes; run it again only when a change to the package makes the stored
parameters stop solving the grid.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tshc.dynamics import VehicleParams  # noqa: E402
from tshc.envs import VehicleEnv  # noqa: E402
from tshc.policy import MlpSpec  # noqa: E402
from tshc.reward import VVC_CONSTANT, VvcConfig  # noqa: E402
from tshc.tasks import heading_grid  # noqa: E402
from tshc.trainer import TshcConfig, tshc_run  # noqa: E402

LAYER_SIZES = (5, 8, 2)
CFG = TshcConfig(n_restarts=10, n_iter_max=20, n_candidates=1000, t_max=2000,
                 sigma_mode="random-per-iter", sigma_min=10.0, sigma_max=1000.0,
                 seed=1)


def main():
    tasks = heading_grid(10, 90)
    env = VehicleEnv(params=VehicleParams(Ts=0.1),
                     vvc=VvcConfig(VVC_CONSTANT, r_thresh=5.0))
    best, _ = tshc_run(CFG, tasks, env, MlpSpec(LAYER_SIZES))
    if best.n_solved != len(tasks):
        print(f"error: best restart solved {best.n_solved}/{len(tasks)} tasks",
              file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "solved_grid.json"), "w") as fh:
        json.dump({"layer_sizes": list(LAYER_SIZES), "t_max": CFG.t_max,
                   "theta": [float(x) for x in best.theta]}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
