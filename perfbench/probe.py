"""Set-up probe: one fresh interpreter doing a workload's set-up.

    python3 perfbench/probe.py NAME SEED WORKDIR TINY WORKERS

Imports the package, builds what the workload's first operation needs
from the inputs ``run.py`` already wrote to WORKDIR, forks the worker pool
when the workload uses one, prints ``ready`` and exits.  ``run.py`` times
it from process start to that line.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    name, seed, workdir, tiny, workers = argv
    import workloads

    wl = workloads.make(name, int(seed), workdir, tiny == "1",
                        int(workers) if name == workloads.SWING else None)
    wl.setup()
    pool = None
    if wl.workers > 1:
        from multiprocessing import get_context
        pool = get_context("fork").Pool(wl.workers)
    print("ready", flush=True)
    if pool is not None:
        pool.close()
        pool.join()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
