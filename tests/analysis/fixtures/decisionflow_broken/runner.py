"""A simulation loop with a wall-clock deadline (R104) that reads any
tenant error as an OOM kill (R004).

``run_all`` is a registered sim entry point, and the deadline it checks
makes the number of simulated epochs depend on the speed of the machine.
Its broad handler turns a crashing decider into a quietly truncated run.
"""

import time

_SIM_ENTRY_POINTS = ("run_all",)


def run_all(host):
    deadline = time.monotonic() + 2.0
    while host.active and time.monotonic() < deadline:
        try:
            host.step_epoch()
        except Exception:
            host.active = []
