"""A simulation loop with a wall-clock deadline (R104).

``run_all`` is a registered sim entry point, and the deadline it checks
makes the number of simulated epochs depend on the speed of the machine.
"""

import time

_SIM_ENTRY_POINTS = ("run_all",)


def run_all(host):
    deadline = time.monotonic() + 2.0
    while host.active and time.monotonic() < deadline:
        host.step_epoch()
