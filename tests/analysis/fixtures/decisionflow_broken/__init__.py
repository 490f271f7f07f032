"""Deliberately broken measurement hook, simulation loop and decision
kernel for the lint CI step.

CI runs ``repro lint`` over this package and asserts the run
*fails* naming every rule (R004, R101, R104, R110, R112 and R113) —
proving the rules actually gate broken code rather than silently
passing.  Each module documents which rule it violates.  Never "fix"
these files.
"""
