"""A fresh process brought to ready, for the benchmark's ``setup_s``.

``python3 perfbench/ready.py sweep`` imports iqhecke and computes the class
groups of the round-trip and table sweep; ``python3 perfbench/ready.py cli``
imports ``iqhecke.cli`` and loads the default fixture bundle. The caller
times the process from spawn to exit.
"""

import sys

if sys.argv[1] == "sweep":
    from inputs import sweep_groups

    sweep_groups()
else:
    import iqhecke.cli  # noqa: F401
    from iqhecke.bundle import FixtureBundle

    FixtureBundle()
