"""Desk-scale operator-algebra toolkit.

Subpackages: formal series arithmetic with a positivity decision (series),
indefinite inner-product spaces (krein), graded nilpotent-charge quotients
and their deformations (brst), the extended Galilei group with grid
generators and the first-order wave operator (galilei), discretized mass
shells with restricted transforms (wigner), quantum-plane normal ordering
with root-of-unity center detection (qplane), and the scenario runner
(scenario, cli).  The command line front end `opalg.cli` is imported on
demand, so that `python -m opalg.cli` runs it only once.
"""

from . import brst, galilei, krein, qplane, scenario, series, wigner

__all__ = ["brst", "cli", "galilei", "krein", "qplane", "scenario", "series",
           "wigner"]
__version__ = "0.1.0"
