"""Desk-scale operator-algebra toolkit.

Subpackages: formal series arithmetic with a positivity decision (series),
indefinite inner-product spaces (krein), graded nilpotent-charge quotients
and their deformations (brst), the extended Galilei group with grid
generators and the first-order wave operator (galilei), discretized mass
shells with restricted transforms (wigner), quantum-plane normal ordering
with root-of-unity center detection (qplane), and the scenario runner
(scenario, cli).  `opalg.<layer>` imports a layer on first access, so a
run pays only for the layers its checks name.
"""

import importlib

__all__ = ["brst", "cli", "galilei", "krein", "qplane", "scenario", "series",
           "wigner"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
