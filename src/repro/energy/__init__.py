"""Accelergy-style energy/area estimation.

The paper characterizes component energy/area with synthesized 65 nm RTL,
an SRAM compiler, CACTI and vendor DRAM data, all behind Accelergy
plug-ins. We reproduce the *structure*: every component class has a
plug-in that maps (component, action) to energy in pJ and component to
area in um^2, with constants in :mod:`repro.energy.tables` chosen in
65 nm-class ranges and — critically — shared by every design so that all
cross-design comparisons are apples-to-apples.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.energy.tables import EnergyAreaTable, default_table
    from repro.energy.plugins import (
        DramPlugin,
        EstimationPlugin,
        LogicPlugin,
        SramPlugin,
        default_plugins,
    )
    from repro.energy.estimator import Estimator
else:
    from repro import _lazy

    __getattr__, __dir__ = _lazy.attach(__name__, {
        "tables": ("EnergyAreaTable", "default_table"),
        "plugins": (
            "DramPlugin", "EstimationPlugin", "LogicPlugin", "SramPlugin",
            "default_plugins",
        ),
        "estimator": ("Estimator",),
    })

__all__ = [
    "EnergyAreaTable",
    "default_table",
    "EstimationPlugin",
    "LogicPlugin",
    "SramPlugin",
    "DramPlugin",
    "default_plugins",
    "Estimator",
]
