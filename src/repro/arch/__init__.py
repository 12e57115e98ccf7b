"""Architecture descriptions: components, designs (Table 4), area model."""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.arch.components import (
        Component,
        ComponentClass,
    )
    from repro.arch.spec import ArchitectureSpec
    from repro.arch.designs import (
        DesignResources,
        dstc_resources,
        highlight_resources,
        s2ta_resources,
        stc_resources,
        tc_resources,
        table4,
    )
    from repro.arch.area import AreaModel, area_breakdown
else:
    from repro import _lazy

    __getattr__, __dir__ = _lazy.attach(__name__, {
        "components": ("Component", "ComponentClass"),
        "spec": ("ArchitectureSpec",),
        "designs": (
            "DesignResources", "dstc_resources", "highlight_resources",
            "s2ta_resources", "stc_resources", "tc_resources", "table4",
        ),
        "area": ("AreaModel", "area_breakdown"),
    })

__all__ = [
    "Component",
    "ComponentClass",
    "ArchitectureSpec",
    "DesignResources",
    "tc_resources",
    "stc_resources",
    "dstc_resources",
    "s2ta_resources",
    "highlight_resources",
    "table4",
    "AreaModel",
    "area_breakdown",
]
