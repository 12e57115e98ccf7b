"""Shared utilities: validation helpers, small math helpers, formatting."""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.utils.mathutils import (
        ceil_div,
        geomean,
        is_power_of_two,
        prod,
        round_up_to_multiple,
    )
    from repro.utils.validation import (
        check_fraction,
        check_positive,
        check_probability,
        check_type,
    )
else:
    from repro import _lazy

    __getattr__, __dir__ = _lazy.attach(__name__, {
        "mathutils": (
            "ceil_div", "geomean", "is_power_of_two", "prod",
            "round_up_to_multiple",
        ),
        "validation": (
            "check_fraction", "check_positive", "check_probability",
            "check_type",
        ),
    })

__all__ = [
    "ceil_div",
    "geomean",
    "is_power_of_two",
    "prod",
    "round_up_to_multiple",
    "check_fraction",
    "check_positive",
    "check_probability",
    "check_type",
]
