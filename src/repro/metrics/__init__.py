"""Evaluation protocols and result formatting."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .evaluation import (
        RobustnessReport,
        evaluate_robustness,
        few_shot_sweep,
        target_splits,
    )
    from .tables import format_table
    from .wallclock import WallclockCurve, loss_vs_wallclock
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            ".evaluation": (
                "RobustnessReport", "evaluate_robustness", "few_shot_sweep",
                "target_splits",
            ),
            ".tables": ("format_table",),
            ".wallclock": ("WallclockCurve", "loss_vs_wallclock"),
        },
    )

__all__ = [
    "RobustnessReport",
    "evaluate_robustness",
    "few_shot_sweep",
    "target_splits",
    "format_table",
    "WallclockCurve",
    "loss_vs_wallclock",
]
