"""Data-cleaning layer: violation detection and heuristic repair."""

from repro.cleaning.detect import (
    DetectionResult,
    build_detection_result,
    compare_with_traditional,
    is_clean,
)
from repro.cleaning.planner import RepairPlanner, RoundPlan
from repro.cleaning.repair import (
    RepairEdit,
    RepairResult,
    RoundStats,
    repair,
    replay_edits,
)

__all__ = [
    "DetectionResult",
    "RepairEdit",
    "RepairPlanner",
    "RepairResult",
    "RoundPlan",
    "RoundStats",
    "build_detection_result",
    "compare_with_traditional",
    "is_clean",
    "repair",
    "replay_edits",
]
