"""The paper's primary contribution: target-driven parallelism.

Contains the speedup-profile model (Section 2.4), predictive-parallelism
degree selection (Section 3.1), the dynamic-correction controller
(Section 3.2), and target-table construction via greedy gradient descent
(Section 3.3, Algorithm 1).
"""

from .speedup import SpeedupProfile, SpeedupBook, demand_group
from .target_table import TargetTable
from .predictive import select_degree
from .correction import CorrectionController, CorrectionDecision
from .table_builder import build_target_table, TableSearchResult

__all__ = [
    "SpeedupProfile",
    "SpeedupBook",
    "demand_group",
    "TargetTable",
    "select_degree",
    "CorrectionController",
    "CorrectionDecision",
    "build_target_table",
    "TableSearchResult",
]
