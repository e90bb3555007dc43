"""Conditional-independence tests: G^2, chi^2, mutual information, the
interpreted naive baseline and the d-separation oracle."""

from .arena import KernelArena
from .base import CITestCounters, CITestResult, ConditionalIndependenceTest
from .chisquare import ChiSquareTest
from .contingency import (
    code_dtype,
    contingency_table,
    column_counts,
    encode_columns,
    n_configurations,
)
from .gsquare import GSquareTest
from .mutual_info import MutualInformationTest
from .naive import NaiveGSquareTest
from .native import native_available, native_kind
from .oracle import OracleCITest
from .tablebase import ContingencyTableTest

__all__ = [
    "CITestResult",
    "CITestCounters",
    "ConditionalIndependenceTest",
    "ContingencyTableTest",
    "GSquareTest",
    "ChiSquareTest",
    "KernelArena",
    "MutualInformationTest",
    "NaiveGSquareTest",
    "OracleCITest",
    "code_dtype",
    "contingency_table",
    "column_counts",
    "encode_columns",
    "n_configurations",
    "native_available",
    "native_kind",
]
