"""Dimensions of matrix sets with prescribed eigenvalue, Jordan, or
singular-value multiplicities, with numerical verification oracles."""

from .formulas import (
    DimensionReport,
    MatrixClass,
    dimension_report,
    table1,
    table2,
)
from .profiles import (
    JordanStructure,
    MultiplicityProfile,
    SingularProfile,
    invariant_degrees,
    partitions,
)
from .tangent_oracle import verify_profiles

__version__ = "0.1.0"
