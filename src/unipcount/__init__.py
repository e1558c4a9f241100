"""Exact counting and enumeration of special unipotent representations of
type A real groups, attached to a nilpotent orbit given as a partition.

The engine works purely in exact integer arithmetic: Young-diagram
combinatorics, symmetric-group character theory, and coherent-continuation
module decompositions, cross-validated by brute-force oracles.
"""

__version__ = "0.1.0"

from .diagrams import parse_orbit
from .errors import (
    DegreeMismatchError,
    EngineError,
    InvalidPartitionError,
    OracleBoundError,
    ShapeMismatchError,
    UnsupportedGroupError,
)
from .symreps import character_table
from .unipotent import (
    GroupKind,
    GroupSpec,
    OrbitSpec,
    cell_rep,
    coherent_module,
    count_record,
    count_unipotent,
    enumeration_record,
    make_group,
)
from .weylmodules import ModuleDecomp
