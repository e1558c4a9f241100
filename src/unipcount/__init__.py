"""Exact counting and enumeration of special unipotent representations of
type A real groups, attached to a nilpotent orbit given as a partition.

The engine works purely in exact integer arithmetic: Young-diagram
combinatorics, symmetric-group character theory, and coherent-continuation
module decompositions, cross-validated by brute-force oracles.
"""

__version__ = "0.1.0"

from .diagrams import (
    CosetSignature,
    Diagram,
    RowProfile,
    all_diagrams,
    coset_signature,
    even_odd_split,
    make_diagram,
    parse_orbit,
    row_profile,
    row_union,
    transpose,
)
from .errors import (
    DegreeMismatchError,
    EngineError,
    InvalidPartitionError,
    OracleBoundError,
    ShapeMismatchError,
    UnsupportedGroupError,
)
from .symreps import (
    ClassFunction,
    character_table,
    inner_product,
    irrep_dimension,
)
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
from .weylmodules import (
    ModuleDecomp,
    block_matchings_first,
    block_matchings_second,
    coh_gl_complex,
    coh_sl_complex,
    coh_su,
    coh_u_cover,
    diagonal_module,
    matchings_module,
    sign_induction_module,
)
