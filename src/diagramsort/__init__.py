"""Partition diagrams, the partition monoid, and diagram stack-sorting.

The package covers four layers: the diagrams themselves with their monoid
and algebra products (``core``), the classical stack-sorting map on words
and its extension to whole diagrams (``sorting``), stretch morphisms that
inflate diagram nodes into blocks (``stretch``), and sortability predicates
with the sortability census (``analysis``).  ``diagramsort.cli`` exposes the
same operations as a command-line tool.
"""

from .core import (
    AlgebraElement,
    PartitionDiagram,
    XiPoly,
    algebra_multiply,
    canonicalize,
    compose,
    embed_permutation,
    enumerate_diagrams,
    format_diagram,
    identity_diagram,
    parse_diagram,
    to_dot,
)
from .sorting import (
    Decomposition,
    FactorTag,
    TraceEvent,
    decompose,
    odot_assemble,
    sort_diagram,
    sort_diagram_traced,
    sort_word,
)
from .stretch import SetComposition, delta_k, is_stretch_of_identity, stretch_map
from .analysis import (
    CensusRow,
    VerificationError,
    census_stretch_sortable,
    contains_231,
    count_t_stack_sortable,
    is_sss_direct,
    is_sss_theorem,
    is_t_stack_sortable,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "CensusRow",
    "Decomposition",
    "FactorTag",
    "PartitionDiagram",
    "SetComposition",
    "TraceEvent",
    "VerificationError",
    "XiPoly",
    "algebra_multiply",
    "canonicalize",
    "census_stretch_sortable",
    "compose",
    "contains_231",
    "count_t_stack_sortable",
    "decompose",
    "delta_k",
    "embed_permutation",
    "enumerate_diagrams",
    "format_diagram",
    "identity_diagram",
    "is_sss_direct",
    "is_sss_theorem",
    "is_stretch_of_identity",
    "is_t_stack_sortable",
    "odot_assemble",
    "parse_diagram",
    "sort_diagram",
    "sort_diagram_traced",
    "sort_word",
    "stretch_map",
    "to_dot",
]
