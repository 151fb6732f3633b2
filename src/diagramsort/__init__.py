"""Partition diagrams, the partition monoid, and diagram stack-sorting.

The package covers four layers: the diagrams themselves with their monoid
and algebra products (``core``), the classical stack-sorting map on words
and its extension to whole diagrams (``sorting``), stretch morphisms that
inflate diagram nodes into blocks (``stretch``), and sortability predicates
with the sortability census (``analysis``).  ``diagramsort.cli`` exposes the
same operations as a command-line tool.  Each layer's ``__all__`` is its one
list of public names; the package re-exports them all, sorted.
"""

from . import analysis, core, sorting, stretch
from .core import *
from .sorting import *
from .stretch import *
from .analysis import *

__version__ = "0.1.0"

__all__ = sorted({*core.__all__, *sorting.__all__, *stretch.__all__, *analysis.__all__})
