"""Convex and connected convex vertex sets of acyclic digraphs.

The package enumerates and counts the sets, builds the digraph families
whose average convex-set size grows like the square root of the order, and
checks the structural guarantees (extension vertices, non-cut endpoints,
per-size lower bounds) on arbitrary connected DAGs.

Each public name is declared once, in the ``__all__`` of its module; the
package re-exports those lists.
"""

from .convexity import *
from .core import *
from .enumeration import *
from .errors import *
from .families import *
from .io import *

__version__ = "0.1.0"

__all__ = (
    core.__all__
    + convexity.__all__
    + enumeration.__all__
    + families.__all__
    + io.__all__
    + errors.__all__
)
