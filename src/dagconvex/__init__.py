"""Convex and connected convex vertex sets of acyclic digraphs.

The package enumerates and counts the sets, builds the digraph families
whose average convex-set size grows like the square root of the order, and
checks the structural guarantees (extension vertices, non-cut endpoints,
per-size lower bounds) on arbitrary connected DAGs.

Each public name is declared once, in the ``__all__`` of its module; the
package re-exports those lists.  ``import dagconvex`` loads no submodule:
the first name looked up that the package does not hold yet imports all
seven public modules and binds their names, so that a CLI job, importing
from the defining modules, loads only what its command runs.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    if "__all__" not in globals():
        from importlib import import_module
        public = []
        for stem in ("core", "convexity", "enumeration", "families", "structure", "io", "errors"):
            module = import_module(f".{stem}", __name__)
            globals().update((n, getattr(module, n)) for n in module.__all__)
            public += module.__all__
        globals()["__all__"] = public
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    __getattr__("__all__")  # loads the modules if no lookup has yet
    return sorted(globals())
