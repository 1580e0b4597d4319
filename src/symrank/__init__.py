"""symrank: rank-based tools for analyzing tree splits and selecting
symbolic features.

The package groups into: core domain types (datasets, expressions,
partitions, intervals), rank statistics including the concordant divergence,
oracle 2-partitions of the response, CART trees and their induced rankings,
piecewise-monotone transform comparison, symbolic feature generation, and a
reproducible feature-selection experiment harness with a CLI front end.

``import symrank`` loads no submodule: each name in ``__all__`` is imported
the first time it is read, as ``symrank.tree`` or ``from symrank import
tree``. A ``symrank`` command loads only the modules it runs: every command
loads ``cli``, ``core``, ``errors``, ``evalsel``, ``stats`` and ``symgen``;
``tree`` is loaded by tree importance and ``tree grow``/``tree predict``,
``partition`` by ``oracle-partition`` and ``monotonic`` by ``p12``.
"""

import importlib

__all__ = ["core", "errors", "evalsel", "monotonic", "partition", "stats",
           "symgen", "tree"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
