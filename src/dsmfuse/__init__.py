"""Belief fusion on finite pre-Boolean algebras and continuous interval models.

The finite engine (``prebool``, ``belief``, ``ordered``) is pure Python; the
spectral engine (``chebfusion``) needs numpy alone.  Importing the package
loads neither: each submodule is imported on first access, so
``dsmfuse.chebfusion`` and ``from dsmfuse import chebfusion`` load numpy,
and ``from dsmfuse import prebool`` does not.
"""

import importlib

__all__ = ["belief", "chebfusion", "ordered", "prebool"]
__version__ = "0.1.0"
# What __getattr__ imports: the star import's names, the reader and the CLI.
_SUBMODULES = (*__all__, "chebseries", "cli")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
