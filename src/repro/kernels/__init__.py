"""Columnar kernels behind one seam.

The physical layer's hot inner loops — hash-index builds, semijoin masks,
per-group sorts, weighted-median scans, prefix sums — all run through the
small fixed op set of :class:`~repro.kernels.base.KernelBackend`, which has
one implementation (pure stdlib, no dependency).

Call sites fetch the process-wide instance with :func:`active_backend` at
every kernel invocation and look the op up on it, so rebinding an op on that
instance (what the end-to-end benchmark's tracer does to count kernel calls)
takes effect immediately and everywhere.
"""

from __future__ import annotations

from repro.kernels.base import KernelBackend

__all__ = ["KernelBackend", "active_backend", "backend_name"]

_active = KernelBackend()


def active_backend() -> KernelBackend:
    """The process-wide kernel backend instance."""
    return _active


def backend_name() -> str:
    """Short name of the active backend (``"python"``)."""
    return _active.name
