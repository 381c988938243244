"""The numeric kernel axis: one interface, two backends.

The replay loop — the :class:`~repro.pipeline.program.BatchPlayer` run
and audit passes over a compiled playback program — runs against a
*kernel*: the pure-Python reference backend or the NumPy vectorized
backend.  A jittered replay draws once per event into a serial
recurrence, so it always runs on the reference; the configured kernel
serves the quiet (jitter-free) replay, the one case where a measurement
shows vectorizing pays (``benchmarks/bench_kernels.py``).  The graph
solve and the planner's set intersections have a single scalar
implementation each and take no kernel.  The ``kernel=`` axis works
like the schedule layer's ``engine=`` axis:

* ``"auto"`` (the default) picks NumPy when it is importable, else the
  Python backend — so the package has **no hard NumPy dependency**;
* ``"numpy"`` / ``"python"`` force a backend (tests pin the two
  bit-identical against each other);
* the ``REPRO_KERNEL`` environment variable overrides ``"auto"``
  without touching call sites, which is how CI forces backends.

A kernel choice changes cost, never one bit of output — which is why
caches (programs, run plans) never key on the kernel — and NumPy never
leaves this package: plans, runs and audits reach the pipeline as lists.
"""

from __future__ import annotations

import os

from repro.core.errors import CmifError
from repro.kernel._np import HAVE_NUMPY, np
from repro.kernel.backends import (NUMPY_KERNEL, PYTHON_KERNEL,
                                   NumpyKernel, PythonKernel)

KERNEL_AUTO = "auto"
KERNEL_NUMPY = "numpy"
KERNEL_PYTHON = "python"

#: The values ``kernel=`` accepts.
KERNELS = (KERNEL_AUTO, KERNEL_NUMPY, KERNEL_PYTHON)

#: Environment override for the ``auto`` choice (CI forces backends
#: with it); ignored when a call site names a kernel explicitly.
KERNEL_ENV = "REPRO_KERNEL"


class KernelError(CmifError):
    """An unknown or unavailable kernel backend was requested."""


def resolve_kernel(kernel=None):
    """A kernel backend instance for an axis value.

    ``kernel`` may be None / ``"auto"`` (NumPy when available, after
    consulting :data:`KERNEL_ENV`), a backend name, or an already
    resolved kernel instance (returned as-is, so plumbing can resolve
    once and pass the instance down).
    """
    if isinstance(kernel, (PythonKernel, NumpyKernel)):
        return kernel
    name = KERNEL_AUTO if kernel is None else kernel
    if name == KERNEL_AUTO:
        name = os.environ.get(KERNEL_ENV, KERNEL_AUTO)
        if name == KERNEL_AUTO:
            name = KERNEL_NUMPY if HAVE_NUMPY else KERNEL_PYTHON
    if name == KERNEL_PYTHON:
        return PYTHON_KERNEL
    if name == KERNEL_NUMPY:
        if NUMPY_KERNEL is None:
            raise KernelError(
                "kernel 'numpy' requested but numpy is not installed; "
                "use kernel='python' (or 'auto')")
        return NUMPY_KERNEL
    raise KernelError(f"unknown kernel {name!r}; expected one of "
                      f"{KERNELS}")


__all__ = ["HAVE_NUMPY", "KERNELS", "KERNEL_AUTO", "KERNEL_ENV",
           "KERNEL_NUMPY", "KERNEL_PYTHON", "KernelError", "NumpyKernel",
           "PYTHON_KERNEL", "PythonKernel", "np", "resolve_kernel"]
