"""``repro.accel`` — selectable profiling-kernel backends.

Two interchangeable implementations of the :class:`~repro.accel.kernels.Kernels`
protocol exist:

* ``python`` — the stdlib-only reference (always available);
* ``numpy``  — vectorized kernels over the packed trace columns, typically
  an order of magnitude faster on the profiling hot loops.

Both are guaranteed **bit-identical**: every pass, histogram, branch count
and dependency profile a backend produces equals the reference exactly, so
switching backends never changes a result — only how fast it arrives.

Selection: NumPy when ``numpy>=2`` imports, the stdlib reference
otherwise.  The ``REPRO_ACCEL`` environment variable (``numpy`` |
``python`` | ``auto``) is the one override, read on first use; naming
``numpy`` explicitly raises if NumPy is missing.  :func:`set_backend`
switches in process, for benchmarks that time both backends.
"""

from __future__ import annotations

import os

from repro.accel.kernels import (
    BaseGeometry,
    ControlStream,
    Kernels,
    PythonKernels,
)
from repro.accel.passes import BasePass, L2Pass, count_miss_runs

__all__ = [
    "BaseGeometry",
    "BasePass",
    "ControlStream",
    "Kernels",
    "L2Pass",
    "PythonKernels",
    "active_backend",
    "available_backends",
    "count_miss_runs",
    "get_kernels",
    "set_backend",
]

#: Environment variable naming the kernel backend (``auto`` if unset).
ACCEL_ENV = "REPRO_ACCEL"

BACKEND_CHOICES = ("auto", "numpy", "python")

_ACTIVE: Kernels | None = None


def _numpy_kernels() -> Kernels:
    import numpy

    if not hasattr(numpy, "bitwise_count"):
        # The kernels need NumPy >= 2.0; a 1.x install must fall back to
        # the stdlib backend instead of crashing mid-profiling.
        raise ImportError(
            f"repro.accel needs numpy>=2.0 (np.bitwise_count); "
            f"found {numpy.__version__}"
        )
    from repro.accel.np_kernels import NumpyKernels

    return NumpyKernels()


def _resolve(choice: str) -> Kernels:
    choice = choice.strip().lower() or "auto"
    if choice not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown accel backend {choice!r}; choose from "
            f"{', '.join(BACKEND_CHOICES)}"
        )
    if choice == "python":
        return PythonKernels()
    if choice == "numpy":
        try:
            return _numpy_kernels()
        except ImportError as exc:
            raise ValueError(
                f"accel backend 'numpy' requested but unusable: {exc} "
                "(pip install 'repro-ispass2012-inorder-model[accel]')"
            ) from exc
    # auto: NumPy when present, silent stdlib fallback otherwise.
    try:
        return _numpy_kernels()
    except ImportError:
        return PythonKernels()


def set_backend(choice: str) -> Kernels:
    """Select the kernel backend (``auto`` | ``numpy`` | ``python``).

    Returns the activated :class:`Kernels` instance.  Engines capture the
    active backend when they are created, so switch before profiling work
    starts.
    """
    global _ACTIVE
    _ACTIVE = _resolve(choice)
    return _ACTIVE


def get_kernels() -> Kernels:
    """The active kernel backend (resolved from ``REPRO_ACCEL`` on first use)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _resolve(os.environ.get(ACCEL_ENV, "auto"))
    return _ACTIVE


def active_backend() -> str:
    """Name of the active backend (``"numpy"`` or ``"python"``)."""
    return get_kernels().name


def available_backends() -> dict[str, bool]:
    """Availability of every known backend on this interpreter.

    ``numpy`` is available only when the installed NumPy is new enough
    for the kernels — the same check :func:`set_backend` applies.
    """
    try:
        import numpy

        has_numpy = hasattr(numpy, "bitwise_count")
    except ImportError:
        has_numpy = False
    return {"python": True, "numpy": has_numpy}
