"""Kernel backend registry: resolution, installation, scoped switching.

The flat engine's element-scale kernels (:mod:`repro.dist.flatops`)
dispatch to one process-wide active :class:`~repro.dist.backend.base.
KernelBackend`.  The numpy kernels are the only backend the package ships;
the dispatch exists so a caller can install a proxy around them (the
benchmark's kernel tracer, test fakes).  Backend *specs* resolve as:

* ``get_backend(None)`` — the process default: whatever :func:`install`
  set, else ``numpy``.
* ``get_backend("numpy")`` — the in-process numpy kernels.
* ``get_backend(instance)`` — pass-through for a constructed backend.

:func:`use_backend` scopes a switch to a ``with`` block — that is what
``run_on_machine(..., backend=...)`` uses, so one process can swap the
kernels for one run without touching global state permanently.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Union

from repro.dist import flatops
from repro.dist.backend.base import KernelBackend
from repro.dist.backend.numpy_backend import NumpyBackend

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "get_backend",
    "current_backend",
    "install",
    "use_backend",
]

_NUMPY = NumpyBackend()
_DEFAULT: Optional[KernelBackend] = None  # set by install()


def get_backend(
    spec: Union[None, str, KernelBackend] = None
) -> KernelBackend:
    """Resolve a backend spec to an instance (``"numpy"`` is a singleton)."""
    if isinstance(spec, KernelBackend):
        return spec
    if spec is None:
        return _DEFAULT if _DEFAULT is not None else _NUMPY
    if str(spec).strip().lower() == "numpy":
        return _NUMPY
    raise ValueError(f"unknown backend spec {spec!r}; known: numpy")


def current_backend() -> KernelBackend:
    """The backend the kernel dispatchers are using right now."""
    return flatops._active_backend()


def install(spec: Union[None, str, KernelBackend]) -> KernelBackend:
    """Set the process-wide active backend; returns the instance.

    ``install(None)`` reverts to the numpy default.
    """
    global _DEFAULT
    backend = None if spec is None else get_backend(spec)
    _DEFAULT = backend
    flatops._BACKEND = backend
    return backend if backend is not None else get_backend(None)


@contextmanager
def use_backend(spec: Union[None, str, KernelBackend]):
    """Scope the active backend to a ``with`` block.

    ``None`` keeps whatever is active (so call sites can thread an optional
    backend argument through unconditionally).
    """
    if spec is None:
        yield current_backend()
        return
    saved_default = _DEFAULT
    saved_active = flatops._BACKEND
    backend = install(spec)
    try:
        yield backend
    finally:
        globals()["_DEFAULT"] = saved_default
        flatops._BACKEND = saved_active
