"""Hot-loop kernels with a compiled core and a pure-Python fallback.

The compiled backend (``_core``, a wrapper of the ``_assign`` extension that
``setup.py`` builds from the hand-written ``_assign.c``) is preferred when it
imports; otherwise the pure-Python implementations take over.
Both backends consume identical pre-drawn uniforms and produce bit-identical
results, so traces do not depend on which backend is active.  Set
``PSSIM_BACKEND=python`` (or ``compiled``) to override the selection.
"""

from __future__ import annotations

import os

from ..errors import PsSimError
from . import _pykernels

try:
    from . import _core  # type: ignore[attr-defined]
except ImportError:
    _core = None


def available_backends() -> tuple[str, ...]:
    return ("compiled", "python") if _core is not None else ("python",)


def get_backend(name: str = "auto"):
    """Resolve a backend name to ``(resolved_name, kernel_module)``."""
    if name == "auto":
        if _core is not None:
            return "compiled", _core
        return "python", _pykernels
    if name == "compiled":
        if _core is None:
            raise PsSimError("compiled kernels are not available in this install")
        return "compiled", _core
    if name == "python":
        return "python", _pykernels
    raise PsSimError(f"unknown kernel backend {name!r}")


BACKEND, _active = get_backend(os.environ.get("PSSIM_BACKEND", "auto"))
assign_participants = _active.assign_participants
