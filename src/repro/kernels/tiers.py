"""Kernel rendering names and the warn-once fallback warning.

Every hot loop in the model ships in two bit-identical renderings:

* ``scalar`` -- the retained pure-Python references (dataclasses, dicts,
  deques).  Slowest, most readable, the ground truth.
* ``vectorized`` -- the numpy closed forms and batched folds of this
  package.

The call seams that offer both (``run_optimized(kernel=...)`` and
``simulate_scatter_microarch(engine=...)``) validate their argument
through :func:`resolve_tier`, which also accepts the seams' historical
names ``event`` and ``batched``.
"""

from __future__ import annotations

import threading
from typing import Optional, Set

TIERS = ("scalar", "vectorized")

_NAMES = {
    None: "vectorized",
    "auto": "vectorized",
    "vectorized": "vectorized",
    "batched": "vectorized",  # run_optimized(kernel="batched")
    "scalar": "scalar",
    "event": "scalar",  # simulate_scatter_microarch(engine="event")
}


class KernelFallbackWarning(RuntimeWarning):
    """An exact path replaced a closed form.

    Raised (warn-once per distinct cause) when an input is outside a
    kernel's supported envelope -- e.g. FIFO back-pressure invalidating
    the closed-form Scatter drain schedule -- and execution proceeds on
    the exact reference path.  Results are bit-identical either way; the
    warning only flags that the fast path was not taken.
    """


_warn_lock = threading.Lock()
_warned: Set[str] = set()


def warn_fallback(key: str, message: str) -> None:
    """Emit ``KernelFallbackWarning`` once per distinct ``key`` per process."""
    import warnings

    with _warn_lock:
        if key in _warned:
            return
        _warned.add(key)
    warnings.warn(message, KernelFallbackWarning, stacklevel=3)


def reset_fallback_warnings() -> None:
    """Forget which fallbacks already warned (test isolation hook)."""
    with _warn_lock:
        _warned.clear()


def resolve_tier(requested: Optional[str] = None) -> str:
    """Map a rendering request onto ``"scalar"`` or ``"vectorized"``.

    ``scalar``/``event`` select the reference; ``None``, ``auto``,
    ``vectorized`` and ``batched`` select the numpy kernels.  Anything
    else raises ``ValueError``.
    """
    try:
        return _NAMES[requested]
    except (KeyError, TypeError):
        raise ValueError(
            "unknown kernel tier {!r}; expected one of {}".format(
                requested, ", ".join(repr(k) for k in _NAMES if k)
            )
        ) from None
