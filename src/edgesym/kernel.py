"""Kernel selection: compiled extension when available, pure Python otherwise.

Set EDGESYM_KERNEL=py or EDGESYM_KERNEL=c to force a backend; the default
prefers the compiled one. Both implement the same deterministic policy.

Each backend exposes two calls. ``prepare(n, src, dst)`` turns two n x n
label matrices (row-major lists) into an opaque query: the image rows
bucketed by label and the per-vertex label-histogram matches.
``search_mapping(query, allowed)`` filters the candidate bitmasks ``allowed``
against those matches and backtracks; it returns the first bijection p in
the kernel's branch order with dst[p(u)*n + p(v)] == src[u*n + v] for all
u != v, or None. A query can be searched many times with different masks.
Callers go through the attribute ``kernel.search_mapping`` so that a wrapper
installed there sees every search.
"""

from __future__ import annotations

import os

from . import _kernel_py

_choice = os.environ.get("EDGESYM_KERNEL", "auto").lower()

if _choice == "py":
    _impl = _kernel_py
elif _choice in ("auto", "c"):
    try:
        from . import _kernel_c as _impl  # type: ignore[no-redef]
    except ImportError:
        if _choice == "c":
            raise ImportError(
                "EDGESYM_KERNEL=c requested but the compiled kernel is not built; "
                "run `python setup.py build_ext --inplace`"
            )
        _impl = _kernel_py
else:
    raise ValueError(f"unknown EDGESYM_KERNEL value {_choice!r}")

prepare = _impl.prepare
search_mapping = _impl.search_mapping
BACKEND: str = _impl.BACKEND
