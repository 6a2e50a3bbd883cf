"""Which OpenBLAS kernel NumPy's GEMMs run on.

A few tests pin sha256 digests or ``float.hex`` values of outputs that pass
through NumPy's bundled OpenBLAS.  That library is a ``DYNAMIC_ARCH`` build:
it picks a kernel for the CPU at load time (``OPENBLAS_CORETYPE`` overrides
the pick), and kernels sum in different orders, so such a pin holds only on
the kernel it was recorded on.  Those tests carry the ``blas_bound`` marker,
and their failure message is :func:`kernel_note`.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

#: The OpenBLAS build and kernel every ``blas_bound`` pin was recorded on.
RECORDED_ON = "OpenBLAS 0.3.31 SkylakeX"


def _query(symbol: str) -> bytes | str:
    """The string an argument-less ``char *`` function of NumPy's OpenBLAS returns, or ``"unknown"``."""
    found = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        function = getattr(ctypes.CDLL(str(found[0])), symbol)
    except (IndexError, OSError, AttributeError):
        return "unknown"
    function.argtypes = []
    function.restype = ctypes.c_char_p
    return function()


def openblas_core() -> bytes | str:
    """The kernel NumPy's OpenBLAS runs, e.g. ``b'SkylakeX'``, or ``"unknown"``."""
    return _query("scipy_openblas_get_corename64_")


def openblas_version() -> str:
    """The OpenBLAS release, e.g. ``"0.3.31"``, or ``"unknown"``."""
    config = _query("scipy_openblas_get_config64_")  # b"OpenBLAS 0.3.31.188.0  USE64BITINT ..."
    if isinstance(config, str):
        return config
    return ".".join(config.split()[1].decode().split(".")[:3])


def kernel_note() -> str:
    """Where a ``blas_bound`` pin was recorded and where it runs now."""
    core = openblas_core()
    running = core.decode() if isinstance(core, bytes) else core
    return f"recorded on {RECORDED_ON}, running on OpenBLAS {openblas_version()} {running}"
