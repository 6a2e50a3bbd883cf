"""Preallocated per-step scratch buffers for the MD run loop.

This is the *real* counterpart to the modelled registered-buffer pool of
Fig. 8 (:func:`repro.core.experiments.fig8_memory_pool`, priced by
:func:`repro.perfmodel.machine.nic_cache_penalty`): where that prices what
pooled RDMA buffers save on the NIC, this one actually removes the per-step allocation
churn from the hot loop.  A :class:`Workspace` hands out named, shape-stable
NumPy buffers that survive across steps, so a steady-state MD step (no
neighbour rebuild, no migration) performs near-zero fresh ``np.zeros`` /
``np.empty`` allocations.

Two kinds of buffers are provided:

* :meth:`Workspace.buffer` / :meth:`Workspace.zeros` — exact-shape buffers
  for per-atom quantities (forces, per-atom energies, densities).  The shape
  is stable between neighbour rebuilds/migrations; a shape change simply
  reallocates (a *miss*).
* :meth:`Workspace.capacity` — grow-only buffers for per-pair quantities,
  whose length varies slightly between rebuilds; the buffer keeps its largest
  capacity and returns a leading view.

Every consumer takes its buffers from this vending surface (``buffer`` /
``zeros`` / ``capacity`` / ``capacity_zeros`` / ``scoped``), so each kernel has
one body.  The engines own a :class:`Workspace`; every public entry point that
accepts ``workspace=None`` resolves it to :data:`UNPOOLED`, the stateless
allocating implementation of the same surface — identical arithmetic on
freshly owned arrays.  No ``workspace`` argument ever selects arithmetic.

Scatter-accumulation helpers live here too: :func:`scatter_add_vectors` and
:func:`scatter_add_scalars` replace ``np.ufunc.at`` (a per-element scalar
loop, ~4x slower at MD pair counts) with per-component ``np.bincount`` sums.
The summation *order* differs from ``np.add.at`` only in that subtracted
contributions are reduced separately before one vector subtraction, so
results agree with the reference paths to a few ULPs (~1e-14 at force scale),
well inside the 1e-10 cross-rank parity budget.
"""

from __future__ import annotations

import numpy as np

from .box import Box

__all__ = [
    "Workspace",
    "UNPOOLED",
    "scatter_add_vectors",
    "scatter_add_scalars",
    "minimum_image_into",
]


class Workspace:
    """A pool of named, reusable scratch arrays.

    Buffers are keyed by name; a request whose shape/dtype matches the cached
    buffer is a *hit* (no allocation), anything else is a *miss* (the buffer
    is reallocated).  The hit/miss counters let tests assert that steady-state
    steps run entirely out of the pool.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}
        self._capacities: dict[str, np.ndarray] = {}
        #: the pools :meth:`scoped` hands out, by prefix
        self._scopes: dict[str, Workspace] = {}
        #: ``[hits, misses]``, one list shared by this pool and its scopes
        self._counts = [0, 0]

    @property
    def hits(self) -> int:
        return self._counts[0]

    @property
    def misses(self) -> int:
        return self._counts[1]

    @property
    def nbytes(self) -> int:
        """Bytes held by the pool and its scopes: every exact-shape buffer
        plus every grow-only backing store at its full capacity."""
        own = sum(a.nbytes for a in (*self._arrays.values(), *self._capacities.values()))
        return own + sum(scope.nbytes for scope in self._scopes.values())

    # -- exact-shape buffers ---------------------------------------------------
    def buffer(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialized buffer of exactly ``shape`` (contents arbitrary)."""
        shape = tuple(map(int, shape)) if isinstance(shape, (tuple, list)) else (int(shape),)
        array = self._arrays.get(name)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = np.empty(shape, dtype=dtype)
            self._arrays[name] = array
            self._counts[1] += 1
        else:
            self._counts[0] += 1
        return array

    def zeros(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Like :meth:`buffer` but zero-filled on every request."""
        array = self.buffer(name, shape, dtype)
        array.fill(0)
        return array

    # -- grow-only capacity buffers --------------------------------------------
    def capacity(self, name: str, length: int, trailing: tuple[int, ...] = (), dtype=np.float64) -> np.ndarray:
        """A view of ``length`` rows over a grow-only backing buffer.

        For per-pair arrays whose length jitters between neighbour rebuilds:
        the backing store only reallocates when the requested length exceeds
        its capacity (with 25% headroom to amortize slow growth).
        """
        length = int(length)
        backing = self._capacities.get(name)
        if (
            backing is None
            or backing.shape[0] < length
            or backing.shape[1:] != tuple(trailing)
            or backing.dtype != dtype
        ):
            cap = max(length + length // 4, 1)
            backing = np.empty((cap, *trailing), dtype=dtype)
            self._capacities[name] = backing
            self._counts[1] += 1
        else:
            self._counts[0] += 1
        return backing[:length]

    def capacity_zeros(self, name: str, length: int, trailing: tuple[int, ...] = (), dtype=np.float64) -> np.ndarray:
        """Like :meth:`capacity` but the returned view is zero-filled.

        The serving batch packer keys its concatenated per-batch arrays
        through here: batch sizes jitter between admissions, so exact-shape
        :meth:`zeros` buffers would miss on every batch while the grow-only
        backing absorbs the jitter after warm-up.
        """
        view = self.capacity(name, length, trailing, dtype)
        view.fill(0)
        return view

    def scoped(self, prefix: str) -> "Workspace":
        """The pool's scope ``prefix``: a pool of its own names inside this one.

        Consumers that share one pool from different threads (the serving
        loop and synchronous ``evaluate_batch`` callers) need disjoint
        buffers; a scope per consumer keeps them apart by holding its own
        buffers, so its vends format no prefixed names.  Its hits and misses
        count on this pool's counters and its buffers in this pool's
        :attr:`nbytes`.  Each prefix gets one scope, made on first use.
        """
        scope = self._scopes.get(prefix)
        if scope is None:
            scope = Workspace()
            scope._counts = self._counts
            self._scopes[prefix] = scope
        return scope


class UnpooledWorkspace:
    """The allocating implementation of the vending surface.

    Every request returns a freshly owned array: names are ignored and nothing
    is retained, so the one instance :data:`UNPOOLED` — what ``workspace=None``
    means at the public entry points — is safe from any thread.
    """

    def buffer(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def zeros(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def capacity(self, name: str, length: int, trailing: tuple[int, ...] = (), dtype=np.float64) -> np.ndarray:
        return np.empty((length, *trailing), dtype=dtype)

    def capacity_zeros(self, name: str, length: int, trailing: tuple[int, ...] = (), dtype=np.float64) -> np.ndarray:
        return np.zeros((length, *trailing), dtype=dtype)

    def scoped(self, prefix: str) -> "UnpooledWorkspace":
        return self


UNPOOLED = UnpooledWorkspace()


# reprolint: hot-path
def scatter_add_vectors(
    out: np.ndarray,
    index_add: np.ndarray,
    index_sub: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """``out[index_add] += values`` and ``out[index_sub] -= values`` per row.

    The Newton's-third-law pair-force scatter, written as six ``np.bincount``
    reductions instead of two ``np.add.at`` scalar loops.  ``out`` must be
    ``(n, 3)`` and is accumulated into (callers zero it first when needed).
    ``values`` is ``(m, 3)``: row-major input pays one contiguous copy of each
    strided column; component-major input (the ``.T`` view of a ``(3, m)``
    array, as the blocked pair kernels pass) is copy-free, with the same sums.
    """
    n = out.shape[0]
    for axis in range(3):
        component = np.ascontiguousarray(values[:, axis])
        out[:, axis] += np.bincount(index_add, weights=component, minlength=n)
        out[:, axis] -= np.bincount(index_sub, weights=component, minlength=n)
    return out


# reprolint: hot-path
def scatter_add_scalars(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out[index] += values`` via one ``np.bincount`` reduction."""
    out += np.bincount(index, weights=values, minlength=out.shape[0])
    return out


def minimum_image_into(box: Box, delta: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """In-place minimum-image convention on ``(n, 3)`` displacement rows.

    Performs exactly the arithmetic of :meth:`Box.minimum_image`
    (``d -= L * round(d / L)`` per periodic axis) without allocating the
    result array; ``scratch`` must be an ``(n,)`` float64 buffer.
    """
    for axis in range(3):
        if box.periodic[axis]:
            length = box.lengths[axis]
            column = delta[:, axis]
            np.divide(column, length, out=scratch)
            np.round(scratch, out=scratch)
            scratch *= length
            column -= scratch
    return delta
