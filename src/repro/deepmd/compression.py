"""Model compression: tabulated embedding networks.

Guo et al. (PPoPP'22) — the baseline this paper builds on — compress the
embedding network by tabulating G(s) on a fine grid and replacing the MLP
evaluation with piecewise polynomial interpolation, which removes most of the
embedding-net GEMMs.  :class:`TabulatedEmbeddingSet` reproduces that scheme
with cubic Hermite interpolation: values and derivatives are stored per grid
node, so both G(s) and dG/ds (needed by the force computation) are obtained
directly from the table.

Node derivatives come from the **analytic** input-Jacobian of the exported
net, not from finite differences — the table is exact at the nodes and never
evaluates the net outside the tabulated range.
:func:`analytic_input_jacobian` runs the reverse pass of
:meth:`FastMLP.backward_input` for every one-hot output component at once,
layer by layer: the last layer is an outer product and each earlier one a
slope multiply and a matmul over a cache-sized chunk of stacked components.
Its bits are those of one backward pass per component (pinned in
``tests/test_deepmd_compression.py``) at about a quarter of the cost.

:meth:`TabulatedEmbeddingSet.place` + :meth:`HermitePlacement.interpolate`
are the one evaluator: all tables are stacked into one packed node array, so
``place`` resolves every neighbour of a whole batch — whatever mixture of
neighbour types the rows hold — to a node window and its Hermite basis
weights once, and ``interpolate`` turns any row range of that placement into
``(G, dG/ds)`` with one fused gather and two contractions.  The model's
compressed step (:meth:`repro.deepmd.model.DeepPotential._per_type_fast`)
calls the kernel once per cache-sized block of centres and consumes the block
while it is hot; :meth:`TabulatedEmbeddingSet.evaluate_batched` is the same
placement and a loop over the same kernel in :data:`HERMITE_CHUNK_ROWS` row
blocks.  It is pinned at 1e-12 (``tests/test_deepmd_compression.py``) to the
per-key golden :func:`repro.reference.deepmd.tabulated_evaluate`, which reads
the same :attr:`TabulatedEmbeddingSet.tables` one ``(centre, neighbour)`` key
at a time.

Inputs outside ``[0, s_max]`` clamp to the end nodes — the value is
constant-extrapolated there, so **dG/ds is zero** outside the range (a
non-zero end-node derivative would make forces inconsistent with the energy
for close approaches).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gemm import _dtype_name
from .networks import FastMLP, activation_slope, skip_gradient

#: FLOP counts of the batched Hermite kernel, reconciled with
#: :func:`repro.perfmodel.kernels.per_atom_flops` (see the cross-module
#: assertion in ``tests/test_perfmodel_core.py``).  Per (neighbour, output
#: component): the 4-term value combination (4 mul + 3 add; node derivatives
#: are pre-scaled by the grid step at build time, so no per-evaluation
#: scaling remains).
HERMITE_VALUE_FLOPS_PER_COMPONENT = 7.0
#: Per neighbour, shared across components: t, t^2, t^3 and the four value
#: basis polynomials h00/h10/h01/h11.
HERMITE_VALUE_FLOPS_PER_NEIGHBOR = 17.0
#: Per (neighbour, component): the 4-term derivative combination.
HERMITE_DERIVATIVE_FLOPS_PER_COMPONENT = 7.0
#: Per neighbour: the four derivative basis polynomials dh00..dh11.
HERMITE_DERIVATIVE_FLOPS_PER_NEIGHBOR = 17.0
#: Per (neighbour, component): the dE/ds contraction of dG/ds with dE/dG.
EMBEDDING_GRAD_DOT_FLOPS_PER_COMPONENT = 2.0

#: The cubic Hermite basis on t in [0, 1] as coefficient rows: the value
#: weights ``h00, h10, h01, h11`` (the operands ``y0, h*d0, y1, h*d1``) are
#: ``2t^3 - 3t^2 + 1``, ``t^3 - 2t^2 + t``, ``-2t^3 + 3t^2`` and ``t^3 - t^2``
#: (row 0 multiplies t^3, row 1 t^2; the ``+ 1`` and ``+ t`` are added per
#: column); their t-derivatives are ``6t^2 - 6t``, ``3t^2 - 4t + 1``,
#: ``-6t^2 + 6t`` and ``3t^2 - 2t`` (row 0 multiplies t^2, row 1 t).
_VALUE_TERMS = np.array([[2.0, 1.0, -2.0, 1.0], [-3.0, -2.0, 3.0, -1.0]])
_DERIV_TERMS = np.array([[6.0, 3.0, -6.0, 3.0], [-6.0, -4.0, 6.0, -2.0]])

#: Uniform samples of s per :meth:`TabulatedEmbeddingSet.interpolation_errors` probe.
INTERPOLATION_SAMPLES = 512

#: Rows per cache block — the one block-size constant of the compressed step.
#: In the kernel the gathered (rows, 4, M) operand block and both output
#: slices stay resident between the gather and the two contractions (measured
#: ~3x over whole-array passes at 90k rows); the model's compressed step sizes
#: its centre blocks from it (:func:`centre_block`), so a block's G rows are
#: still cache-hot when the descriptor contraction reads them.  It never
#: selects arithmetic (pinned ``array_equal`` at 1 row, the default and one
#: block per batch).
HERMITE_CHUNK_ROWS = 1024


def centre_block(n_neighbors: int) -> int:
    """Centres per block of a padded ``(B, n_neighbors, M)`` pass: as many as
    fit in :data:`HERMITE_CHUNK_ROWS` neighbour rows, and at least one."""
    return max(1, HERMITE_CHUNK_ROWS // n_neighbors)


@dataclass
class _Table:
    grid: np.ndarray  # (K,)
    values: np.ndarray  # (K, M)
    derivatives: np.ndarray  # (K, M)

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass
class HermitePlacement:
    """Where every row of one batched evaluation lands in the packed table.

    Built by :meth:`TabulatedEmbeddingSet.place`; row ``i`` interpolates the
    node window ``windows[base[i]]`` with the basis weights of row ``i``.
    """

    windows: np.ndarray  # (n_nodes - 1, 2, 2M) overlapping node-pair view at the compute dtype
    base: np.ndarray  # (n,) window index: table slot * K + segment
    value_weights: np.ndarray  # (n, 4) h00, h10, h01, h11
    deriv_weights: np.ndarray  # (n, 4) their t-derivatives over the grid step
    clamped: np.ndarray | None  # (n,) True outside [0, s_max]; None when no row is

    # reprolint: hot-path
    def interpolate(self, lo: int, hi: int, out_values: np.ndarray, out_derivatives: np.ndarray) -> None:
        """``(G, dG/ds)`` of rows ``[lo, hi)`` into two ``(hi - lo, M)`` buffers.

        One fancy-index over the window view gathers all four Hermite
        operands ``[y0, h*d0, y1, h*d1]`` of the row block; the value and
        derivative combinations run as two ``einsum`` contractions against
        the (row, 4) basis weights — no per-term temporaries, and the k-order
        of the contraction matches the golden 4-term sum exactly.  Clamped
        rows keep the end-node value and get a zero derivative.
        """
        nodes = self.windows[self.base[lo:hi]].reshape(hi - lo, 4, out_values.shape[1])
        np.einsum("nkm,nk->nm", nodes, self.value_weights[lo:hi], out=out_values)
        np.einsum("nkm,nk->nm", nodes, self.deriv_weights[lo:hi], out=out_derivatives)
        if self.clamped is not None:
            out_derivatives[self.clamped[lo:hi]] = 0.0


@dataclass
class InterpolationErrors:
    """Max |table - net| and max |dG/ds table - analytic| over random samples."""

    value: float
    derivative: float


#: Bytes of one chunk of stacked output components in
#: :func:`analytic_input_jacobian`: the widest ``(components, K, width)``
#: gradient block of the reverse pass.  A chunk's few live blocks then stay in
#: a core's L2 cache.  At the end-to-end benchmark's four (32, 64, 128) nets
#: on 512 points one component fills it, and the build took 137 ms against
#: 231 ms at 4 MiB (2-core Xeon with 2 MiB L2 per core, one pinned core).  It
#: bounds the build's transient memory and never selects arithmetic.
JACOBIAN_CHUNK_BYTES = 256 * 1024


def analytic_input_jacobian(net: FastMLP, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward values and the full dG/ds Jacobian of a scalar-input net.

    The input dimension is 1, so the Jacobian of the ``(K,)`` inputs is a
    ``(K, M)`` array: the reverse pass of :meth:`FastMLP.backward_input`
    seeded with every one-hot output component, computed layer by layer for
    a chunk of components at once and bit-for-bit what one backward pass per
    component gives.  One forward tape, local to this call, serves every
    component (``net`` itself is left untouched); the activation slopes and
    residual links are read through the helpers ``backward_input`` uses.

    * **Last layer.**  A one-hot seed makes ``grad_pre @ W^T`` one non-zero
      product per row, so the layer is the outer product of the component's
      activation slope and its column of ``W``.  ``+ 0.0`` turns a ``-0.0``
      product into the ``+0.0`` a zero-started BLAS accumulator returns, and
      the residual link adds the folded one-hot seed.
    * **Earlier layers.**  The chunk's gradients are stacked into one
      ``(components, K, width)`` array, so each layer is one slope multiply
      and one ``np.matmul`` per chunk.  That matmul runs one BLAS call per
      component of the same shape as a lone backward pass (a single
      ``(components * K, width)`` GEMM is not bitwise for the gemv-shaped
      products: ``K = 1``, or the input layer's one-column product).
    * **Chunks** hold at most :data:`JACOBIAN_CHUNK_BYTES` of the widest
      gradient block, and at least one component.

    Never evaluates the net outside ``s`` — unlike a centered difference at
    the first grid node.
    """
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    tape: list = []
    values = net.forward(s[:, None], cache=tape)
    n_points, m = values.shape
    *hidden, last = net.layers
    slopes = [activation_slope(layer, entry) for layer, entry in zip(net.layers, tape)]
    last_slope = np.broadcast_to(slopes.pop(), values.shape)
    seeds = np.eye(m)
    widest = max(layer.weight.shape[0] for layer in net.layers)
    per_chunk = max(1, JACOBIAN_CHUNK_BYTES // max(1, n_points * widest * values.itemsize))
    jacobian = np.empty_like(values)
    for lo in range(0, m, per_chunk):
        hi = min(lo + per_chunk, m)
        grad = last_slope[:, lo:hi].T[:, :, None] * last.weight_t[lo:hi, None, :]
        grad += 0.0
        skip = skip_gradient(last, seeds[lo:hi])
        if skip is not None:
            grad += skip[:, None, :]
        for layer, slope in zip(reversed(hidden), reversed(slopes)):
            skip = skip_gradient(layer, grad)
            grad = np.matmul(grad * slope, layer.weight_t)
            if skip is not None:
                grad = grad + skip
        jacobian[:, lo:hi] = grad[:, :, 0].T
    return values, jacobian


class TabulatedEmbeddingSet:
    """Tabulated (compressed) versions of every embedding net.

    Parameters
    ----------
    fast_embeddings:
        exported :class:`FastMLP` embedding nets keyed by (centre, neighbour)
        type pair.
    s_max:
        upper end of the tabulated range of the switching function; s(r) is
        bounded by 1/r_cs so a safe default can be derived from the model
        cutoffs.
    n_points:
        number of grid nodes (the original implementation uses a stride of
        1e-2 split into a coarse and a fine table; a single uniform grid is
        enough to reproduce both the numerics and the cost structure).
    """

    def __init__(
        self,
        fast_embeddings: dict[tuple[int, int], FastMLP],
        s_max: float,
        n_points: int = 1024,
    ) -> None:
        if s_max <= 0:
            raise ValueError("s_max must be positive")
        if n_points < 4:
            raise ValueError("need at least 4 grid points")
        if not fast_embeddings:
            raise ValueError("need at least one embedding net to tabulate")
        self.s_max = float(s_max)
        self.n_points = int(n_points)
        self.tables: dict[tuple[int, int], _Table] = {}
        grid = np.linspace(0.0, self.s_max, self.n_points)
        for key, net in fast_embeddings.items():
            values, derivatives = analytic_input_jacobian(net, grid)
            self.tables[key] = _Table(grid=grid, values=values, derivatives=derivatives)
        self._build_stacked()

    # -- stacked multi-table layout (the production path) -----------------------
    def _build_stacked(self) -> None:
        """Stack every table into one packed node array for batched gathers.

        Node ``k`` of table slot ``p`` is the ``2M`` row ``[values_k |
        h * derivatives_k]`` at flat index ``p * n_points + k``, so
        interpolating a neighbour costs one fused gather per Hermite node
        regardless of which (centre, neighbour) table it reads.  The node
        derivatives are pre-scaled by the grid step (the ``d * h`` terms of
        the Hermite form), which drops two whole-array multiplies from every
        evaluation without changing a bit of the result.
        """
        keys = sorted(self.tables)
        self._slot_of = {key: slot for slot, key in enumerate(keys)}
        n_types = 1 + max(max(ti, tj) for ti, tj in keys)
        # row ti, column tj + 1 holds the slot of (ti, tj) (-1: no table);
        # column 0 is where padding (any type < 0) reads its slot 0
        self._slot_grid = np.full((n_types, n_types + 1), -1, dtype=np.int64)
        self._slot_grid[:, 0] = 0
        for (ti, tj), slot in self._slot_of.items():
            self._slot_grid[ti, tj + 1] = slot
        m = self.width
        grid = self.tables[keys[0]].grid
        h = float(grid[1] - grid[0])
        packed = np.empty((len(keys), self.n_points, 2 * m))
        for key, slot in self._slot_of.items():
            packed[slot, :, :m] = self.tables[key].values
            packed[slot, :, m:] = self.tables[key].derivatives * h
        packed = packed.reshape(len(keys) * self.n_points, 2 * m)
        self._grid = grid
        self._h = h
        #: the packed node array per compute dtype, plus its read-only
        #: overlapping window view (row i is the (2, 2M) node pair [i, i+1],
        #: so one fancy-index gathers all four Hermite operands
        #: [y0 | h*d0 | y1 | h*d1] of every element at once).  The float64
        #: master is entered here; :meth:`ensure_packed` casts each reduced
        #: copy once — the mixed-precision production path reads fp32 nodes,
        #: halving the gather bandwidth of every interpolation
        self._packed: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {
            np.dtype(np.float64): (packed, self._windows_over(packed))
        }
        #: :meth:`evaluate_batched` invocations per compute dtype — the
        #: regression probe that proves the table path honours the precision
        #: policy instead of silently running fp64
        self.eval_dtype_counts: dict[str, int] = {}
        #: how many reduced-precision packed-node copies were actually built —
        #: the cross-request cache-reuse probe of the serving engine: one
        #: build per dtype per table, however many batches read it
        self.packed_cache_builds = 0

    @staticmethod
    def _windows_over(packed: np.ndarray) -> np.ndarray:
        stride_row, stride_col = packed.strides
        return np.lib.stride_tricks.as_strided(
            packed,
            shape=(packed.shape[0] - 1, 2, packed.shape[1]),
            strides=(stride_row, stride_row, stride_col),
            writeable=False,
        )

    # reprolint: cold-path packed low-precision copies are built once per dtype and cached; steady-state evaluation gathers from the cache
    def ensure_packed(self, dtype) -> np.ndarray:
        """The packed node array at ``dtype``, cast once and cached.

        float64 returns the master table.  Lower precisions round the node
        values/derivatives a single time at build; every subsequent batched
        evaluation gathers directly from the reduced copy (no per-call
        downcast, half the memory traffic for fp32).
        """
        dt = np.dtype(dtype)
        entry = self._packed.get(dt)
        if entry is None:
            packed = self._packed[np.dtype(np.float64)][0].astype(dt)
            entry = (packed, self._windows_over(packed))
            self._packed[dt] = entry
            self.packed_cache_builds += 1
        return entry[0]

    def packed_dtypes(self) -> tuple[str, ...]:
        """Dtypes for which a packed node array exists (probe for tests)."""
        reduced = (dt for dt in self._packed if dt != np.dtype(np.float64))
        return ("fp64",) + tuple(sorted(_dtype_name(dt) for dt in reduced))

    @property
    def width(self) -> int:
        return next(iter(self.tables.values())).width

    def slot_index(self, center_type: int, neighbor_types: np.ndarray) -> np.ndarray:
        """Stacked-table slot of every neighbour entry for one centre type.

        Padding entries (type < 0) map to slot 0 — callers mask their
        contributions out, exactly as the per-type loop skipped them.
        """
        row = self._slot_grid[int(center_type)]
        try:
            slots = row[np.maximum(np.asarray(neighbor_types) + 1, 0)]
            tabulated = np.minimum.reduce(slots, axis=None, initial=0) >= 0
        except IndexError:  # a neighbour type past the table's type space
            tabulated = False
        if not tabulated:
            raise KeyError(f"no table for centre type {center_type} and some neighbour types")
        return slots

    # reprolint: hot-path
    def place(self, slots: np.ndarray, s: np.ndarray, dtype=np.float64) -> HermitePlacement:
        """Node placement and Hermite basis weights of every ``(slot, s)`` row.

        ``slots`` and ``s`` share any shape and are read flat.  The slot
        indices are free-form: nothing here assumes the rows belong to one
        system, so the serving batch path
        (:meth:`repro.deepmd.model.DeepPotential.evaluate_many`) places the
        concatenated rows of a whole multi-system batch at once.

        ``dtype`` is the compute precision of the interpolation
        (:attr:`PrecisionPolicy.compute_dtype` on the production path): the
        windows come from the packed node array at that dtype
        (:meth:`ensure_packed`; float64 is the master table) and the basis
        arithmetic and contractions run natively at that precision.  The node
        *placement* (grid index and the out-of-range clamp) is always
        resolved in float64 so every precision interpolates the same segment.

        Everything per-row that does not touch the M-wide node data happens
        here, once per call, so :meth:`HermitePlacement.interpolate` is only
        the gather and the two contractions.
        """
        dt = np.dtype(dtype)
        name = _dtype_name(dt)
        self.eval_dtype_counts[name] = self.eval_dtype_counts.get(name, 0) + 1
        self.ensure_packed(dt)
        windows = self._packed[dt][1]
        flat_s = np.asarray(s, dtype=np.float64).reshape(-1)
        flat_slots = np.asarray(slots, dtype=np.int64).reshape(-1)
        grid = self._grid
        h = dt.type(self._h)
        clamped = flat_s.clip(grid[0], grid[-1])
        idx = np.minimum((clamped - grid[0]) / self._h, len(grid) - 2).astype(int)  # reprolint: allow[alloc] fp64 node placement must produce a fresh int index array
        t = ((clamped - grid[idx]) / self._h)[:, None].astype(dt, copy=False)
        t2 = t * t
        t3 = t2 * t
        # the (n, 4) basis blocks, each column the golden's sum term for term
        # (``a + (-b)`` is ``a - b`` in IEEE arithmetic, so folding the signs
        # into the coefficient rows keeps every bit)
        value_c, deriv_c = _VALUE_TERMS.astype(dt, copy=False), _DERIV_TERMS.astype(dt, copy=False)
        value_weights = t3 * value_c[0]
        value_weights += t2 * value_c[1]
        value_weights[:, 0] += 1.0
        value_weights[:, 1] += t[:, 0]
        deriv_weights = t2 * deriv_c[0]
        deriv_weights += t * deriv_c[1]
        deriv_weights[:, 1] += 1.0
        deriv_weights /= h
        out_of_range = (flat_s < grid[0]) | (flat_s > grid[-1])
        return HermitePlacement(
            windows=windows,
            base=flat_slots * len(grid) + idx,
            value_weights=value_weights,
            deriv_weights=deriv_weights,
            clamped=out_of_range if np.logical_or.reduce(out_of_range) else None,
        )

    # reprolint: hot-path
    def evaluate_batched(
        self,
        slots: np.ndarray,
        s: np.ndarray,
        out_values: np.ndarray | None = None,
        out_derivatives: np.ndarray | None = None,
        dtype=np.float64,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated ``(G, dG/ds)`` where element ``i`` reads table ``slots[i]``.

        ``slots`` and ``s`` share any leading shape; the result appends the
        table width M.  ``out_values`` / ``out_derivatives`` are optional
        preallocated buffers of that output shape; outputs are written in
        place and returned.  Outside ``[0, s_max]`` the value clamps to the
        end node and the derivative is zero.

        This is :meth:`place` followed by :meth:`HermitePlacement.interpolate`
        over :data:`HERMITE_CHUNK_ROWS` row blocks, so the gathered operands
        stay cache-resident between the gather and the contractions — the
        kernel the model's compressed step drives block by block itself.
        """
        dt = np.dtype(dtype)
        placement = self.place(slots, s, dtype=dt)
        n_flat = len(placement.base)
        m = self.width

        if (out_values is None) != (out_derivatives is None):
            raise ValueError("out_values and out_derivatives must be provided together")
        shape = (*np.shape(s), m)
        if out_values is None:
            values = np.empty((n_flat, m), dtype=dt)  # reprolint: allow[alloc] out-less reference branch; the workspace path passes buffers
            derivs = np.empty((n_flat, m), dtype=dt)  # reprolint: allow[alloc] out-less reference branch; the workspace path passes buffers
        else:
            if out_values.dtype != dt or out_derivatives.dtype != dt:
                raise ValueError(f"out buffers must match the compute dtype {dt}")
            values = out_values.reshape(n_flat, m)
            derivs = out_derivatives.reshape(n_flat, m)
            if not (
                np.may_share_memory(values, out_values)
                and np.may_share_memory(derivs, out_derivatives)
            ):
                # a reshape that copies would silently drop every write
                raise ValueError("out buffers must reshape to views (C-contiguous)")

        for lo in range(0, n_flat, HERMITE_CHUNK_ROWS):
            hi = min(lo + HERMITE_CHUNK_ROWS, n_flat)
            placement.interpolate(lo, hi, values[lo:hi], derivs[lo:hi])

        if out_values is None:
            return values.reshape(shape), derivs.reshape(shape)
        return out_values, out_derivatives

    # -- compression-quality metrics ---------------------------------------------
    def interpolation_errors(self, key: tuple[int, int], net: FastMLP, rng=None) -> InterpolationErrors:
        """Max value and derivative error vs the exact net over
        :data:`INTERPOLATION_SAMPLES` random samples.

        The derivative reference is the analytic input-Jacobian of the net,
        so the metric covers the quantity the force computation consumes, not
        just the energy side.
        """
        rng = np.random.default_rng(rng)
        s = rng.uniform(0.0, self.s_max, size=INTERPOLATION_SAMPLES)
        exact, exact_deriv = analytic_input_jacobian(net, s)
        approx, approx_deriv = self.evaluate_batched(np.full(INTERPOLATION_SAMPLES, self._slot_of[key]), s)
        return InterpolationErrors(
            value=float(np.max(np.abs(exact - approx))),
            derivative=float(np.max(np.abs(exact_deriv - approx_deriv))),
        )
