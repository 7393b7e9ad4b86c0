"""2-D discrete cosine transform: the block-DCT feature kernel and its oracle.

Pinned to the type-II transform with orthonormal scaling, so that
``idct2(dct2(x)) == x`` exactly (up to floating point) and Parseval's
identity holds — properties the feature tensor's invertibility claim
rests on, and which the test suite checks.

The paper's Step 2 writes the unnormalised type-II DCT; the normalisation
choice only rescales coefficients and does not change which ones are kept.

:func:`block_dct` is the only feature path. The feature tensor keeps the
first ``k`` zig-zag coefficients of each ``B x B`` block, and those all
sit in the top-left ``u x v`` corner of the block's spectrum (``u`` and
``v`` are one more than the largest zig-zag row and column index among
the first ``k``: 8 x 8 for ``k = 32``). The orthonormal DCT is separable,
``C = D @ X @ D.T`` for the basis ``D`` of :func:`dct_basis`, so that
corner is ``D[:u] @ X @ D[:v].T``. For each block-row band of the image
the kernel runs one GEMM down the rows (``D[:u]`` times the ``B x W``
band), one GEMM across the columns of every block in the band at once,
and a gather of the ``k`` zig-zag entries. Its working set is one float64
band (or 1 MiB of small-block bands); the full ``B x B`` spectrum is
never formed. :func:`block_idct` is its adjoint (the zero-filled
inverse) and serves feature-tensor decode.

:func:`dct2` and :func:`idct2` wrap :func:`scipy.fft.dctn` /
:func:`scipy.fft.idctn`. They are the reference the tests hold the kernel
to; no encode or decode path calls them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import fft as sp_fft

from repro.exceptions import FeatureError
from repro.features.zigzag import zigzag_indices


# ----------------------------------------------------------------------
# Basis matrices
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def dct_basis(block_size: int) -> np.ndarray:
    """Orthonormal type-II DCT basis ``B`` for ``block_size`` points.

    ``B @ x`` equals ``scipy.fft.dct(x, type=2, norm="ortho")`` and
    ``B.T`` is the inverse transform (the matrix is orthogonal). Cached
    and returned read-only; copy before mutating.
    """
    if block_size < 1:
        raise FeatureError(f"block size must be >= 1, got {block_size}")
    n = block_size
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * i / (2 * n))
    basis[0, :] *= np.sqrt(0.5)
    basis.setflags(write=False)
    return basis


class TruncatedDCT(NamedTuple):
    """What :func:`block_dct` needs to keep ``k`` coefficients of a block.

    ``row_basis`` is ``dct_basis(B)[:u]`` and ``col_basis`` is
    ``dct_basis(B)[:v]``; coefficient ``i`` of the zig-zag scan is entry
    ``(rows[i], cols[i])`` of the ``u x v`` spectrum corner.
    """

    row_basis: np.ndarray
    col_basis: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


@lru_cache(maxsize=None)
def truncated_dct(block_size: int, k: int) -> TruncatedDCT:
    """Cached, read-only :class:`TruncatedDCT` for ``k`` of ``B*B`` terms."""
    if not 1 <= k <= block_size * block_size:
        raise FeatureError(
            f"k={k} outside [1, {block_size * block_size}] for B={block_size}"
        )
    basis = dct_basis(block_size)
    zig_rows, zig_cols = zigzag_indices(block_size)
    rows = zig_rows[:k].copy()
    cols = zig_cols[:k].copy()
    plan = TruncatedDCT(
        row_basis=np.ascontiguousarray(basis[: rows.max() + 1]),
        col_basis=np.ascontiguousarray(basis[: cols.max() + 1]),
        rows=rows,
        cols=cols,
    )
    for array in plan:
        array.setflags(write=False)
    return plan


#: Float64 bytes :func:`block_dct` converts per step. A step is one band
#: at the default geometry (100 x 1600 px is 1.25 MiB) and many bands of
#: small blocks, whose few-KiB bands would otherwise spend more time in
#: per-call overhead than in the GEMMs.
_BANDS_BYTES = 1 << 20


# ----------------------------------------------------------------------
# The feature kernel
# ----------------------------------------------------------------------
def block_dct(images: np.ndarray, block: int, k: int) -> np.ndarray:
    """First ``k`` zig-zag DCT coefficients of every block of every image.

    ``images`` is ``(N, H, W)`` with ``H`` and ``W`` multiples of
    ``block``; returns float32 ``(N, H // block, W // block, k)``, equal
    to ``zigzag_flatten(dct2(blocks))[..., :k]`` within one float32 ulp
    (plus 1e-10). Each image goes through the same BLAS calls as it would
    alone, so ``block_dct(images)[i]`` equals ``block_dct(images[i:i+1])[0]``
    bit for bit. Likewise each block-row band goes through the same BLAS
    calls at the image's width however many bands a step groups, so a
    run of rows cut from the images encodes to the matching rows of the
    whole: ``block_dct(images[:, r0 * block : r1 * block])`` equals
    ``block_dct(images)[:, r0:r1]`` bit for bit (what lets the sliding
    extractor re-encode only the block rows an edit touched).
    """
    images = np.asarray(images)
    if images.ndim != 3:
        raise FeatureError(
            f"expected (N, H, W) image stack, got shape {images.shape}"
        )
    n, height, width = images.shape
    if block < 1:
        raise FeatureError(f"block size must be >= 1, got {block}")
    if height % block or width % block:
        raise FeatureError(
            f"images {height}x{width} not divisible into {block}-pixel blocks"
        )
    rows, cols = height // block, width // block
    plan = truncated_dct(block, k)
    u, v = len(plan.row_basis), len(plan.col_basis)
    col_basis_t = plan.col_basis.T
    band_bytes = max(1, n * block * width * np.dtype(np.float64).itemsize)
    step = max(1, min(rows, _BANDS_BYTES // band_bytes))
    out = np.empty((n, rows, cols, k), dtype=np.float32)
    buffer = np.empty((n, step, block, width))
    for r0 in range(0, rows, step):
        r1 = min(rows, r0 + step)
        bands = buffer[:, : r1 - r0]
        np.copyto(
            bands, images[:, r0 * block : r1 * block].reshape(bands.shape)
        )
        # Down the rows of every block in a band: (u, B) @ (B, W).
        left = plan.row_basis @ bands
        # Across the columns of each block: (u * cols, B) @ (B, v).
        corner = left.reshape(n, r1 - r0, u * cols, block) @ col_basis_t
        corner = corner.reshape(n, r1 - r0, u, cols, v)
        # Zig-zag gather of the kept entries: (k, N, bands, cols) puts k
        # first, so move it last.
        kept = corner[:, :, plan.rows, :, plan.cols]
        out[:, r0:r1] = kept.transpose(1, 2, 3, 0)
    return out


def block_idct(coefficients: np.ndarray, block: int) -> np.ndarray:
    """Adjoint of :func:`block_dct`: the zero-filled inverse DCT.

    ``coefficients`` is ``(N, rows, cols, k)``; returns float64
    ``(N, rows * block, cols * block)``, each block rebuilt from its
    first ``k`` zig-zag coefficients with the rest taken as zero. With
    ``k = block**2`` it inverts :func:`block_dct` exactly (up to the
    float32 storage of the coefficients).
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients.ndim != 4:
        raise FeatureError(
            f"expected (N, rows, cols, k) coefficients, got shape "
            f"{coefficients.shape}"
        )
    n, rows, cols, k = coefficients.shape
    plan = truncated_dct(block, k)
    u, v = len(plan.row_basis), len(plan.col_basis)
    corner = np.zeros((n, rows, u, cols, v))
    corner[:, :, plan.rows, :, plan.cols] = coefficients.transpose(3, 0, 1, 2)
    across = corner.reshape(n, rows * u * cols, v) @ plan.col_basis
    image = plan.row_basis.T @ across.reshape(n, rows, u, cols * block)
    return image.reshape(n, rows * block, cols * block)


# ----------------------------------------------------------------------
# The scipy reference
# ----------------------------------------------------------------------
def dct2(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D type-II DCT over the last two axes (scipy)."""
    return sp_fft.dctn(block, type=2, norm="ortho", axes=(-2, -1))


def idct2(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct2` (orthonormal 2-D type-III DCT, scipy)."""
    return sp_fft.idctn(coefficients, type=2, norm="ortho", axes=(-2, -1))


def dc_coefficient_scale(block_size: int) -> float:
    """Factor linking a block's mean to its DC coefficient.

    For the orthonormal DCT of a ``B x B`` block, ``C[0, 0] = B * mean``;
    exposed for tests and for density-style interpretations of the DC term.
    """
    return float(block_size)


def energy(x: np.ndarray) -> float:
    """Sum of squares — preserved by the orthonormal DCT (Parseval)."""
    return float(np.sum(np.square(x)))
