"""Feature tensor generation (paper Section 3).

The four steps of the paper, verbatim:

1. divide the clip into ``n x n`` sub-regions (blocks);
2. 2-D DCT each ``B x B`` block (``B = N / n`` pixels);
3. zig-zag flatten each block's coefficients;
4. keep the first ``k << B*B`` coefficients and stack the truncated vectors
   back at their block positions, producing a tensor ``F in R^{n x n x k}``.

Figure 1's running example: a 1200 x 1200 nm clip at 1 nm/px, ``n = 12``,
blocks of 100 x 100 px. :meth:`FeatureTensorExtractor.decode` inverts the
construction (zero-filling dropped coefficients), which is the paper's
"an approximation of I can be recovered from F" property; with
``k = B*B`` the round-trip is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import FeatureError
from repro.geometry.clip import Clip
from repro.features.dct import block_dct, block_idct


@dataclass(frozen=True)
class FeatureTensorConfig:
    """Feature-tensor hyper-parameters.

    Attributes
    ----------
    block_count:
        ``n``: blocks per side (12 in the paper's example).
    coefficients:
        ``k``: DCT coefficients kept per block. The paper leaves k
        unstated; 32 reproduces the 12 x 12 x k -> conv(16) pipeline of the
        authors' follow-up work and is ablated in the benchmarks.
    pixel_nm:
        Rasterisation resolution. 1 nm/px matches the paper's example;
        coarser values trade fidelity for speed and are used in tests.

    Every feature is computed by :func:`~repro.features.dct.block_dct`.
    Configs and checkpoints written while a ``dct_backend`` field existed
    (``"scipy"`` or ``"matmul"``) still load:
    :meth:`~repro.core.config.DetectorConfig.from_dict` drops the field.
    Their features now come from the kernel, which stays within one
    float32 ulp (plus 1e-10) of the scipy oracle, so a migrated model
    scores the coefficients it was trained on to that tolerance.
    """

    block_count: int = 12
    coefficients: int = 32
    pixel_nm: int = 1

    def __post_init__(self) -> None:
        if self.block_count < 1:
            raise FeatureError(f"block_count must be >= 1, got {self.block_count}")
        if self.coefficients < 1:
            raise FeatureError(
                f"coefficients must be >= 1, got {self.coefficients}"
            )
        if self.pixel_nm < 1:
            raise FeatureError(f"pixel_nm must be >= 1, got {self.pixel_nm}")

    def block_size_px(self, clip_size_nm: int) -> int:
        """``B``: pixels per block side for a clip of the given size."""
        size_px = clip_size_nm // self.pixel_nm
        if clip_size_nm % self.pixel_nm:
            raise FeatureError(
                f"clip size {clip_size_nm} nm not divisible by pixel "
                f"{self.pixel_nm} nm"
            )
        if size_px % self.block_count:
            raise FeatureError(
                f"raster size {size_px} px not divisible into "
                f"{self.block_count} blocks"
            )
        block = size_px // self.block_count
        if self.coefficients > block * block:
            raise FeatureError(
                f"k={self.coefficients} exceeds block capacity "
                f"{block * block} (B={block})"
            )
        return block


def encode_block_grid(image: np.ndarray, block: int, k: int) -> np.ndarray:
    """DCT + zig-zag + truncate every ``block x block`` tile of ``image``.

    The shared entry point of per-clip encoding and the full-chip sliding
    extractor: the image (square or rectangular, each dimension a
    multiple of ``block``) is cut on the fixed block grid and each block is
    reduced to its first ``k`` zig-zag DCT coefficients by
    :func:`~repro.features.dct.block_dct`, one block-row band at a time.
    Returns float32 ``(rows, cols, k)`` with ``rows = H // block``.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise FeatureError(f"expected one (H, W) image, got shape {image.shape}")
    return block_dct(image[None], block, k)[0]


def encode_image_batch(images: np.ndarray, block: int, k: int) -> np.ndarray:
    """Vectorised :func:`encode_block_grid` over a stack of images.

    ``images`` is ``(N, H, W)`` with each dimension a multiple of
    ``block``; returns ``(N, rows, cols, k)``. Each band is encoded for
    the whole stack at once — the path behind active-learning pool
    embeddings, where thousands of clips are encoded together — and each
    slice ``out[i]`` equals ``encode_block_grid(images[i], ...)`` bit for
    bit.
    """
    return block_dct(images, block, k)


class FeatureTensorExtractor:
    """Encodes clips to feature tensors and decodes them back to images."""

    name = "feature_tensor"

    def __init__(self, config: FeatureTensorConfig = FeatureTensorConfig()):
        self.config = config

    @property
    def output_shape(self) -> Tuple[int, int, int]:
        """``(n, n, k)`` — the paper's tensor layout."""
        n = self.config.block_count
        return (n, n, self.config.coefficients)

    # ------------------------------------------------------------------
    def extract(self, clip: Clip) -> np.ndarray:
        """Feature tensor of ``clip`` with shape ``(n, n, k)``."""
        image = clip.rasterize(resolution=self.config.pixel_nm)
        return self.encode_image(image)

    def extract_batch(self, clips) -> np.ndarray:
        """Feature tensors for a sequence of clips, shape ``(N, n, n, k)``.

        All clips are rasterised once and encoded in a single
        :func:`encode_image_batch` call, so embedding a whole unlabelled
        pool costs one batched pass instead of N per-clip pipelines. Clips must share one window
        size; each row equals :meth:`extract` of the same clip.
        """
        clips = list(clips)
        if not clips:
            raise FeatureError("cannot extract features from zero clips")
        images = [clip.rasterize(resolution=self.config.pixel_nm) for clip in clips]
        shapes = {image.shape for image in images}
        if len(shapes) != 1:
            raise FeatureError(
                f"clips rasterise to mixed shapes {sorted(shapes)}; "
                "batch extraction needs one clip size"
            )
        stack = np.stack(images)
        n = self.config.block_count
        h = stack.shape[1]
        if h != stack.shape[2]:
            raise FeatureError(f"images must be square, got {stack.shape[1:]}")
        if h % n:
            raise FeatureError(f"image side {h} not divisible into {n} blocks")
        return encode_image_batch(stack, h // n, self.config.coefficients)

    def encode_image(self, image: np.ndarray) -> np.ndarray:
        """Encode a pre-rasterised square image to an ``(n, n, k)`` tensor."""
        n = self.config.block_count
        k = self.config.coefficients
        h, w = image.shape
        if h != w:
            raise FeatureError(f"image must be square, got {image.shape}")
        if h % n:
            raise FeatureError(f"image side {h} not divisible into {n} blocks")
        return encode_block_grid(image, h // n, k)

    def decode(self, tensor: np.ndarray, clip_size_nm: int) -> np.ndarray:
        """Reconstruct the (approximate) clip image from a feature tensor.

        Dropped high-frequency coefficients are zero-filled; with
        ``k = B*B`` the reconstruction is exact (orthonormal DCT).
        """
        n = self.config.block_count
        if tensor.shape[:2] != (n, n):
            raise FeatureError(
                f"tensor grid {tensor.shape[:2]} does not match n={n}"
            )
        block = self.config.block_size_px(clip_size_nm)
        image = block_idct(tensor[None], block)[0]
        return image.astype(np.float32)

    # ------------------------------------------------------------------
    def compression_ratio(self, clip_size_nm: int) -> float:
        """Raster pixels per tensor element — the paper's 'compression'."""
        block = self.config.block_size_px(clip_size_nm)
        return (block * block) / float(self.config.coefficients)

    def reconstruction_error(self, clip: Clip) -> float:
        """RMS error between the clip raster and its decode(encode(...))."""
        image = clip.rasterize(resolution=self.config.pixel_nm)
        recovered = self.decode(self.extract(clip), clip.size)
        return float(np.sqrt(np.mean((image - recovered) ** 2)))
