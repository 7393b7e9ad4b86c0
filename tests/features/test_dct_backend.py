"""Tests for the block-DCT feature kernel against the scipy oracle.

:func:`repro.features.dct.block_dct` is the only feature path; the
reference it is held to is ``zigzag_flatten(dct2(blocks))[..., :k]``
computed with :func:`scipy.fft.dctn`. The kernel stores float32 and sums
in a different order, so it must match the oracle within one float32
ulp plus 1e-10: ``|kernel - oracle| <= 1e-10 + 2**-22 * |oracle|``.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.fft as sp_fft
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DetectorConfig
from repro.exceptions import ConfigError, FeatureError
from repro.features.dct import (
    block_dct,
    block_idct,
    dct2,
    dct_basis,
    idct2,
    truncated_dct,
)
from repro.features.tensor import (
    FeatureTensorConfig,
    FeatureTensorExtractor,
    encode_block_grid,
    encode_image_batch,
)
from repro.features.zigzag import zigzag_flatten, zigzag_unflatten

BLOCK_SIZES = [4, 6, 8, 12, 16]


def as_blocks(images, block):
    """``(N, H, W)`` -> float64 ``(N, rows, cols, block, block)``."""
    n, h, w = images.shape
    return (
        np.asarray(images, dtype=np.float64)
        .reshape(n, h // block, block, w // block, block)
        .transpose(0, 1, 3, 2, 4)
    )


def from_blocks(blocks):
    """Inverse of :func:`as_blocks`."""
    n, rows, cols, block, _ = blocks.shape
    return blocks.transpose(0, 1, 3, 2, 4).reshape(n, rows * block, cols * block)


def oracle(images, block, k):
    """The scipy reference: full DCT, zig-zag scan, first ``k`` terms."""
    return zigzag_flatten(dct2(as_blocks(images, block)))[..., :k]


def assert_within_ulp(got, reference):
    assert got.dtype == np.float32
    assert got.shape == reference.shape
    excess = np.abs(got - reference) - (1e-10 + 2.0**-22 * np.abs(reference))
    assert excess.max() <= 0, f"worst excess {excess.max():.3g}"


def images_of(kind, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "binary":
        # Rasterised layout: 0/1 coverage, stored float32.
        return (rng.random(shape) < 0.4).astype(np.float32)
    return rng.random(shape) * 255.0


class TestMatmulBackendExactness:
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_basis_is_orthonormal(self, n):
        basis = dct_basis(n)
        assert np.allclose(basis @ basis.T, np.eye(n), atol=1e-12)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_dct2_matches_scipy(self, n):
        # At k = B*B the kernel computes the whole spectrum.
        block = np.random.default_rng(n).random((1, n, n)) * 100.0
        spectrum = zigzag_unflatten(
            block_dct(block, n, n * n)[0, 0, 0].astype(np.float64), n
        )
        reference = sp_fft.dctn(block[0], type=2, norm="ortho", axes=(-2, -1))
        assert np.allclose(spectrum, reference, rtol=2.0**-22, atol=1e-10)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_idct2_matches_scipy(self, n):
        coeffs = np.random.default_rng(n + 1).random((n, n))
        rebuilt = block_idct(zigzag_flatten(coeffs)[None, None, None], n)
        reference = sp_fft.idctn(coeffs, type=2, norm="ortho", axes=(-2, -1))
        assert np.allclose(rebuilt[0], reference, atol=1e-10)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_round_trip_is_identity(self, n):
        # Exact in float64; block_dct's float32 storage bounds the error.
        block = np.random.default_rng(n + 2).random((1, n, n))
        exact = zigzag_flatten(dct2(block))[None, None]
        assert np.allclose(block_idct(exact, n), block, atol=1e-10)
        stored = block_dct(block, n, n * n)
        assert np.allclose(block_idct(stored, n), block, atol=1e-6)

    def test_batched_blocks(self):
        images = np.random.default_rng(0).random((3, 16, 24))
        assert_within_ulp(block_dct(images, 8, 64), oracle(images, 8, 64))


class TestTruncatedOperator:
    @pytest.mark.parametrize("n,k", [(4, 5), (8, 16), (12, 32), (16, 100)])
    def test_matches_dctn_plus_zigzag(self, n, k):
        blocks = np.random.default_rng(k).random((3, n, n)) * 10.0
        fused = block_dct(blocks, n, k)
        assert fused.shape == (3, 1, 1, k)
        assert_within_ulp(fused, oracle(blocks, n, k))

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_full_rank_round_trip(self, n):
        # k = B*B keeps every coefficient: the adjoint reconstructs each
        # block of a multi-block image up to float32 storage.
        image = np.random.default_rng(n).random((1, 2 * n, 3 * n))
        coefficients = block_dct(image, n, n * n)
        assert np.allclose(block_idct(coefficients, n), image, atol=1e-6)

    def test_truncated_decode_matches_zigzag_unflatten(self):
        n, k = 8, 10
        coeffs = np.random.default_rng(1).random((1, 2, 2, k))
        fused = block_idct(coeffs, n)
        reference = from_blocks(idct2(zigzag_unflatten(coeffs, n)))
        assert np.allclose(fused, reference, atol=1e-10)

    @pytest.mark.parametrize("k", [0, -1, 17])
    def test_k_out_of_range_raises(self, k):
        with pytest.raises(FeatureError):
            truncated_dct(4, k)
        with pytest.raises(FeatureError):
            block_dct(np.zeros((1, 8, 8)), 4, k)

    def test_operator_is_read_only(self):
        for array in truncated_dct(4, 4):
            with pytest.raises(ValueError):
                array[0] = 1


class TestBackendPlumbing:
    def test_config_rejects_unknown_backend(self):
        # The knob is gone; stored configs may name a retired backend
        # ("scipy" / "matmul"), never an unknown one.
        with pytest.raises(TypeError):
            FeatureTensorConfig(dct_backend="matmul")
        data = DetectorConfig().to_dict()
        data["feature"]["dct_backend"] = "fftw"
        with pytest.raises(ConfigError):
            DetectorConfig.from_dict(data)


class TestFeatureBuildEquivalence:
    def test_encode_block_grid_backends_agree(self):
        # The kernel and the scipy reference agree to one float32 ulp.
        image = np.random.default_rng(3).random((48, 48)) * 255.0
        assert_within_ulp(
            encode_block_grid(image, 12, 32), oracle(image[None], 12, 32)[0]
        )

    def test_extractor_encode_decode_backends_agree(self):
        image = np.random.default_rng(4).random((48, 48))
        extractor = FeatureTensorExtractor(
            FeatureTensorConfig(block_count=4, coefficients=9)
        )
        tensor = extractor.encode_image(image)
        assert_within_ulp(tensor, oracle(image[None], 12, 9)[0])
        reference = from_blocks(
            idct2(zigzag_unflatten(tensor.astype(np.float64), 12))[None]
        )[0]
        decoded = extractor.decode(tensor, 48)
        assert decoded.dtype == np.float32
        assert np.allclose(decoded, reference, atol=1e-6)

    def test_full_k_round_trip_matmul(self):
        # With k = B*B the encode/decode pair is an exact identity up to
        # the float32 storage cast.
        image = np.random.default_rng(5).random((8, 8)).astype(np.float32)
        config = FeatureTensorConfig(block_count=2, coefficients=16)
        extractor = FeatureTensorExtractor(config)
        decoded = extractor.decode(extractor.encode_image(image), 8)
        assert np.allclose(decoded, image, atol=1e-4)


#: (block, k, height, width): k = 1; k ending mid-diagonal (5 takes two
#: of the third diagonal's three; 32 at B = 100, the default geometry,
#: takes four of the eighth's eight; 28 of 36 at B = 6 stops halfway
#: along a diagonal past the main anti-diagonal); k = B*B; and
#: rectangular, tile-shaped images.
ORACLE_CASES = [
    (8, 1, 16, 24),
    (4, 5, 8, 8),
    (6, 28, 12, 18),
    (6, 36, 18, 12),
    (12, 32, 48, 72),
    (100, 32, 200, 300),
]


class TestOracleMatrix:
    @pytest.mark.parametrize("kind", ["binary", "real"])
    @pytest.mark.parametrize("block,k,height,width", ORACLE_CASES)
    def test_kernel_matches_oracle(self, block, k, height, width, kind):
        images = images_of(kind, (3, height, width), seed=block * k)
        assert_within_ulp(block_dct(images, block, k), oracle(images, block, k))

    @pytest.mark.parametrize("kind", ["binary", "real"])
    @pytest.mark.parametrize("block,k,height,width", ORACLE_CASES)
    def test_batch_equals_per_image_bitwise(self, block, k, height, width, kind):
        images = images_of(kind, (3, height, width), seed=block + k)
        batched = encode_image_batch(images, block, k)
        for i, image in enumerate(images):
            assert np.array_equal(batched[i], encode_block_grid(image, block, k))


@st.composite
def band_cases(draw):
    """A stack of images and a run ``[r0, r1)`` of its block rows."""
    block = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 10, 12, 30]))
    k = draw(st.integers(1, min(block * block, 40)))
    rows = draw(st.integers(1, 20))
    cols = draw(st.integers(1, 8))
    r0 = draw(st.integers(0, rows - 1))
    r1 = draw(st.integers(r0 + 1, rows))
    n = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["binary", "real"]))
    seed = draw(st.integers(0, 2**16))
    images = images_of(kind, (n, rows * block, cols * block), seed)
    return images, block, k, r0, r1


class TestBandExactness:
    """``block_dct`` encodes each block-row band with the same BLAS calls
    at the image's width, so the block rows of a band cut from an image
    are bit for bit the matching rows of the whole image's encoding —
    the guarantee band-granular tile re-encoding rests on."""

    @settings(max_examples=150, deadline=None)
    @given(case=band_cases())
    def test_band_equals_rows_of_whole_bitwise(self, case):
        images, block, k, r0, r1 = case
        band = block_dct(images[:, r0 * block : r1 * block], block, k)
        assert np.array_equal(band, block_dct(images, block, k)[:, r0:r1])

    @pytest.mark.parametrize(
        "block,rows,cols",
        [(100, 16, 16), (100, 16, 7), (10, 30, 30), (4, 64, 64)],
    )
    def test_scan_geometries(self, block, rows, cols):
        k = min(32, block * block)
        shape = (1, rows * block, cols * block)
        images = images_of("binary", shape, seed=rows)
        whole = block_dct(images, block, k)
        for r0, r1 in [(0, 1), (3, 8), (rows - 2, rows), (0, rows)]:
            band = block_dct(images[:, r0 * block : r1 * block], block, k)
            assert np.array_equal(band, whole[:, r0:r1])


class TestWorkingSet:
    def test_tile_encode_stays_within_one_band(self):
        # One 1600 x 1600 float32 tile at B = 100, k = 32: the kernel
        # holds one float64 band (100 x 1600), never a float64 copy of
        # the tile. Bound: a quarter of that copy.
        tile = images_of("binary", (1600, 1600), seed=7)
        encode_block_grid(tile[:100, :100], 100, 32)  # warm the plan cache
        tracemalloc.start()
        try:
            encode_block_grid(tile, 100, 32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        float64_tile = tile.size * np.dtype(np.float64).itemsize
        assert peak < float64_tile / 4
