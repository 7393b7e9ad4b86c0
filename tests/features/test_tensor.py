"""Tests for feature tensor generation (paper Section 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FeatureError
from repro.features.dct import dct2
from repro.features.tensor import FeatureTensorConfig, FeatureTensorExtractor
from repro.features.zigzag import zigzag_flatten
from repro.geometry.clip import Clip
from repro.geometry.rect import Rect

WINDOW = Rect(0, 0, 240, 240)


def make_clip():
    return Clip(
        WINDOW,
        (Rect(20, 20, 60, 220), Rect(100, 40, 140, 200), Rect(180, 20, 220, 120)),
    )


def small_extractor(k=16):
    # 240 nm clip at 4 nm/px -> 60 px; 12 blocks of 5 px.
    return FeatureTensorExtractor(
        FeatureTensorConfig(block_count=12, coefficients=k, pixel_nm=4)
    )


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = FeatureTensorConfig()
        assert cfg.block_count == 12
        assert cfg.pixel_nm == 1
        assert cfg.block_size_px(1200) == 100

    def test_validation(self):
        with pytest.raises(FeatureError):
            FeatureTensorConfig(block_count=0)
        with pytest.raises(FeatureError):
            FeatureTensorConfig(coefficients=0)
        with pytest.raises(FeatureError):
            FeatureTensorConfig(pixel_nm=0)

    def test_indivisible_raster_raises(self):
        cfg = FeatureTensorConfig(block_count=7, pixel_nm=1)
        with pytest.raises(FeatureError):
            cfg.block_size_px(1200)

    def test_k_exceeding_block_raises(self):
        cfg = FeatureTensorConfig(block_count=12, coefficients=26, pixel_nm=4)
        with pytest.raises(FeatureError):
            cfg.block_size_px(240)  # blocks are 5x5 = 25 < 26


class TestEncode:
    def test_output_shape(self):
        ext = small_extractor()
        assert ext.output_shape == (12, 12, 16)
        assert ext.extract(make_clip()).shape == (12, 12, 16)
        assert ext.extract(make_clip()).dtype == np.float32

    def test_dc_channel_tracks_block_density(self):
        ext = small_extractor()
        tensor = ext.extract(make_clip())
        image = make_clip().rasterize(resolution=4)
        blocks = image.reshape(12, 5, 12, 5).transpose(0, 2, 1, 3)
        means = blocks.mean(axis=(2, 3))
        # Orthonormal DC = B * mean with B = 5.
        assert np.allclose(tensor[..., 0], means * 5, atol=1e-5)

    def test_empty_clip_zero_tensor(self):
        ext = small_extractor()
        tensor = ext.extract(Clip(WINDOW))
        assert np.abs(tensor).max() == 0.0

    def test_spatial_structure_preserved(self):
        # Pattern only in the left half -> right-half DC entries are zero.
        clip = Clip(WINDOW, (Rect(0, 0, 120, 240),))
        tensor = small_extractor().extract(clip)
        assert np.abs(tensor[:, :6, 0]).min() > 0
        assert np.abs(tensor[:, 6:, 0]).max() == 0.0

    def test_encode_image_requires_square(self):
        with pytest.raises(FeatureError):
            small_extractor().encode_image(np.zeros((60, 50)))

    def test_encode_image_requires_divisible(self):
        with pytest.raises(FeatureError):
            small_extractor().encode_image(np.zeros((61, 61)))


class TestBatchEncode:
    def make_clips(self):
        rng = np.random.default_rng(8)
        clips = []
        for _ in range(5):
            rects = tuple(
                Rect(x, y, x + w, y + h)
                for x, y, w, h in zip(
                    rng.integers(0, 180, 3),
                    rng.integers(0, 180, 3),
                    rng.integers(8, 60, 3),
                    rng.integers(8, 60, 3),
                )
            )
            clips.append(Clip(WINDOW, rects))
        return clips

    @staticmethod
    def assert_matches_scipy(got, image, block, k):
        """``got`` is within one float32 ulp (plus 1e-10) of the oracle:
        scipy's full DCT per block, zig-zag, first ``k`` terms."""
        h, w = image.shape
        blocks = image.reshape(h // block, block, w // block, block)
        blocks = blocks.transpose(0, 2, 1, 3).astype(np.float64)
        expected = zigzag_flatten(dct2(blocks))[..., :k]
        tolerance = 1e-10 + 2.0**-22 * np.abs(expected)
        assert np.all(np.abs(got - expected) <= tolerance)

    @pytest.mark.parametrize("reference", ["scipy", "matmul"])
    def test_encode_image_batch_matches_per_image(self, reference):
        # "matmul": the per-image kernel, bit for bit. "scipy": the
        # per-image oracle.
        from repro.features.tensor import encode_block_grid, encode_image_batch

        rng = np.random.default_rng(3)
        images = rng.normal(size=(4, 20, 20))
        batched = encode_image_batch(images, block=5, k=7)
        assert batched.shape == (4, 4, 4, 7)
        for i, image in enumerate(images):
            if reference == "matmul":
                assert np.array_equal(batched[i], encode_block_grid(image, 5, 7))
            else:
                self.assert_matches_scipy(batched[i], image, 5, 7)

    def test_backends_agree(self):
        # The batch kernel and the scipy reference agree on a stack of
        # rectangular images.
        from repro.features.tensor import encode_image_batch

        images = np.random.default_rng(4).normal(size=(3, 15, 25))
        batched = encode_image_batch(images, block=5, k=9)
        assert batched.shape == (3, 3, 5, 9)
        for i, image in enumerate(images):
            self.assert_matches_scipy(batched[i], image, 5, 9)

    def test_extract_batch_rows_equal_extract(self):
        ext = small_extractor()
        clips = self.make_clips()
        batched = ext.extract_batch(clips)
        assert batched.shape == (len(clips),) + ext.output_shape
        for i, clip in enumerate(clips):
            assert np.array_equal(batched[i], ext.extract(clip))

    def test_extract_batch_validation(self):
        from repro.features.tensor import encode_image_batch

        ext = small_extractor()
        with pytest.raises(FeatureError):
            ext.extract_batch([])
        mixed = [
            Clip(WINDOW, (Rect(10, 10, 30, 30),)),
            Clip(Rect(0, 0, 480, 480), (Rect(10, 10, 30, 30),)),
        ]
        with pytest.raises(FeatureError):
            ext.extract_batch(mixed)
        with pytest.raises(FeatureError):
            encode_image_batch(np.zeros((4, 4)), block=2, k=2)
        with pytest.raises(FeatureError):
            encode_image_batch(np.zeros((2, 5, 5)), block=2, k=2)
        with pytest.raises(FeatureError):
            encode_image_batch(np.zeros((2, 4, 4)), block=2, k=5)


class TestDecode:
    def test_exact_roundtrip_with_full_k(self):
        ext = FeatureTensorExtractor(
            FeatureTensorConfig(block_count=12, coefficients=25, pixel_nm=4)
        )
        clip = make_clip()
        image = clip.rasterize(resolution=4)
        recovered = ext.decode(ext.extract(clip), clip.size)
        assert np.allclose(recovered, image, atol=1e-5)

    def test_truncated_roundtrip_small_error(self):
        ext = small_extractor(k=16)
        clip = make_clip()
        assert ext.reconstruction_error(clip) < 0.25

    def test_error_monotone_in_k(self):
        clip = make_clip()
        errors = [
            small_extractor(k).reconstruction_error(clip) for k in (4, 9, 16, 25)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(errors[:-1], errors[1:]))
        assert errors[-1] == pytest.approx(0.0, abs=1e-6)

    def test_decode_validates_grid(self):
        ext = small_extractor()
        with pytest.raises(FeatureError):
            ext.decode(np.zeros((10, 10, 16)), 240)

    def test_compression_ratio(self):
        assert small_extractor(k=5).compression_ratio(240) == pytest.approx(5.0)
        paper = FeatureTensorExtractor()
        assert paper.compression_ratio(1200) == pytest.approx(10000 / 32)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 25))
    def test_roundtrip_error_bounded_by_parseval(self, k):
        # RMS reconstruction error^2 = dropped-coefficient energy / N^2,
        # which is at most total energy / N^2 <= max|I|^2 = 1.
        ext = small_extractor(k)
        clip = make_clip()
        assert 0.0 <= ext.reconstruction_error(clip) <= 1.0


class TestScalerIntegration:
    def test_channel_scaler_roundtrip(self):
        from repro.features.scaler import ChannelScaler

        ext = small_extractor()
        tensors = np.stack([ext.extract(make_clip()) for _ in range(3)])
        tensors[1] *= 2.0  # make variance non-zero
        scaler = ChannelScaler().fit(tensors)
        out = scaler.transform(tensors)
        assert out.shape == tensors.shape
        flat = out.reshape(-1, out.shape[-1])
        live = flat.std(axis=0) > 1e-6
        assert np.allclose(flat.mean(axis=0)[live], 0.0, atol=1e-5)
