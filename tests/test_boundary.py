"""Boundary band extraction and the uncertainty-weighted boundary loss."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import binary_dilation

from causalseg import boundary as B
from causalseg import tensor as T
from causalseg.data import generate_synthetic, square_symmetry


def brute_sobel(mask):
    """Direct loop oracle: valid 3x3 correlation, zero response on the border."""
    m = np.asarray(mask, dtype=np.float64)
    h, w = m.shape
    out = np.zeros((h, w))
    for i in range(1, h - 1):
        for j in range(1, w - 1):
            gx = gy = 0.0
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    gx += B.SOBEL_X[di + 1, dj + 1] * m[i + di, j + dj]
                    gy += B.SOBEL_Y[di + 1, dj + 1] * m[i + di, j + dj]
            out[i, j] = math.sqrt(gx * gx + gy * gy)
    return out


def square_mask(size=16, lo=6, hi=10):
    mask = np.zeros((size, size), dtype=np.uint8)
    mask[lo:hi, lo:hi] = 1
    return mask


class TestSobel:
    def test_uniform_masks_all_zero(self):
        for value in (0, 1):
            out = B.sobel_magnitude(np.full((12, 12), value, dtype=np.uint8))
            np.testing.assert_array_equal(out, np.zeros((12, 12)))

    def test_vertical_step_edge_support(self):
        c = 7
        mask = np.zeros((16, 16), dtype=np.uint8)
        mask[:, c:] = 1
        out = B.sobel_magnitude(mask)
        nonzero = out > 0
        expected = np.zeros((16, 16), dtype=bool)
        expected[1:-1, c - 1:c + 1] = True
        np.testing.assert_array_equal(nonzero, expected)

    def test_matches_brute_force_on_random_masks(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            mask = (rng.random((16, 16)) < 0.4).astype(np.uint8)
            np.testing.assert_allclose(B.sobel_magnitude(mask), brute_sobel(mask), atol=1e-12)

    def test_translation_equivariance_interior(self):
        rng = np.random.default_rng(3)
        mask = np.zeros((20, 20), dtype=np.uint8)
        mask[4:9, 4:9] = (rng.random((5, 5)) < 0.5).astype(np.uint8)
        shifted = np.roll(mask, 1, axis=0)
        a = B.sobel_magnitude(mask)
        b = B.sobel_magnitude(shifted)
        np.testing.assert_allclose(a[2:15, 2:18], b[3:16, 2:18], atol=1e-12)

    def test_too_small_input_rejected(self):
        with pytest.raises(T.ShapeError):
            B.sobel_magnitude(np.zeros((2, 5)))


class TestBoundaryBand:
    def test_empty_mask_empty_band(self):
        band = B.boundary_band(np.zeros((8, 8), dtype=np.uint8), width=2)
        assert band.dtype == bool and not band.any()

    def test_square_band_by_enumeration(self):
        # 4x4 square at rows/cols 6..9 of a 16x16 grid.  Sobel support is the
        # square's 12-px perimeter plus the 20-px outside ring (Chebyshev
        # distance 1); dilating by w=1 fills back the 2x2 interior, giving
        # exactly the 8x8 block rows/cols 4..11.
        mask = square_mask()
        band = B.boundary_band(mask, width=1)
        expected = np.zeros((16, 16), dtype=bool)
        expected[4:12, 4:12] = True
        np.testing.assert_array_equal(band, expected)
        assert band.sum() == 64
        assert mask[band].sum() == 16  # the square's own pixels
        assert set(np.unique(mask[band])) <= {0, 1}

    def test_band_values_match_mask(self):
        mask = square_mask()
        band = B.boundary_band(mask, width=2)
        assert mask[band].sum() == mask.sum()  # the band holds the whole square

    def test_monotone_in_width(self):
        rng = np.random.default_rng(5)
        mask = (rng.random((16, 16)) < 0.3).astype(np.uint8)
        prev = B.boundary_band(mask, width=1)
        for w in (2, 3, 4):
            cur = B.boundary_band(mask, width=w)
            assert np.all(cur[prev])
            prev = cur

    def test_saturation_covers_grid(self):
        mask = square_mask()
        band = B.boundary_band(mask, width=16)
        assert band.sum() == 256
        np.testing.assert_array_equal(mask[band], mask.ravel())

    def test_width_validation(self):
        with pytest.raises(ValueError, match="width"):
            B.boundary_band(square_mask(), width=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 16).flatmap(
        lambda n: hnp.arrays(np.uint8, (n, n), elements=st.integers(0, 1))), st.integers(1, 3))
    def test_commutes_with_the_square_symmetries(self, mask, width):
        # a band cached per record stays valid under augmentation
        band = B.boundary_band(mask, width)
        for k in range(8):
            np.testing.assert_array_equal(B.boundary_band(square_symmetry(mask, k), width),
                                          square_symmetry(band, k))

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(st.integers(1, 4), st.integers(1, 2), st.integers(3, 12), st.integers(3, 12))
           .flatmap(lambda shape: hnp.arrays(np.uint8, shape, elements=st.integers(0, 1))),
           st.integers(1, 3))
    def test_a_stack_is_banded_plane_by_plane(self, masks, width):
        # one call over a (B,C,H,W) stack gives each plane's own band and Sobel map, bit for bit
        bands, edges = B.boundary_band(masks, width), B.sobel_magnitude(masks)
        assert bands.shape == masks.shape and bands.dtype == bool
        for index in np.ndindex(masks.shape[:2]):
            np.testing.assert_array_equal(bands[index], B.boundary_band(masks[index], width))
            assert edges[index].tobytes() == B.sobel_magnitude(masks[index]).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.tuples(st.lists(st.integers(1, 3), max_size=2), st.integers(3, 12), st.integers(3, 12),
                     st.sampled_from([np.uint8, np.bool_, np.float32]))
           .flatmap(lambda t: hnp.arrays(t[3], (*t[0], t[1], t[2]), elements=st.sampled_from([0, 1]))),
           st.integers(1, 3))
    def test_equals_the_dilated_sobel_magnitude(self, masks, width):
        # the float32 responses and the max filter give the band of the float64
        # magnitude's edges under an all-ones binary dilation
        size = 2 * width + 1
        ones = np.ones((1,) * (masks.ndim - 2) + (size, size), bool)
        want = binary_dilation(B.sobel_magnitude(masks) > 0, structure=ones)
        assert B.boundary_band(masks, width).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(2, 5), (5, 2), (3, 1, 2, 2), (4,)])
    def test_planes_under_3x3_are_rejected(self, shape):
        with pytest.raises(T.ShapeError, match="at least 3x3"):
            B.boundary_band(np.zeros(shape, dtype=np.uint8))

    def test_a_train_split_of_bands_holds_under_2_mib(self):
        # float64 Sobel maps and their magnitude of the 179 masks took 4.2 MiB traced
        masks = np.stack([r.mask for r in generate_synthetic(179, 32, 0)])[:, None].astype(np.float32)
        tracemalloc.start()
        try:
            B.boundary_band(masks, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


def batch1(arr):
    """A single H x W plane as a (1,1,H,W) batch."""
    return np.asarray(arr)[None, None]


class TestUncertaintyMap:
    def test_equal_predictions_zero_uncertainty(self):
        band = B.boundary_band(square_mask(), width=1)
        pred = T.Tensor(np.full((1, 1, 16, 16), 0.7))
        v = B.uncertainty_map(pred, batch1(band))
        np.testing.assert_allclose(v.data, np.zeros((1, 1, 16, 16)), atol=1e-15)

    def test_two_pixel_band(self):
        band = np.array([[True, True], [False, False]])
        pred = T.Tensor(batch1([[0.0, 1.0], [0.5, 0.5]]))
        v = B.uncertainty_map(pred, batch1(band)).data[0, 0]
        np.testing.assert_allclose(v[0], [0.25, 0.25], atol=1e-12)  # band mean 0.5
        np.testing.assert_array_equal(v[1], [0.0, 0.0])

    def test_mean_v_is_band_variance(self):
        rng = np.random.default_rng(10)
        band = B.boundary_band(square_mask(), width=2)
        pred_arr = rng.random((16, 16))
        v = B.uncertainty_map(T.Tensor(batch1(pred_arr)), batch1(band)).data[0, 0]
        got = v[band].mean()
        assert abs(got - pred_arr[band].var()) < 1e-12

    def test_empty_band_gives_zero_map(self):
        band = B.boundary_band(np.zeros((8, 8), dtype=np.uint8))
        v = B.uncertainty_map(T.Tensor(np.full((1, 1, 8, 8), 0.5)), batch1(band))
        assert not v.data.any()

    def test_band_mean_is_per_image(self):
        band = B.boundary_band(square_mask(), width=1)
        pred = T.Tensor(np.stack([np.full((1, 16, 16), 0.2), np.full((1, 16, 16), 0.9)]))
        v = B.uncertainty_map(pred, np.stack([batch1(band)[0]] * 2))
        np.testing.assert_allclose(v.data, 0.0, atol=1e-15)


class TestUsdLoss:
    def test_single_pixel_half_prediction(self):
        band, mask = batch1([[True]]), batch1([[1.0]])
        pred = T.Tensor(batch1([[0.5]]))
        v = B.uncertainty_map(pred, band)
        assert abs(B.usd_loss(pred, mask, band, v).item() - math.log(2.0)) < 1e-12

    def test_forced_double_weight(self):
        band, mask = batch1([[True]]), batch1([[1.0]])
        pred = T.Tensor(batch1([[0.5]]))
        forced_v = T.Tensor(batch1([[1.0]]))
        assert abs(B.usd_loss(pred, mask, band, forced_v).item() - 2.0 * math.log(2.0)) < 1e-12

    def test_perfect_prediction_tiny_loss(self):
        mask = batch1(square_mask())
        pred = T.Tensor(mask.astype(np.float64))
        assert 0.0 <= B.usd_batch(pred, mask, width=2).item() <= 1e-6

    def test_empty_band_returns_zero(self):
        mask = batch1(np.zeros((8, 8), dtype=np.uint8))
        pred = T.Tensor(np.full((1, 1, 8, 8), 0.3))
        assert B.usd_batch(pred, mask).item() == 0.0

    def test_equals_band_bce_when_uniform(self):
        # all band predictions equal -> V = 0 -> plain band-restricted BCE
        mask = square_mask()
        band = B.boundary_band(mask, width=1)
        pred = T.Tensor(np.full((1, 1, 16, 16), 0.4))
        got = B.usd_batch(pred, batch1(mask), width=1).item()
        b = mask[band]
        bce = -(b * math.log(0.4) + (1 - b) * math.log(0.6)).mean()
        assert abs(got - bce) < 1e-12

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            mask = (rng.random((1, 1, 12, 12)) < 0.4).astype(np.uint8)
            pred = T.Tensor(rng.random((1, 1, 12, 12)))
            assert B.usd_batch(pred, mask).item() >= 0.0

    def test_gradient_matches_finite_differences(self):
        mask = batch1(square_mask(12, 4, 8))
        rng = np.random.default_rng(30)
        pred = T.Tensor(rng.uniform(0.2, 0.8, size=(1, 1, 12, 12)), requires_grad=True)

        def f(params):
            return B.usd_batch(params[0], mask, width=1)

        assert T.finite_diff_check(f, [pred]) < 1e-4

    def test_batch_is_mean_of_per_image_losses(self):
        rng = np.random.default_rng(40)
        masks = np.stack([batch1(square_mask())[0], np.zeros((1, 16, 16), dtype=np.uint8)])
        pred_arr = rng.uniform(0.1, 0.9, size=(2, 1, 16, 16))
        batch = B.usd_batch(T.Tensor(pred_arr), masks, width=1).item()
        singles = [B.usd_batch(T.Tensor(pred_arr[i:i + 1]), masks[i:i + 1], width=1).item()
                   for i in range(2)]
        assert abs(batch - float(np.mean(singles))) < 1e-12
