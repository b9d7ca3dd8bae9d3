"""Tests for repro.core.features (featurizer, projection, attention)."""
import numpy as np
import pytest

from repro.core.features import (
    Attention,
    Projector,
    cosine,
    cosine_matrix,
    encode_series,
    feature_dim,
    pooled_profile,
    segment_features,
    split_segments,
    znorm,
)


class TestPooledProfile:
    def test_short_series_resampled(self):
        out = pooled_profile(np.array([1.0, 2.0]), 4)
        assert out.shape == (4,)

    def test_exact_bucket_means(self):
        out = pooled_profile(np.arange(8.0), 4)
        np.testing.assert_allclose(out, [0.5, 2.5, 4.5, 6.5])

    def test_antialiases_noise(self):
        """Elementwise noise must average out, not decorrelate profiles."""
        rng = np.random.default_rng(0)
        base = np.sin(np.linspace(0, 6, 256))
        noisy = base * rng.uniform(0.9, 1.1, 256)
        a = pooled_profile(base, 8)
        b = pooled_profile(noisy, 8)
        assert np.abs(a - b).max() < 0.05


class TestZnorm:
    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        z, mu, sigma = znorm(rng.random(100) * 50 + 10)
        assert abs(z.mean()) < 1e-9
        assert z.std() == pytest.approx(1.0)
        assert sigma > 0

    def test_constant_series_guard(self):
        z, mu, sigma = znorm(np.full(10, 3.0))
        assert sigma == 1.0
        np.testing.assert_allclose(z, 0.0)


class TestSplitSegments:
    def test_exact_division(self):
        out = split_segments(np.arange(12.0), 4)
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out[0], [0, 1, 2, 3])

    def test_resamples_non_divisible(self):
        out = split_segments(np.arange(10.0), 4)
        assert out.shape == (2, 4) or out.shape == (3, 4)
        assert out.size % 4 == 0

    def test_short_series_single_segment(self):
        out = split_segments(np.arange(3.0), 10)
        assert out.shape == (1, 10)

    def test_bad_seg_len(self):
        with pytest.raises(ValueError):
            split_segments(np.arange(4.0), 0)


class TestSegmentFeatures:
    def test_shape(self):
        segs = np.random.default_rng(0).random((5, 16))
        f = segment_features(segs, 0.0, 1.0, n_profile=8)
        assert f.shape == (5, feature_dim(8))

    def test_slope_sign(self):
        up = np.linspace(0, 1, 16)[None, :]
        down = np.linspace(1, 0, 16)[None, :]
        f_up = segment_features(up, 0, 1, 8)
        f_down = segment_features(down, 0, 1, 8)
        assert f_up[0, 2] > 0 > f_down[0, 2]

    def test_min_max_first_last(self):
        seg = np.array([[3.0, -1.0, 5.0, 2.0]])
        f = segment_features(seg, 0, 1, 4)
        assert f[0, 3] == -1.0 and f[0, 4] == 5.0  # min, max
        assert f[0, 5] == 3.0 and f[0, 6] == 2.0   # first, last

    def test_position_channel_increases(self):
        segs = np.zeros((4, 8))
        f = segment_features(segs, 0, 1, 8)
        pos = f[:, 8]
        assert np.all(np.diff(pos) > 0)

    def test_scale_channels_constant_across_segments(self):
        segs = np.random.default_rng(1).random((3, 8))
        f = segment_features(segs, 5.0, 2.0, 8)
        assert np.allclose(f[:, -2], f[0, -2])
        assert np.allclose(f[:, -1], f[0, -1])


class TestProjector:
    def test_deterministic(self):
        a = Projector(10, 6, seed=3)
        b = Projector(10, 6, seed=3)
        np.testing.assert_allclose(a.w, b.w)

    def test_shape(self):
        p = Projector(10, 6, seed=0)
        out = p(np.ones((4, 10)))
        assert out.shape == (4, 6)

    def test_dim_mismatch_raises(self):
        p = Projector(10, 6, seed=0)
        with pytest.raises(ValueError):
            p(np.ones((4, 9)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_series_projection_independent_of_stack(self, n):
        """A series' projection is bit-identical alone and in a stack, for
        odd segment counts too (a flattened stack would round its last
        row differently)."""
        rng = np.random.default_rng(n)
        p = Projector(19, 24, seed=1)
        feats = rng.standard_normal((5, n, 19))
        stacked = p(feats)
        for j in range(5):
            assert np.array_equal(stacked[j], p(feats[j]))

    def test_roughly_preserves_cosine(self):
        rng = np.random.default_rng(0)
        p = Projector(19, 24, seed=1)
        a = rng.standard_normal((1, 19))
        b = a + 0.1 * rng.standard_normal((1, 19))
        raw = cosine_matrix(a, b)[0, 0]
        proj = cosine_matrix(p(a), p(b))[0, 0]
        assert abs(raw - proj) < 0.25


class TestAttention:
    def test_shape_preserved(self):
        att = Attention(8, seed=0)
        e = np.random.default_rng(0).standard_normal((5, 8))
        assert att(e).shape == (5, 8)

    def test_residual_dominates(self):
        att = Attention(8, seed=0)
        e = np.random.default_rng(1).standard_normal((5, 8))
        out = att(e)
        # output stays close to input (residual + bounded mixing)
        assert np.linalg.norm(out - e) < np.linalg.norm(e)


class TestEncodeSeries:
    def test_output_shape(self):
        p = Projector(feature_dim(8), 16, seed=0)
        att = Attention(16, seed=1)
        emb = encode_series(np.random.default_rng(0).random(128), 32, n_profile=8, projector=p, attention=att)
        assert emb.shape == (4, 16)

    def test_same_series_same_embedding(self):
        p = Projector(feature_dim(8), 16, seed=0)
        att = Attention(16, seed=1)
        s = np.random.default_rng(1).random(100)
        a = encode_series(s, 25, n_profile=8, projector=p, attention=att)
        b = encode_series(s.copy(), 25, n_profile=8, projector=p, attention=att)
        np.testing.assert_allclose(a, b)

    def test_scale_invariant_shape_channels(self):
        # 2x-scaled series: z-space features identical, only scale channels move
        p = Projector(feature_dim(8), 16, seed=0)
        att = Attention(16, seed=1)
        s = np.random.default_rng(2).random(96)
        a = encode_series(s, 24, n_profile=8, projector=p, attention=att)
        b = encode_series(s * 2 + 5, 24, n_profile=8, projector=p, attention=att)
        sims = np.diag(cosine_matrix(a, b))
        assert np.all(sims > 0.9)


class TestCosineMatrix:
    def test_self_similarity_one(self):
        a = np.random.default_rng(0).standard_normal((3, 8))
        np.testing.assert_allclose(np.diag(cosine_matrix(a, a)), 1.0)

    def test_orthogonal_zero(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert cosine_matrix(a, b)[0, 0] == pytest.approx(0.0)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        s = cosine_matrix(rng.standard_normal((5, 7)), rng.standard_normal((6, 7)))
        assert np.all(s <= 1.0 + 1e-9) and np.all(s >= -1.0 - 1e-9)


class TestCosine:
    def test_matches_cosine_matrix(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(9), rng.standard_normal(9)
        assert cosine(a, b) == pytest.approx(cosine_matrix(a, b)[0, 0])
        assert cosine(a, a) == pytest.approx(1.0)

    def test_zero_vector_is_zero_not_nan(self):
        z = np.zeros(6)
        assert cosine(z, np.ones(6)) == 0.0
        assert cosine(z, z) == 0.0
