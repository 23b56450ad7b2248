import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from itect import ents
from itect.errors import DataError

GOLDEN_SERIES = np.array([4, 5, 4, 1, 1, 2, 1, 2], dtype=float)
GOLDEN_WAVELET = np.array([7, 2.8, 2, 0, -0.7, 2.1, -0.7, -0.7])
GOLDEN_DENOISED = np.array([7, 2.8, 2, 0, 0, 2.1, 0, 0])
GOLDEN_RECONSTRUCTION = np.array([4.5, 4.5, 4, 1, 1.5, 1.5, 1.5, 1.5])


def chunk_with_entropy(bits: int, size: int = 256) -> bytes:
    """A chunk of ``size`` bytes with exactly ``bits`` bits of entropy:
    2^bits distinct byte values, equally frequent."""
    symbols = list(range(2**bits))
    reps = size // len(symbols)
    return bytes(symbols * reps)


def whole_file_entropies(data: bytes, chunk_size: int) -> np.ndarray:
    """Chunk entropies from one bincount over the whole file, the formula
    chunk_entropies computed before it counted in blocks."""
    arr = np.frombuffer(data, dtype=np.uint8)
    n_chunks = -(-len(arr) // chunk_size)
    chunk_idx = np.arange(len(arr)) // chunk_size
    counts = np.bincount(
        chunk_idx * 256 + arr, minlength=n_chunks * 256
    ).reshape(n_chunks, 256)
    totals = counts.sum(axis=1, keepdims=True)
    p = counts / totals
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=1)


class TestChunkEntropies:
    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 256, 300, 8192, 8193, 100_000])
    def test_equals_whole_file_formula(self, chunk_size):
        # Lengths around chunk edges and the 2^13-byte block edges, over
        # byte alphabets of 2, 17 and 256 values.
        block = ents._ENTROPY_BLOCK
        lengths = {1, 2, chunk_size - 1, chunk_size, chunk_size + 1, 3 * chunk_size + 5}
        for edge in (block, 2 * block, block // chunk_size * chunk_size or chunk_size):
            lengths |= {edge - 1, edge, edge + 1}
        rng = np.random.default_rng(chunk_size)
        for length in sorted(n for n in lengths if n > 0):
            for hi in (2, 17, 256):
                data = rng.integers(0, hi, length).astype(np.uint8).tobytes()
                got = ents.chunk_entropies(data, chunk_size)
                assert np.array_equal(got, whole_file_entropies(data, chunk_size))

    def test_single_symbol(self):
        assert ents.chunk_entropies(b"\x41" * 256, 256) == pytest.approx([0.0])

    def test_uniform_256(self):
        data = bytes(range(256))
        assert ents.chunk_entropies(data, 256) == pytest.approx([8.0])

    def test_two_chunks(self):
        data = bytes(range(256)) + b"\x00" * 256
        assert ents.chunk_entropies(data, 256) == pytest.approx([8.0, 0.0])

    def test_partial_final_chunk_uses_actual_length(self):
        # 256 uniform bytes + a 4-byte tail of 4 distinct values: 2 bits.
        data = bytes(range(256)) + bytes([1, 2, 3, 4])
        assert ents.chunk_entropies(data, 256) == pytest.approx([8.0, 2.0])

    def test_empty_file(self):
        with pytest.raises(DataError, match="empty"):
            ents.chunk_entropies(b"", 256)

    def test_chunk_larger_than_any_file(self):
        # No full chunk: the whole file is the partial one, and no table
        # of chunk_size + 1 entries is built.
        assert ents.chunk_entropies(b"abc", 10**20) == pytest.approx([np.log2(3)])


class TestEntsParams:
    def test_largest_sizable_alpha(self):
        assert ents.EntsParams(alpha=ents.MAX_ALPHA).n_points == 1 << ents.MAX_ALPHA
        assert 8 << ents.MAX_ALPHA <= np.iinfo(np.intp).max < 8 << (ents.MAX_ALPHA + 1)
        with pytest.raises(ValueError, match="alpha"):
            ents.EntsParams(alpha=ents.MAX_ALPHA + 1)

    @pytest.mark.parametrize("tau", [-0.5, float("nan")])
    def test_tau_must_be_at_least_zero(self, tau):
        with pytest.raises(ValueError, match="tau"):
            ents.EntsParams(tau=tau)


class TestComputeAlpha:
    def test_paper_instantiation(self):
        # 116 KiB median over 256-byte chunks -> ceil(log2(464)) = 9
        assert ents.compute_alpha([118784], [200000], 256) == 9

    def test_floor_rule(self):
        assert ents.compute_alpha([256], [256], 256) == 1

    def test_worked_example(self):
        assert ents.compute_alpha([20 * 256], [6 * 256], 256) == 3

    def test_all_empty_zoo(self):
        with pytest.raises(DataError):
            ents.compute_alpha([0, 0, 0], [100], 256)

    def test_lower_median(self):
        # even count: lower median of [4c, 8c] is 4c -> alpha 2
        assert ents.compute_alpha([4 * 256, 8 * 256], [100 * 256], 256) == 2


class TestSelectChunkIndices:
    def test_contraction_golden(self):
        assert ents.select_chunk_indices(20, 8).tolist() == [0, 2, 5, 8, 10, 13, 16, 19]

    def test_expansion_golden(self):
        assert ents.select_chunk_indices(6, 8).tolist() == [0, 0, 1, 2, 2, 3, 4, 5]

    def test_identity(self):
        assert ents.select_chunk_indices(8, 8).tolist() == list(range(8))

    @given(st.integers(1, 5000), st.integers(1, 10).map(lambda a: 2**a))
    def test_monotone_with_endpoints(self, num_chunks, n_points):
        idx = ents.select_chunk_indices(num_chunks, n_points)
        assert idx[0] == 0
        assert idx[-1] == num_chunks - 1
        assert np.all(np.diff(idx) >= 0)
        assert np.all((idx >= 0) & (idx < num_chunks))


class TestHaar:
    def test_forward_golden(self):
        # Reference values are rounded for display; the leading scale
        # coefficient (exactly 20/sqrt(8) = 7.0711) appears as 7, so the
        # tightest uniform tolerance is 0.075.
        c = ents.haar_forward(GOLDEN_SERIES)
        np.testing.assert_allclose(c, GOLDEN_WAVELET, atol=0.075)

    def test_constant_vector(self):
        k = 3.7
        c = ents.haar_forward(np.full(8, k))
        np.testing.assert_allclose(c[0], k * np.sqrt(8), atol=1e-12)
        np.testing.assert_allclose(c[1:], 0, atol=1e-12)

    def test_round_trip_length_16(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 8, 16)
        np.testing.assert_allclose(
            ents.haar_inverse(ents.haar_forward(x)), x, atol=1e-9
        )

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ents.haar_forward(np.zeros(6))

    @pytest.mark.parametrize("n", [1, 6])
    def test_inverse_non_power_of_two_rejected(self, n):
        with pytest.raises(ValueError):
            ents.haar_inverse(np.zeros(n))

    def test_denoise_golden(self):
        c = GOLDEN_WAVELET.copy()
        np.testing.assert_allclose(ents.denoise(c, 0.75), GOLDEN_DENOISED)

    def test_denoise_tau_zero_identity(self):
        c = ents.haar_forward(GOLDEN_SERIES)
        np.testing.assert_array_equal(ents.denoise(c, 0.0), c)

    def test_denoise_tau_inf_keeps_only_scale(self):
        c = ents.haar_forward(GOLDEN_SERIES)
        out = ents.denoise(c, np.inf)
        assert out[0] == c[0]
        assert np.all(out[1:] == 0)

    def test_inverse_golden(self):
        # Denoising the exact (unrounded) coefficients and inverting
        # reproduces the reference reconstruction exactly.
        c = ents.denoise(ents.haar_forward(GOLDEN_SERIES), 0.75)
        np.testing.assert_allclose(
            ents.haar_inverse(c), GOLDEN_RECONSTRUCTION, atol=1e-12
        )

    def test_inverse_of_rounded_coefficients(self):
        c = GOLDEN_DENOISED.copy()
        np.testing.assert_allclose(
            ents.haar_inverse(c), GOLDEN_RECONSTRUCTION, atol=0.06
        )

    def test_inverse_of_zeros(self):
        c = np.zeros(8)
        np.testing.assert_array_equal(ents.haar_inverse(c), np.zeros(8))

    @settings(max_examples=200)
    @given(
        st.integers(1, 6).flatmap(
            lambda a: st.lists(
                st.floats(-100, 100), min_size=2**a, max_size=2**a
            )
        )
    )
    def test_round_trip_and_parseval(self, values):
        x = np.array(values)
        c = ents.haar_forward(x)
        np.testing.assert_allclose(ents.haar_inverse(c), x, atol=1e-9)
        # orthonormal transform preserves energy
        np.testing.assert_allclose(
            (c**2).sum(), (x**2).sum(), rtol=1e-9, atol=1e-9
        )


class TestEntropyProfile:
    def test_worked_example(self):
        # 8 chunks engineered to have entropies (4,5,4,1,1,2,1,2)
        data = b"".join(chunk_with_entropy(b) for b in [4, 5, 4, 1, 1, 2, 1, 2])
        params = ents.EntsParams(chunk_size=256, alpha=3, tau=0.75)
        profile = ents.entropy_profile(data, params)
        np.testing.assert_allclose(profile, GOLDEN_RECONSTRUCTION, atol=0.05)

    def test_constant_file(self):
        params = ents.EntsParams(chunk_size=256, alpha=3, tau=0.5)
        profile = ents.entropy_profile(b"\x00" * 2048, params)
        np.testing.assert_allclose(profile, 0, atol=1e-12)

    def test_uniform_random_file_near_eight(self):
        # 4 KiB chunks keep the plug-in entropy bias under 0.05 bits, so
        # the profile sits within 0.2 of the 8-bit ceiling.
        rng = np.random.default_rng(11)
        params = ents.EntsParams(chunk_size=4096, alpha=3, tau=0.5)
        data = rng.integers(0, 256, 8 * 4096).astype(np.uint8).tobytes()
        profile = ents.entropy_profile(data, params)
        assert np.all(np.abs(profile - 8.0) < 0.2)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, 5000).astype(np.uint8).tobytes()
        params = ents.EntsParams(chunk_size=256, alpha=4, tau=0.5)
        a = ents.entropy_profile(data, params)
        b = ents.entropy_profile(data, params)
        np.testing.assert_array_equal(a, b)

    def test_profile_bounds_random_inputs(self):
        rng = np.random.default_rng(13)
        params = ents.EntsParams(chunk_size=256, alpha=4, tau=0.5)
        for _ in range(20):
            size = int(rng.integers(1, 20000))
            data = rng.integers(0, 256, size).astype(np.uint8).tobytes()
            profile = ents.entropy_profile(data, params)
            assert np.all(profile >= -1e-6)
            assert np.all(profile <= 8 + 1e-6)


def _matrix(cols, labels=None):
    return ents.FeatureMatrix(
        rows=np.column_stack(cols), col_index=list(range(len(cols))), labels=labels
    )


class TestPruneCorrelated:
    def test_identical_columns(self):
        col = np.arange(10.0)
        pruned = ents.prune_correlated(_matrix([col, col.copy()]))
        assert pruned.col_index == [0]

    def test_orthogonal_columns_kept(self):
        a = np.array([1.0, -1, 1, -1, 1, -1])
        b = np.array([1.0, 1, -1, -1, 1, -1]) * 2
        pruned = ents.prune_correlated(_matrix([a, b]))
        assert pruned.col_index == [0, 1]

    def test_noisy_copies_collapse(self):
        rng = np.random.default_rng(3)
        base = rng.normal(0, 1, 50)
        cols = [base + rng.normal(0, 1e-3, 50) for _ in range(10)]
        pruned = ents.prune_correlated(_matrix(cols))
        # direct pairwise-correlation oracle: every pair is > 0.8 correlated
        corr = np.corrcoef(np.column_stack(cols).T)
        assert np.all(np.abs(corr) > 0.8)
        assert pruned.col_index == [0]

    def test_zero_variance_columns(self):
        rng = np.random.default_rng(4)
        flat1 = np.full(20, 2.0)
        flat2 = np.full(20, 5.0)
        varying = rng.normal(0, 1, 20)
        pruned = ents.prune_correlated(_matrix([flat1, flat2, varying]))
        assert pruned.col_index == [0, 2]

    def test_single_row_rejected(self):
        m = ents.FeatureMatrix(rows=np.ones((1, 3)), col_index=[0, 1, 2])
        with pytest.raises(DataError):
            ents.prune_correlated(m)


class TestFeatureCSV:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        m = ents.FeatureMatrix(
            rows=rng.uniform(0, 8, (4, 3)),
            col_index=[0, 5, 7],
            labels=["malware", "benign", "benign", "malware"],
            digests=[f"{i:064x}" for i in range(4)],
        )
        path = tmp_path / "f.csv"
        ents.write_feature_csv(m, path)
        loaded = ents.read_feature_csv(path)
        np.testing.assert_array_equal(loaded.rows, m.rows)
        assert loaded.col_index == m.col_index
        assert loaded.labels == m.labels
        assert loaded.digests == m.digests
