import lzma
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from itect import baselines
from itect.errors import DataError
from itect.pool import SharedPool

ZLIB = baselines.CompressorSpec(algorithm_id="zlib", level=6)


class TestCompressorSpec:
    def test_unknown_algorithm(self):
        with pytest.raises(DataError):
            baselines.CompressorSpec(algorithm_id="brotli")

    @pytest.mark.parametrize("spec", [baselines.CompressorSpec(), ZLIB])
    def test_lossless(self, spec):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, 10000).astype(np.uint8).tobytes()
        decompress = zlib.decompress if spec.algorithm_id == "zlib" else lzma.decompress
        assert decompress(spec.compress(data)) == data

    def test_determinism(self):
        spec = baselines.CompressorSpec()
        data = b"determinism check " * 500
        assert spec.compress(data) == spec.compress(data)


class TestCompressionRate:
    def test_repetitive_data_compresses_well(self):
        assert baselines.compression_rate(b"\x00" * 100000) < 0.01

    def test_random_data_incompressible(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, 100000).astype(np.uint8).tobytes()
        assert baselines.compression_rate(data) > 0.99

    def test_empty_input(self):
        with pytest.raises(DataError):
            baselines.compression_rate(b"")

    def test_ordering_by_entropy(self):
        rng = np.random.default_rng(2)
        low = rng.integers(0, 4, 50000).astype(np.uint8).tobytes()
        high = rng.integers(0, 256, 50000).astype(np.uint8).tobytes()
        assert baselines.compression_rate(low) < baselines.compression_rate(high)


class TestNcd:
    def test_self_distance_near_zero(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, 30000).astype(np.uint8).tobytes()
        assert baselines.ncd(data, data) < 0.1

    def test_unrelated_near_one(self):
        rng = np.random.default_rng(4)
        p = rng.integers(0, 256, 30000).astype(np.uint8).tobytes()
        q = rng.integers(0, 256, 30000).astype(np.uint8).tobytes()
        assert baselines.ncd(p, q) > 0.9

    def test_near_symmetry(self):
        rng = np.random.default_rng(5)
        p = rng.integers(0, 64, 20000).astype(np.uint8).tobytes()
        q = bytes(b"structured header " * 1000) + p[:5000]
        assert abs(baselines.ncd(p, q) - baselines.ncd(q, p)) <= 0.05

    def test_cached_sizes_match_fresh(self):
        spec = ZLIB
        p, q = b"alpha beta gamma " * 200, b"delta epsilon " * 200
        fresh = baselines.ncd(p, q, spec)
        cached = baselines.ncd(
            p, q, spec,
            c_p=spec.compressed_size(p), c_q=spec.compressed_size(q),
        )
        assert fresh == cached

    def test_empty_input(self):
        with pytest.raises(DataError):
            baselines.ncd(b"", b"x")

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=1, max_size=2000), st.binary(min_size=1, max_size=2000))
    def test_bounded_range(self, p, q):
        # real compressors add headers, so allow slack beyond [0, 1]
        d = baselines.ncd(p, q, ZLIB)
        assert -0.5 <= d <= 1.5


class TestSimilarityRows:
    def test_shape_and_metadata(self):
        rng = np.random.default_rng(6)
        train = [rng.integers(0, 256, 5000).astype(np.uint8).tobytes()
                 for _ in range(3)]
        test = [train[0], rng.integers(0, 256, 5000).astype(np.uint8).tobytes()]
        m = baselines.similarity_rows(
            test, train, ZLIB,
            test_digests=["d0", "d1"], test_labels=["malware", "benign"],
        )
        assert m.rows.shape == (2, 3)
        assert m.labels == ["malware", "benign"]
        assert m.digests == ["d0", "d1"]
        # test[0] is identical to train[0]: nearest column by far
        assert m.rows[0, 0] < m.rows[0, 1] and m.rows[0, 0] < m.rows[0, 2]

    def test_matches_pointwise_ncd(self):
        train = [b"one two three " * 50, b"four five six " * 50]
        test = [b"one two seven " * 50]
        m = baselines.similarity_rows(test, train, ZLIB)
        for j, q in enumerate(train):
            assert m.rows[0, j] == pytest.approx(baselines.ncd(test[0], q, ZLIB))

    @pytest.mark.parametrize("helpers", [1, 3])
    def test_pooled_rows_equal_serial(self, helpers):
        # Bit for bit: every row is computed by the same code on any thread.
        rng = np.random.default_rng(7)
        train = [rng.integers(0, hi, 3000).astype(np.uint8).tobytes() for hi in (4, 16, 64, 256)]
        test = train[:2] + [rng.integers(0, 32, 2000).astype(np.uint8).tobytes() for _ in range(5)]
        serial = baselines.similarity_rows(test, train, ZLIB)
        with SharedPool(helpers) as pool:
            pooled = baselines.similarity_rows(test, train, ZLIB, map=pool.map)
            empty = baselines.similarity_rows([], train, ZLIB, map=pool.map)
        assert pooled.rows.shape == serial.rows.shape == (7, 4)
        assert pooled.rows.tobytes() == serial.rows.tobytes()
        assert empty.rows.shape == (0, 4)
