import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from itect import slamm, synth
from itect.errors import DataError
from itect.pool import SharedPool


def uniform_unigram_model():
    """Unigram model where every byte has probability exactly 1/256."""
    return slamm.NgramModel.train([bytes(range(256))], n=1)


def table_cells(table):
    """A count table's cells, one per code: in 4-bit cells, cell c is
    nibble c & 1 of byte c >> 1, the low nibble for an even c."""
    if table.cells.size == table.size:
        return table.cells
    cells = np.empty(2 * table.cells.size, dtype=np.uint8)
    cells[0::2] = table.cells & 15
    cells[1::2] = table.cells >> 4
    return cells


def exact_counts(table):
    """A count table's dense exact counts: its cells with the overflow's
    counts in place, in the narrowest type that holds both."""
    cells = table_cells(table)
    codes, over = table.overflow
    if not len(codes):
        return cells
    exact = cells.astype(np.promote_types(cells.dtype, over.dtype))
    exact[codes] = over
    return exact


# A count table's rungs, narrowest first: the largest value a cell holds,
# the cells' type and cells per byte.
RUNGS = [(15, np.dtype(np.uint8), 2)] + [
    (np.iinfo(t).max, np.dtype(t), 1) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
]


def table_layout(exact):
    """The rung, ``(cap, dtype, per_byte)`` from ``RUNGS``, the overflow's
    codes and its counts that the layout rule gives the dense exact
    counts ``exact``: the narrowest rung whose overflow, the cells at the
    cap or above as uint32 codes and counts in the narrowest type of
    their largest, takes fewer bytes than the table's
    cells * sizeof(T) / per_byte."""
    for rung in RUNGS:
        cap, dtype, per_byte = rung
        codes = np.flatnonzero(exact >= cap)
        counts = exact[codes]
        counts = counts.astype(np.min_scalar_type(int(counts.max(initial=0))))
        if len(codes) * (4 + counts.itemsize) < exact.size * dtype.itemsize // per_byte:
            return rung, codes.astype(np.uint32), counts
    raise AssertionError("no type holds the counts")


def assert_layout(table, exact=None):
    """A count table's cells and overflow are the layout of the dense
    exact counts ``exact``, by default its own: each non-zero cell holds
    min(count, cap), and no other cell is non-zero. Returns the cap."""
    if exact is None:
        exact = exact_counts(table)
    (cap, dtype, per_byte), codes, counts = table_layout(exact)
    assert table.cap == cap
    assert table.cells.dtype == dtype
    assert table.cells.nbytes == exact.size * dtype.itemsize // per_byte
    nz = np.flatnonzero(exact)
    cells = table_cells(table)
    capped = exact[nz].astype(dtype)
    capped[exact[nz] >= cap] = cap
    np.testing.assert_array_equal(cells[nz], capped)
    assert np.count_nonzero(cells) == len(nz)
    over_codes, over_counts = table.overflow
    np.testing.assert_array_equal(over_codes, codes)
    np.testing.assert_array_equal(over_counts, counts)
    assert over_codes.dtype == np.uint32
    assert over_counts.dtype == counts.dtype
    return cap


def count_of(table, gram):
    """Raw count of a gram in its order's count table, read from its one
    cell: the brute force asks for grams one by one, too often to unpack
    4-bit cells."""
    code = int.from_bytes(gram, "big")
    codes, over = table.overflow
    if code in codes:
        return int(over[np.searchsorted(codes, code)])
    if table.cells.size < table.size:
        return int(table.cells[code >> 1]) >> 4 * (code & 1) & 15
    return int(table.cells[code])


def sequence_logprob(model, data):
    """Sum of log2 q(w_i | history) over all full-order positions."""
    codes = slamm.encode_ngrams(data, model.n)
    return float(np.log2(model._cond_probs_from_codes(codes)).sum())


def as_dict(hist):
    """A sparse histogram as {n-gram: mass}."""
    return {
        int(k).to_bytes(hist.n, "big"): float(p) for k, p in zip(hist.keys, hist.probs)
    }


def zoo_masses(model, p):
    """A zoo's three numbers and its masses at the suspect's keys, as
    ``slamm_classify`` reads them."""
    masses = model.histogram()
    return masses, exact_counts(model.tables[-1])[p.keys] / masses.total


def brute_force_logprob(model, data):
    """Scalar re-derivation of the back-off chain, token by token."""
    d = model.smoothing.discount
    eps = model.smoothing.unseen_floor

    def count(gram):
        return count_of(model.tables[len(gram) - 1], gram)

    total = 0.0
    for i in range(model.n - 1, len(data)):
        w = data[i]
        q = max(count(bytes([w])) - d, 0.0) / max(model.total_tokens, 1)
        q += (
            d
            * np.count_nonzero(exact_counts(model.tables[0]))
            / max(model.total_tokens, 1)
            / 256.0
        )
        for k in range(2, model.n + 1):
            ctx = data[i - k + 1 : i]
            ctx_total = sum(count(ctx + bytes([b])) for b in range(256))
            if ctx_total == 0:
                continue
            distinct = sum(count(ctx + bytes([b])) > 0 for b in range(256))
            gram = count(ctx + bytes([w]))
            q = max(gram - d, 0.0) / ctx_total + (d * distinct / ctx_total) * q
        total += math.log2(max(q, eps))
    return total


def per_order_q(model, codes):
    """The back-off chain re-smoothed order by order at every code."""
    d = model.smoothing.discount
    t1 = max(model.total_tokens, 1)
    unigrams = exact_counts(model.tables[0])
    q = np.maximum(unigrams[codes & 0xFF] - d, 0.0) / t1 + (
        d * np.count_nonzero(unigrams) / t1
    ) * (1.0 / 256.0)
    for k in range(2, model.n + 1):
        gk = codes & ((1 << (8 * k)) - 1)
        counts = exact_counts(model.tables[k - 1])
        table = counts.reshape(256 ** (k - 1), 256)
        tk = table.sum(axis=1, dtype=np.int64)[gk >> 8]
        distinct = np.count_nonzero(table, axis=1).astype(np.int64)[gk >> 8]
        seen = tk > 0
        tk_safe = np.where(seen, tk, 1)
        num = np.maximum(counts[gk] - d, 0.0) / tk_safe
        lam = d * distinct / tk_safe
        q = np.where(seen, num + lam * q, q)
    return np.maximum(q, model.smoothing.unseen_floor)


class TestEncodeNgrams:
    def test_bigram_codes(self):
        codes = slamm.encode_ngrams(b"\x01\x02\x03", 2)
        assert codes.tolist() == [0x0102, 0x0203]

    def test_unigram_codes(self):
        assert slamm.encode_ngrams(b"abc", 1).tolist() == [97, 98, 99]

    def test_trigram_codes(self):
        assert slamm.encode_ngrams(b"\xff\x00\x01\x02", 3).tolist() == [
            0xFF0001,
            0x000102,
        ]

    def test_too_short(self):
        with pytest.raises(DataError):
            slamm.encode_ngrams(b"ab", 3)

    def test_matches_extract_ngrams(self):
        data = b"hello world"
        grams = [data[i : i + 3] for i in range(len(data) - 2)]
        codes = slamm.encode_ngrams(data, 3)
        assert [int.from_bytes(g, "big") for g in grams] == codes.tolist()


class TestNgramModelTraining:
    def test_counts_golden(self):
        model = slamm.NgramModel.train([b"abab", b"ab"], n=2)
        unigrams, bigrams = model.tables
        assert count_of(unigrams, b"a") == 3
        assert count_of(unigrams, b"b") == 3
        assert count_of(bigrams, b"ab") == 3
        assert count_of(bigrams, b"ba") == 1
        assert count_of(bigrams, b"aa") == 0
        assert model.total_tokens == 6

    def test_short_documents_skipped(self):
        model = slamm.NgramModel.train([b"ab", b"abcabc"], n=3)
        assert count_of(model.tables[2], b"abc") == 2
        assert model.total_tokens == 6

    def test_empty_zoo(self):
        with pytest.raises(DataError, match="empty zoo"):
            slamm.NgramModel.train([b"x", b"y"], n=3)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            slamm.NgramModel(n=4, smoothing=slamm.SmoothingParams())

    def test_immutable_after_finalize(self):
        model = slamm.NgramModel.train([b"abcd"], n=2)
        with pytest.raises(RuntimeError):
            model.add_document(b"more")


def _bincount_oracle(docs, n, smoothing):
    """A finalized zoo "z" whose order-k table's cells are the bincount of
    every document's k-gram codes, one per code, in the narrowest type of
    the largest count, with no overflow."""
    oracle = slamm.NgramModel(n=n, smoothing=smoothing, zoo_id="z")
    for k, table in enumerate(oracle.tables, 1):
        dense = sum(np.bincount(slamm.encode_ngrams(d, k), minlength=256**k) for d in docs)
        table.cells = dense.astype(np.min_scalar_type(dense.max()))
    return oracle.finalize()


class TestTrainingOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("piece", [1000, 1 << 23])
    def test_trained_equals_bincount_oracle(self, tmp_path, n, piece):
        # Every document adds its sorted runs into every order's table;
        # bytes 0..15 make the documents share most of their codes.
        # Cutting them into pieces of at most 1000 bytes makes 16 shorter
        # documents whose runs merge into counts the earlier ones left.
        rng = np.random.default_rng(40 + n)
        whole = [rng.integers(0, hi, 3000).astype(np.uint8).tobytes() for hi in (16, 16, 40, 256)]
        whole.append(b"abracadabra" * 300)
        docs = [d[i : i + piece] for d in whole for i in range(0, len(d), piece)]
        assert len(docs) == (16 if piece == 1000 else 5)
        smoothing = slamm.SmoothingParams(discount=0.37)
        trained = slamm.NgramModel.train(docs, n=n, smoothing=smoothing, zoo_id="z")
        oracle = _bincount_oracle(docs, n, smoothing)
        assert len(trained.tables) == len(oracle.tables) == n
        for table, dense in zip(trained.tables, oracle.tables):
            a, b = exact_counts(table), exact_counts(dense)
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype
            assert_layout(table, b)
        assert len(trained._tk_safe) == len(trained._lam) == n - 1
        for k in range(2, n + 1):
            tk_safe, lam = _dense_context_tables(oracle, k)
            for model in (trained, oracle):
                np.testing.assert_array_equal(model._tk_safe[k - 2], tk_safe)
                np.testing.assert_array_equal(model._lam[k - 2], lam)
                # The totals are held in the narrowest type that fits them.
                assert model._tk_safe[k - 2].dtype == np.min_scalar_type(int(tk_safe.max()))
        top = exact_counts(oracle.tables[-1])
        assert trained._top == oracle._top
        assert trained._top[:2] == (np.count_nonzero(top), top.sum())
        trained.save(tmp_path / "trained.slmm")
        oracle.save(tmp_path / "oracle.slmm")
        assert (tmp_path / "trained.slmm").read_bytes() == (tmp_path / "oracle.slmm").read_bytes()

    def test_trigram_training_allocates_no_second_table(self, synth_files):
        # The trigram table is 8 MiB of 4-bit cells; counting by sorted
        # runs adds memory per document code, not a second array over
        # all 256^3 cells.
        self._check_training_peak(synth_files, 0)

    def test_widened_trigram_training_allocates_no_second_table(self, synth_files):
        # A run of zeros makes one count 998: it goes to the overflow, and
        # the table stays in 4-bit cells, 8 MiB, with no second table
        # beside it.
        model = self._check_training_peak(synth_files, 1000)
        assert model.tables[2].overflow[0].tolist() == [0]
        assert model.tables[2].overflow[1].tolist() == [998]

    def _check_training_peak(self, synth_files, zeros):
        table = 256**3 // 2
        docs = synth_files[0]["benign"] + [b"\0" * zeros]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            model = slamm.NgramModel.train(docs, n=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.tables[2].cells.nbytes == table
        assert table <= peak < 2 * table
        return model

    def test_uint64_table_adds_exactly(self):
        # A count past 2^32 is held in uint64, in the overflow; the next
        # document must add to it in int64, not fail or round through float64.
        model = slamm.NgramModel(n=3, smoothing=slamm.SmoothingParams())
        model.add_document(b"\0" * 10)
        trigrams = model.tables[2]
        trigrams.add(np.array([0]), np.array([(1 << 53) + 1]))
        model.add_document(b"\0" * 10)
        model.finalize()
        assert trigrams.overflow[1].dtype == np.uint64
        assert exact_counts(trigrams).dtype == np.uint64
        assert count_of(trigrams, b"\0\0\0") == (1 << 53) + 17
        assert_layout(trigrams)

    def test_table_widened_between_documents_saves_like_oracle(self, tmp_path):
        # Each run of 200 zeros adds 198 to one trigram count: the first
        # run puts the cell in the overflow, and the later one lifts it
        # past 255 while training, between documents, so its exact count
        # needs uint16.
        rng = np.random.default_rng(7)
        docs = [rng.integers(0, 40, 3000).astype(np.uint8).tobytes() for _ in range(4)]
        docs[1:1] = [b"\0" * 200]
        docs[4:4] = [b"\0" * 200]
        model = slamm.NgramModel.train(docs, n=3, zoo_id="z")
        trigrams = model.tables[2]
        assert trigrams.cells.nbytes == 256**3 // 2
        assert exact_counts(trigrams).dtype == np.uint16
        assert trigrams.overflow[0].tolist() == [0]
        assert count_of(trigrams, b"\0\0\0") >= 396
        model.save(tmp_path / "trained.slmm")
        _bincount_oracle(docs, 3, model.smoothing).save(tmp_path / "oracle.slmm")
        assert (tmp_path / "trained.slmm").read_bytes() == (tmp_path / "oracle.slmm").read_bytes()

    def test_trigram_load_allocates_no_int32_table(self, synth_files, tmp_path):
        # A zoo whose one count past 255 is 998 loads its trigram table in
        # 4-bit cells, 8 MiB, and never allocates a 16 MiB uint8 or a
        # 32 MiB uint16 one.
        table = 256**3 // 2
        path = tmp_path / "zoo.slmm"
        slamm.NgramModel.train(synth_files[0]["benign"] + [b"\0" * 1000], n=3).save(path)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            loaded = slamm.NgramModel.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.tables[2].cells.nbytes == table
        assert exact_counts(loaded.tables[2]).dtype == np.uint16
        assert table <= peak < 2 * table


class TestTopOverflow:
    def test_one_large_count_keeps_a_4bit_table(self, tmp_path):
        # A run of 1,000 zeros makes one trigram count 998: the trained and
        # the loaded table stay in 4-bit cells, with that one cell in the
        # overflow, and loading allocates less than the 16 MiB uint8 table.
        rng = np.random.default_rng(5)
        docs = [rng.integers(0, 256, 4000).astype(np.uint8).tobytes(), b"\0" * 1000]
        trained = slamm.NgramModel.train(docs, n=3)
        path = tmp_path / "m.slmm"
        trained.save(path)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            loaded = slamm.NgramModel.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256**3
        for model in (trained, loaded):
            trigrams = model.tables[2]
            assert trigrams.cells.nbytes == 256**3 // 2
            codes, counts = trigrams.overflow
            assert (codes.tolist(), counts.tolist()) == ([0], [998])
            assert (codes.dtype, counts.dtype) == (np.uint32, np.uint16)
            assert_layout(trigrams)

    @pytest.mark.parametrize(
        "distinct, big, dtype, overflow",
        [
            # Every case first leaves the 128-byte table of 4-bit cells. 42
            # counts of 300 need 42 * 6 = 252 bytes of overflow, under the
            # 256-byte uint8 table; 43 need 258 and 64 need 384, so the
            # table widens to uint16 and the overflow empties.
            (42, 0, np.uint8, 42),
            (43, 0, np.uint16, 0),
            (64, 0, np.uint16, 0),
            # A count of 70,000 stays in the widened table's overflow.
            (43, 70_000, np.uint16, 1),
        ],
    )
    def test_overflow_that_would_reach_the_table_widens_it(
        self, tmp_path, monkeypatch, distinct, big, dtype, overflow
    ):
        # Pieces of 1,000 bytes make the counts pass 255 over several
        # documents, and blocks of 5 records over several loaded blocks.
        monkeypatch.setattr(slamm, "_BLOCK", 5)
        data = bytes(range(distinct)) * 300 + b"\xff" * big
        docs = [data[i : i + 1000] for i in range(0, len(data), 1000)]
        trained = slamm.NgramModel.train(docs, n=1, zoo_id="z")
        trained.save(tmp_path / "trained.slmm")
        loaded = slamm.NgramModel.load(tmp_path / "trained.slmm")
        for model in (trained, loaded):
            unigrams = model.tables[0]
            assert unigrams.cells.dtype == dtype
            assert len(unigrams.overflow[0]) == overflow
            assert_layout(unigrams)
        _bincount_oracle(docs, 1, trained.smoothing).save(tmp_path / "oracle.slmm")
        assert (tmp_path / "trained.slmm").read_bytes() == (tmp_path / "oracle.slmm").read_bytes()

    @pytest.mark.parametrize("block", [5, 1 << 18])
    def test_loaded_zoo_with_overflow_saves_its_own_bytes(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(slamm, "_BLOCK", block)
        rng = np.random.default_rng(9)
        docs = [rng.integers(0, 4, 20_000).astype(np.uint8).tobytes(), b"\0" * 70_000]
        path = tmp_path / "trained.slmm"
        slamm.NgramModel.train(docs, n=3, zoo_id="z").save(path)
        loaded = slamm.NgramModel.load(path)
        assert len(loaded.tables[2].overflow[0]) > 1
        assert loaded.tables[2].cells.nbytes == 256**3 // 2
        loaded.save(tmp_path / "again.slmm")
        assert (tmp_path / "again.slmm").read_bytes() == path.read_bytes()

    def test_counts_at_the_4bit_cap(self, tmp_path):
        # Counts of 14, 15 and 16 over two documents: 14 stays in its cell;
        # "b" reaches 15 in the second document and enters the overflow,
        # and "c" goes from 15 to 16 there. Cell c is nibble
        # c & 1 of byte c >> 1, the high one for an odd c such as "a".
        docs = [b"a" * 14 + b"b" * 14 + b"c" * 15, b"bc"]
        trained = slamm.NgramModel.train(docs, n=1, zoo_id="z")
        path = tmp_path / "trained.slmm"
        trained.save(path)
        loaded = slamm.NgramModel.load(path)
        codes = np.frombuffer(b"abc", dtype=np.uint8).astype(np.int64)
        for model in (trained, loaded):
            unigrams = model.tables[0]
            assert unigrams.cells.nbytes == 128
            assert unigrams.cells[48:50].tolist() == [14 << 4, 15 | 15 << 4]
            assert unigrams.overflow[0].tolist() == [ord("b"), ord("c")]
            assert unigrams.overflow[1].tolist() == [15, 16]
            assert model.top_counts(codes).tolist() == [14, 15, 16]
            assert assert_layout(unigrams) == 15
        _bincount_oracle(docs, 1, trained.smoothing).save(tmp_path / "oracle.slmm")
        assert path.read_bytes() == (tmp_path / "oracle.slmm").read_bytes()

    def test_widening_from_4bit_cells_to_uint8_and_uint16(self, tmp_path, monkeypatch):
        # A bigram table has 65,536 cells: 4-bit cells take 32 KiB, so
        # about 6,554 counts of 15 or more widen it to uint8 (64 KiB), and
        # about 10,923 counts of 255 or more on to uint16. A document is
        # every pair of an alphabet, repeated, which gives nearly every
        # bigram over it about two counts per repeat. Blocks of 5 records
        # make each loaded context a block of its own.
        monkeypatch.setattr(slamm, "_BLOCK", 5)
        widened = []
        widen = slamm._CountTable.widen

        def spy(table):
            if table.size == 256**2:
                widened.append(table.cap)
            widen(table)

        monkeypatch.setattr(slamm._CountTable, "widen", spy)

        def pairs(alphabet, repeats):
            return np.indices((alphabet, alphabet)).reshape(2, -1).T.astype(np.uint8).tobytes() * repeats

        docs = [pairs(90, 1), pairs(90, 8), pairs(110, 130)]
        table = slamm._CountTable(256**2)
        caps = []
        for i, doc in enumerate(docs):
            table.add(*slamm._sorted_runs(slamm.encode_ngrams(doc, 2, np.int32)))
            table.merge()  # as finalize does, so the overflow is whole
            exact = sum(np.bincount(slamm.encode_ngrams(d, 2), minlength=256**2) for d in docs[: i + 1])
            caps.append(assert_layout(table, exact))
        assert caps == [15, 255, 65535]
        assert widened == [15, 255]
        path = tmp_path / "trained.slmm"
        widened.clear()
        slamm.NgramModel.train(docs, n=2, zoo_id="z").save(path)
        assert widened == [15, 255]
        widened.clear()
        loaded = slamm.NgramModel.load(path)
        assert widened == [15, 255]
        assert assert_layout(loaded.tables[1], exact) == 65535
        _bincount_oracle(docs, 2, loaded.smoothing).save(tmp_path / "oracle.slmm")
        assert path.read_bytes() == (tmp_path / "oracle.slmm").read_bytes()

    @pytest.mark.parametrize(
        "capped, big, cap",
        [
            # Among unigram counts of 1 to 14, `capped` cells of about `big`:
            # 10 * 5 bytes of overflow stay under the 128-byte 4-bit table;
            # 40 * 5 reach it, and all fit uint8; 60 * 6 reach the 256-byte
            # uint8 table; 80 * 8 the 512-byte uint16 one; and 90 * 12 the
            # 1,024-byte uint32 one.
            (10, 20, 15),
            (40, 20, 255),
            (60, 300, 65535),
            (80, 70_000, (1 << 32) - 1),
            (90, 1 << 33, (1 << 64) - 1),
        ],
    )
    def test_gather_at_every_rung(self, capped, big, cap):
        rng = np.random.default_rng(capped)
        counts = rng.integers(1, 15, 256)
        counts[rng.choice(256, capped, replace=False)] = big + rng.integers(0, 3, capped)
        table = slamm._CountTable(256)
        table.add(np.arange(256), counts)
        table.merge()
        assert assert_layout(table, counts) == cap
        keys = np.unique(rng.integers(0, 256, 100))
        np.testing.assert_array_equal(table.gather(keys), counts[keys])
        np.testing.assert_array_equal(table.exact(), counts)

    def test_load_merges_the_overflow_in_doubling_steps(self, tmp_path, monkeypatch):
        # Blocks of 5 records hold one context of four trigrams each, all
        # at the cap. Loaded blocks are disjoint and ascend, so a merge
        # concatenates, and the runs are merged only once they hold as
        # many cells as the overflow: no block copies the whole overflow.
        monkeypatch.setattr(slamm, "_BLOCK", 5)
        rng = np.random.default_rng(9)
        docs = [rng.integers(0, 4, 20_000).astype(np.uint8).tobytes()]
        path = tmp_path / "trained.slmm"
        trained = slamm.NgramModel.train(docs, n=3, zoo_id="z")
        trained.save(path)
        merged = []
        merge = slamm._CountTable.merge

        def spy(table):
            if table.size == 256**3:
                merged.append(sum(len(c) for c, _ in table._pending))
            merge(table)

        monkeypatch.setattr(slamm._CountTable, "merge", spy)
        loaded = slamm.NgramModel.load(path)
        assert merged == [4, 4, 8, 16, 32, 0]
        for a, b in zip(trained.tables[2].overflow, loaded.tables[2].overflow):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    def test_pending_runs_sum_to_the_exact_counts(self):
        # Each step lifts new cells to the cap and raises some already at
        # it, a few past 255. A cell's pending runs hold what the overflow
        # lacks of its count, so no step looks a count up; they are
        # merged once they hold as many cells as the overflow, and every
        # other step merges them as finalize does.
        rng = np.random.default_rng(3)
        table = slamm._CountTable(256**2)
        exact = np.zeros(256**2, dtype=np.int64)
        carried = 0
        for step in range(14):
            add = np.zeros_like(exact)
            fresh = rng.choice(np.flatnonzero(exact == 0), int(rng.integers(1, 400)), replace=False)
            add[fresh] = rng.integers(1, 40, len(fresh))
            over = np.flatnonzero(exact >= 15)
            raised = rng.choice(over, len(over) // 3, replace=False)
            add[raised] = rng.integers(1, 30 * step + 2, len(raised))
            codes = np.flatnonzero(add)
            carried += len(table._pending) > 0
            had = table.add(codes, add[codes])
            np.testing.assert_array_equal(had, np.minimum(exact[codes], 15))
            exact += add
            assert sum(len(c) for c, _ in table._pending) < max(len(table.overflow[0]), 1)
            if step % 2:
                table.merge()
                assert table._pending == []
                assert assert_layout(table, exact) == 15
        assert carried > 0
        assert table.overflow[1].dtype == np.uint16


class TestSmoothing:
    def test_uniform_model_cross_entropy_is_eight(self):
        # Every byte seen once: discounted mass redistributed uniformly
        # lands back at exactly 1/256 per byte.
        model = uniform_unigram_model()
        data = np.random.default_rng(0).integers(0, 256, 1000)
        data = data.astype(np.uint8).tobytes()
        assert slamm.cross_entropy(
            model, slamm.NgramHistogram.from_data(data, model.n)
        ) == pytest.approx(8.0, abs=1e-12)

    def test_conditional_distribution_normalizes(self):
        rng = np.random.default_rng(1)
        docs = [rng.integers(0, 256, 500).astype(np.uint8).tobytes() for _ in range(5)]
        docs += [b"the quick brown fox jumps over the lazy dog" * 3]
        model = slamm.NgramModel.train(docs, n=3)
        for ctx in (b"th", b"he", b"\x00\x00", b"zz"):
            dist = model.conditional_distribution(ctx)
            assert abs(dist.sum() - 1.0) < 1e-5
            assert np.all(dist > 0)

    def test_logprob_matches_brute_force(self):
        model = slamm.NgramModel.train([b"abracadabra", b"banana"], n=2)
        for data in (b"abra", b"nab", b"zzq", b"cadab"):
            assert sequence_logprob(model, data) == pytest.approx(
                brute_force_logprob(model, data), abs=1e-12
            )

    def test_logprob_matches_brute_force_trigram(self):
        model = slamm.NgramModel.train([b"mississippi river"], n=3)
        for data in (b"missis", b"sip", b"xyz", b"river"):
            assert sequence_logprob(model, data) == pytest.approx(
                brute_force_logprob(model, data), abs=1e-12
            )

    @pytest.mark.parametrize("n", [2, 3])
    def test_cross_entropy_matches_sequence_logprob(self, n):
        rng = np.random.default_rng(n)
        docs = [rng.integers(0, 48, 3000).astype(np.uint8).tobytes() for _ in range(4)]
        model = slamm.NgramModel.train(docs, n=n)
        for data in (
            rng.integers(0, 64, 2000).astype(np.uint8).tobytes(),
            b"abcabcabd" * 20,
            bytes(range(n)),
        ):
            ce = slamm.cross_entropy(model, slamm.NgramHistogram.from_data(data, n))
            expect = -sequence_logprob(model, data) / (len(data) - n + 1)
            assert ce == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    def test_cross_entropy_blocks_equal_one_pass(self, monkeypatch, block):
        # Bit for bit: the terms of every block are those of one pass over
        # all codes, and they are summed once.
        rng = np.random.default_rng(17)
        docs = [rng.integers(0, 48, 3000).astype(np.uint8).tobytes() for _ in range(4)]
        model = slamm.NgramModel.train(docs, n=3)
        p = slamm.NgramHistogram.from_data(
            rng.integers(0, 64, 5000).astype(np.uint8).tobytes(), 3
        )
        one_pass = float(-(p.probs * np.log2(model._cond_probs_from_codes(p.keys))).sum())
        monkeypatch.setattr(slamm, "_CE_BLOCK", block)
        assert slamm.cross_entropy(model, p) == one_pass

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lower_order_table_is_exact(self, n):
        # Bytes 0..39 only, so most contexts of a random code are unseen;
        # a discount that is not a power of two exposes any reordering.
        rng = np.random.default_rng(10 + n)
        docs = [rng.integers(0, 40, 4000).astype(np.uint8).tobytes() for _ in range(3)]
        smoothing = slamm.SmoothingParams(discount=0.37)
        model = slamm.NgramModel.train(docs, n=n, smoothing=smoothing)
        seen = slamm.encode_ngrams(docs[0], n)[:500]
        every = np.arange(256 ** min(n, 2))
        for codes in (rng.integers(0, 256**n, 5000), seen, every):
            np.testing.assert_array_equal(
                model._cond_probs_from_codes(codes), per_order_q(model, codes)
            )

    def test_cross_entropy_order_mismatch(self):
        model = slamm.NgramModel.train([b"abracadabra"], n=2)
        p = slamm.NgramHistogram.from_data(b"abracadabra", 3)
        with pytest.raises(DataError):
            slamm.cross_entropy(model, p)

    def test_unseen_floor(self):
        model = slamm.NgramModel.train([b"aaaa"], n=1)
        dist = model.conditional_distribution(b"")
        assert np.all(dist >= model.smoothing.unseen_floor)


# Header of a bigram model with default smoothing and a 3-byte zoo id.
_HEADER = b"SLMM" + struct.pack("<HBH d d", 3, 2, 3, 0.5, 1e-10)


def _order_offset(raw, order):
    """Offset of the record-count field of ``order`` in a model file."""
    pos = len(_HEADER) + 3
    for k in range(1, order):
        count, width = struct.unpack_from("<QB", raw, pos)
        pos += 9 + 2 * 256 ** (k - 1) + (1 + width) * count
    return pos


def _records(raw, order):
    """The ``(code, count)`` records of ``order``, each code rebuilt from
    its context's position in the length table and its last byte, and
    the order's count width."""
    pos = _order_offset(raw, order)
    count, width = struct.unpack_from("<QB", raw, pos)
    lengths = struct.unpack_from(f"<{256 ** (order - 1)}H", raw, pos + 9)
    assert sum(lengths) == count
    at = pos + 9 + 2 * len(lengths)
    recs = []
    for ctx, length in enumerate(lengths):
        for _ in range(length):
            recs.append(((ctx << 8) | raw[at], int.from_bytes(raw[at + 1 : at + 1 + width], "little")))
            at += 1 + width
    return recs, width


def _rewrite(raw, order, recs, width):
    """Replace the records of ``order``, written in the given sequence at
    ``width``, and its record count, width and context lengths to match;
    each context's length counts the records whose code is in it."""
    pos = _order_offset(raw, order)
    old, old_width = _records(raw, order)
    end = pos + 9 + 2 * 256 ** (order - 1) + (1 + old_width) * len(old)
    lengths = [0] * 256 ** (order - 1)
    for g, _ in recs:
        lengths[g >> 8] += 1
    table = struct.pack(f"<{len(lengths)}H", *lengths)
    body = b"".join(bytes([g & 0xFF]) + c.to_bytes(width, "little") for g, c in recs)
    return raw[:pos] + struct.pack("<QB", len(recs), width) + table + body + raw[end:]


def _patch_record(raw, order, gram=None, count=None, width=None):
    """Overwrite the gram code or the count of the first record of
    ``order``, rewriting the order at ``width`` if given."""
    recs, old_width = _records(raw, order)
    g, c = recs[0]
    recs[0] = (g if gram is None else gram, c if count is None else count)
    return _rewrite(raw, order, recs, width or old_width)


def _patch_count(raw, order, count):
    pos = _order_offset(raw, order)
    return raw[:pos] + struct.pack("<Q", count) + raw[pos + 8 :]


def _patch_length(raw, order, ctx, length):
    """Overwrite the length of context ``ctx`` of ``order``, leaving its
    records and record count as they are."""
    pos = _order_offset(raw, order) + 9 + 2 * ctx
    return raw[:pos] + struct.pack("<H", length) + raw[pos + 2 :]


def _patch_width(raw, order, width):
    """Overwrite the count width of ``order``, leaving its records as they are."""
    pos = _order_offset(raw, order) + 8
    return raw[:pos] + bytes([width]) + raw[pos + 1 :]


def _swap_records(raw, order):
    """Swap the first two records of ``order``, which share a context, so
    that their last bytes decrease."""
    recs, width = _records(raw, order)
    assert recs[0][0] >> 8 == recs[1][0] >> 8
    recs[:2] = recs[1::-1]
    return _rewrite(raw, order, recs, width)


def _repeat_record(raw, order):
    """Write the first record of ``order`` twice, with the record count and
    its context's length to match, so that a last byte repeats."""
    recs, width = _records(raw, order)
    return _rewrite(raw, order, recs[:1] + recs, width)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = slamm.NgramModel.train(
            [b"abracadabra", b"banana"], n=2, zoo_id="zoo-a"
        )
        path = tmp_path / "m.slmm"
        model.save(path)
        loaded = slamm.NgramModel.load(path)
        assert loaded.n == model.n
        assert loaded.zoo_id == "zoo-a"
        assert loaded.smoothing == model.smoothing
        for a, b in zip(model.tables, loaded.tables):
            np.testing.assert_array_equal(exact_counts(a), exact_counts(b))
        p = slamm.NgramHistogram.from_data(b"cabana", model.n)
        assert slamm.cross_entropy(loaded, p) == pytest.approx(
            slamm.cross_entropy(model, p), abs=1e-12
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError, match="magic"):
            slamm.NgramModel.load(path)

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            pytest.param(lambda b: b[:-5], "truncated", id="last-5-bytes-cut"),
            pytest.param(lambda b: b[:10], "header", id="short-header"),
            pytest.param(lambda b: b[: len(_HEADER) + 2], "zoo id", id="short-zoo-id"),
            pytest.param(
                lambda b: b[: len(_HEADER) + 3 + 4], "record count", id="short-count"
            ),
            pytest.param(
                lambda b: b[:4] + struct.pack("<H", 1) + b[6:],
                "unsupported model version 1; .* retrain",
                id="version-1",
            ),
            pytest.param(
                lambda b: b[:4] + struct.pack("<HB", 3, 0) + b[7:],
                "order 0",
                id="order-0",
            ),
            pytest.param(
                lambda b: b[:4] + struct.pack("<HB", 3, 4) + b[7:],
                "order 4",
                id="order-4",
            ),
            pytest.param(
                lambda b: b[:4] + struct.pack("<HBHd", 3, 2, 3, 2.0) + b[17:],
                "smoothing",
                id="discount-out-of-range",
            ),
            pytest.param(
                lambda b: b[: len(_HEADER)] + b"\xff\xfeq" + b[len(_HEADER) + 3 :],
                "UTF-8",
                id="zoo-id-not-utf8",
            ),
            pytest.param(
                lambda b: b[:4] + struct.pack("<H", 2) + b[6:],
                "unsupported model version 2; this build reads version 3, so retrain "
                "the zoo with slamm-train",
                id="version-2",
            ),
            pytest.param(
                lambda b: b[: _order_offset(b, 2) + 9 + 100],
                "order-2 context lengths needs 512 bytes, got 100",
                id="short-context-lengths",
            ),
            pytest.param(
                lambda b: _patch_length(b, order=2, ctx=0, length=257),
                "order-2 context length 257 exceeds 256",
                id="context-length-above-256",
            ),
            pytest.param(
                lambda b: _patch_length(b, order=2, ctx=0, length=1),
                "order-2 context lengths sum to 8, not the record count 7",
                id="context-lengths-miss-record-count",
            ),
            pytest.param(
                lambda b: _patch_record(b, order=1, count=1 << 63, width=8),
                "overflows",
                id="count-overflows-counter",
            ),
            pytest.param(
                lambda b: _patch_count(b, order=1, count=1 << 62),
                "exceeds",
                id="record-count-too-large",
            ),
            pytest.param(
                lambda b: _swap_records(b, order=2),
                "order-2 last bytes not strictly increasing within a context",
                id="records-swapped",
            ),
            pytest.param(
                lambda b: _repeat_record(b, order=2),
                "order-2 last bytes not strictly increasing within a context",
                id="record-repeated",
            ),
            pytest.param(
                lambda b: _patch_record(b, order=2, count=0),
                "zero count",
                id="zero-count",
            ),
            pytest.param(
                lambda b: b + b"GARBAGE",
                "trailing bytes after the order-2 records",
                id="trailing-bytes",
            ),
            pytest.param(
                lambda b: _rewrite(_rewrite(b, 1, [], 1), 2, [], 1),
                "empty zoo: no top-order counts",
                id="no-records",
            ),
        ],
    )
    def test_corrupt_file_is_data_error(self, tmp_path, corrupt, match):
        path = tmp_path / "m.slmm"
        slamm.NgramModel.train([b"abracadabra"], n=2, zoo_id="zoo").save(path)
        raw = path.read_bytes()
        assert raw.startswith(_HEADER + b"zoo")
        path.write_bytes(corrupt(raw))
        with pytest.raises(DataError, match=match):
            slamm.NgramModel.load(path)

    def test_count_past_int32_loads_as_uint32(self, tmp_path):
        # Training sums counts in int64, so a saved count may pass 2^31 - 1
        # and be written at width 4.
        path = tmp_path / "m.slmm"
        slamm.NgramModel.train([b"abracadabra"], n=3, zoo_id="zoo").save(path)
        raw = _patch_record(path.read_bytes(), order=3, count=1 << 31, width=4)
        path.write_bytes(raw)
        trigrams = slamm.NgramModel.load(path).tables[2]
        assert exact_counts(trigrams).dtype == np.uint32
        assert exact_counts(trigrams).max() == 1 << 31
        assert trigrams.overflow[1].tolist() == [1 << 31]
        assert_layout(trigrams)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_width_wider_than_largest_count_is_data_error(self, tmp_path, order):
        # The width gives the trigram table its type, so a wider one would
        # load a table wider than training gives the same counts.
        path = tmp_path / "m.slmm"
        slamm.NgramModel.train([b"abracadabra"], n=3, zoo_id="zoo").save(path)
        raw = path.read_bytes()
        recs, width = _records(raw, order)
        assert width == 1
        path.write_bytes(_rewrite(raw, order, recs, 2))
        with pytest.raises(DataError, match=f"order-{order} count width 2 is wider"):
            slamm.NgramModel.load(path)

    @pytest.mark.parametrize("width", [0, 3, 16])
    def test_width_outside_1_2_4_8_is_data_error(self, tmp_path, width):
        path = tmp_path / "m.slmm"
        slamm.NgramModel.train([b"abracadabra"], n=2, zoo_id="zoo").save(path)
        path.write_bytes(_patch_width(path.read_bytes(), order=2, width=width))
        with pytest.raises(DataError, match=f"order-2 count width {width} is not 1, 2, 4 or 8"):
            slamm.NgramModel.load(path)

    def test_golden_bytes(self, tmp_path):
        # The layout, pinned: a change to it fails here.
        path = tmp_path / "m.slmm"
        slamm.NgramModel.train([b"abracadabra"], n=2, zoo_id="zoo").save(path)
        assert path.read_bytes() == bytes.fromhex(
            "534c4d4d"  # magic "SLMM"
            "0300" "02" "0300"  # version 3, order 2, 3-byte zoo id
            "000000000000e03f"  # discount 0.5
            "bbbdd7d9df7cdb3d"  # unseen floor 1e-10
            "7a6f6f"  # zoo id "zoo"
            "0500000000000000" "01"  # order 1: 5 records, counts 1 byte wide
            "0500"  # the one empty context holds 5
            "61" "05"  # a: 5
            "62" "02"  # b: 2
            "63" "01"  # c: 1
            "64" "01"  # d: 1
            "72" "02"  # r: 2
            "0700000000000000" "01"  # order 2: 7 records, counts 1 byte wide
            + "0000" * 0x61
            + "0300"  # context a holds 3
            + "0100" * 3  # contexts b, c and d hold 1 each
            + "0000" * (0x72 - 0x65)
            + "0100"  # context r holds 1
            + "0000" * (0xFF - 0x72)
            + "62" "02"  # ab: 2
            "63" "01"  # ac: 1
            "64" "01"  # ad: 1
            "72" "02"  # br: 2
            "61" "01"  # ca: 1
            "61" "01"  # da: 1
            "61" "02"  # ra: 2
        )


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    """The bytes of a small saved trigram model and a path to write edits to."""
    path = tmp_path_factory.mktemp("fuzz") / "m.slmm"
    docs = [b"abracadabra" * 3, b"\0" * 200, bytes(range(40))]  # largest count 198
    slamm.NgramModel.train(docs, n=3, zoo_id="zoo").save(path)
    return path.read_bytes(), path


class TestLoadFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        cut=st.none() | st.integers(0, 1 << 20),
        edits=st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 255)), max_size=4),
    )
    def test_edited_file_loads_or_is_data_error(self, fuzz_model, cut, edits):
        # A truncation and byte edits at offsets taken modulo the file size.
        raw, path = fuzz_model
        raw = bytearray(raw if cut is None else raw[: cut % len(raw)])
        for pos, value in edits if raw else []:
            raw[pos % len(raw)] = value
        path.write_bytes(raw)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(slamm, "_BLOCK", 4)  # the checks also run across block edges
            try:
                model = slamm.NgramModel.load(path)
            except DataError:
                return
        for table in model.tables:
            counts = exact_counts(table)
            assert counts.dtype == np.min_scalar_type(int(counts.max()))
            assert_layout(table)
        for data in [b"ab", b"abracadabra" * 3, bytes(range(256)), b"\0" * 300]:
            try:
                slamm.slamm_classify(data, [model], model)
            except DataError:
                pass


class TestContextBlocks:
    @pytest.mark.parametrize("block", [1, 4, 5, 1 << 18])
    def test_blocks_hold_whole_contexts(self, monkeypatch, block):
        # Leading, inner and trailing empty contexts, and contexts longer
        # than a block, which form a block alone.
        monkeypatch.setattr(slamm, "_BLOCK", block)
        lengths = np.array([0, 0, 7, 1, 0, 3, 256, 0, 2, 0, 0], dtype=np.uint16)
        c1 = r1 = 0
        for c0, lens, r0, end in slamm._context_blocks(lengths):
            assert (c0, r0) == (c1, r1)
            np.testing.assert_array_equal(lens, lengths[c0 : c0 + len(lens)])
            assert end - r0 == lens.sum() > 0
            assert end - r0 <= block or np.count_nonzero(lens) == 1
            c1, r1 = c0 + len(lens), end
        assert r1 == lengths.sum()
        assert not lengths[c1:].any()

    def test_no_records_make_no_blocks(self):
        assert list(slamm._context_blocks(np.zeros(256, dtype=np.uint16))) == []


def _dense_context_stats(model, k):
    """Per-context total and distinct continuations of order k, from a
    full scan of the dense counts."""
    table = exact_counts(model.tables[k - 1]).reshape(256 ** (k - 1), 256)
    return table.sum(axis=1, dtype=np.int64), np.count_nonzero(table, axis=1)


def _dense_context_tables(model, k):
    """The per-context total and back-off weight finalize keeps for order
    k (``_tk_safe`` and ``_lam``), from a full scan of the dense counts:
    total and d * distinct / total, both 1 where the context is unseen."""
    total, distinct = _dense_context_stats(model, k)
    seen = total > 0
    tk_safe = np.where(seen, total, 1.0)
    return tk_safe, np.where(seen, model.smoothing.discount * distinct / tk_safe, 1.0)


class TestLoadedTables:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("block", [5, 1 << 18])
    def test_loaded_equals_trained(self, tmp_path, monkeypatch, n, block):
        # Small blocks split context runs across blocks on load and on
        # finalize; bytes 0..39 leave most contexts unseen. A run of
        # zeros sets the largest trigram count, 998 or 69,998, and so
        # the type of the exact trigram counts, which the trigram table's
        # overflow holds; training skips an empty run. Loaded blocks end
        # after an even code, whose odd neighbour's nibble stays zero, and
        # after an odd one: the unigram block after "r", the bigram blocks
        # after odd bytes, and the trigram blocks after either.
        monkeypatch.setattr(slamm, "_BLOCK", block)
        ends = set()
        fill = slamm._CountTable.fill

        def spy(table, codes, counts):
            ends.add(int(codes[-1]) & 1)
            fill(table, codes, counts)

        monkeypatch.setattr(slamm._CountTable, "fill", spy)
        for zeros, top_dtype in [(0, np.uint8), (1000, np.uint16), (70_000, np.uint32)]:
            self._check_loaded_equals_trained(tmp_path, n, zeros, top_dtype)
        assert ends == ({0} if n == 1 else {0, 1})

    def _check_loaded_equals_trained(self, tmp_path, n, zeros, top_dtype):
        rng = np.random.default_rng(20 + n)
        docs = [rng.integers(0, 40, 3000).astype(np.uint8).tobytes() for _ in range(3)]
        docs += [b"abracadabra", b"\0" * zeros]
        trained = slamm.NgramModel.train(
            docs, n=n, smoothing=slamm.SmoothingParams(discount=0.37)
        )
        path = tmp_path / "m.slmm"
        trained.save(path)
        loaded = slamm.NgramModel.load(path)
        if n == 3:
            assert loaded.tables[2].cells.nbytes == 256**3 // 2
            assert exact_counts(loaded.tables[2]).dtype == top_dtype
        assert len(trained.tables) == len(loaded.tables) == n
        # Every order follows the one layout rule, and the loaded cells
        # and overflow are the trained ones.
        for mine, read in zip(trained.tables, loaded.tables):
            a, b = exact_counts(mine), exact_counts(read)
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype == np.min_scalar_type(int(a.max()))
            assert assert_layout(mine) == assert_layout(read)
            assert mine.cells.dtype == read.cells.dtype
            np.testing.assert_array_equal(mine.cells, read.cells)
            for x, y in zip(mine.overflow, read.overflow):
                np.testing.assert_array_equal(x, y)
                assert x.dtype == y.dtype
        suspects = [docs[0][:500], b"\0" * 300 + b"abracadabra", bytes(range(256))]
        suspects.append(rng.integers(0, 256, 2000).astype(np.uint8).tobytes())
        for data in suspects:
            p = slamm.NgramHistogram.from_data(data, n)
            assert slamm.cross_entropy(loaded, p) == slamm.cross_entropy(trained, p)
            (h_trained, q_trained), (h_loaded, q_loaded) = (
                zoo_masses(trained, p), zoo_masses(loaded, p)
            )
            assert slamm.kld(p, h_loaded, qv=q_loaded) == slamm.kld(p, h_trained, qv=q_trained)
            assert slamm.mse(h_loaded, p, q_loaded) == slamm.mse(h_trained, p, q_trained)
            v_trained = slamm.slamm_classify(data, [trained], trained)
            v_loaded = slamm.slamm_classify(data, [loaded], loaded)
            assert v_loaded == v_trained
        for attr in ("_tk_safe", "_lam"):
            a, b = getattr(trained, attr), getattr(loaded, attr)
            assert len(a) == len(b) == n - 1
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(trained._lower_q, loaded._lower_q)
        assert trained.total_tokens == loaded.total_tokens
        for k in range(2, n + 1):
            total, _ = _dense_context_stats(trained, k)
            tk_safe, lam = _dense_context_tables(trained, k)
            np.testing.assert_array_equal(loaded._tk_safe[k - 2], tk_safe)
            np.testing.assert_array_equal(loaded._lam[k - 2], lam)
            seen = total > 0
            np.testing.assert_array_equal(loaded._tk_safe[k - 2][seen], total[seen])
            assert np.all(loaded._tk_safe[k - 2][~seen] == 1)
            assert np.all(loaded._lam[k - 2][~seen] == 1.0)
        h_trained, h_loaded = trained.histogram(), loaded.histogram()
        top = exact_counts(trained.tables[-1])
        assert h_trained.support_size == h_loaded.support_size == np.count_nonzero(top)
        assert h_trained.total == h_loaded.total == top.sum()
        assert h_trained.sum_of_squares == h_loaded.sum_of_squares
        assert h_loaded.sum_of_squares == pytest.approx(
            ((top[top != 0] / top.sum()) ** 2).sum(), rel=1e-15
        )


class TestOneLayout:
    def test_trained_and_loaded_zoos_hold_one_layout(self, tmp_path, synth_files):
        # Each synth zoo, plus its first document twenty times so that
        # thousands of trigram counts reach the cap, trains and loads into
        # the same 4-bit trigram table and overflow, and the same tables
        # of every lower order.
        docs, _ = synth_files
        for zoo, zoo_docs in docs.items():
            trained = slamm.NgramModel.train(zoo_docs + [zoo_docs[0] * 20], n=3, zoo_id=zoo)
            trained.save(tmp_path / f"{zoo}.slmm")
            loaded = slamm.NgramModel.load(tmp_path / f"{zoo}.slmm")
            assert assert_layout(trained.tables[2]) == 15
            assert len(trained.tables[2].overflow[0]) > 1000
            for mine, read in zip(trained.tables, loaded.tables):
                assert assert_layout(mine) == assert_layout(read)
                # Every stored run is merged before finalize, so scoring
                # threads read one sorted overflow.
                assert mine._pending == read._pending == []
                assert mine.cells.dtype == read.cells.dtype
                np.testing.assert_array_equal(mine.cells, read.cells)
                for a, b in zip(mine.overflow, read.overflow):
                    np.testing.assert_array_equal(a, b)
                    assert a.dtype == b.dtype


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    """Synth training documents per zoo and held-out suspects."""
    root = tmp_path_factory.mktemp("synth")
    profiles = {
        "benign": "benign_like",
        "polymorphic": "polymorphic_like",
        "metamorphic": "metamorphic_like",
        "packed": "packed_like",
    }
    zoos, suspects = {}, []
    for zoo, profile in profiles.items():
        manifest = synth.synth_corpus(profile, 4, (2048, 4096), 9, root / profile)
        docs = [Path(e.path).read_bytes() for e in manifest]
        zoos[zoo] = docs[:3]
        suspects += docs[3:]
    return zoos, suspects


class TestSlammClassifyDiagnostics:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_diagnostics_equal_standalone_scores(self, tmp_path, synth_files, n):
        docs, suspects = synth_files
        models = {}
        for zoo, zoo_docs in docs.items():
            path = tmp_path / f"{zoo}.slmm"
            slamm.NgramModel.train(zoo_docs, n=n, zoo_id=zoo).save(path)
            models[zoo] = slamm.NgramModel.load(path)
        benign = models.pop("benign")
        for data in suspects:
            v = slamm.slamm_classify(data, list(models.values()), benign)
            p = slamm.NgramHistogram.from_data(data, n)
            for zoo, model in {"benign": benign, **models}.items():
                got = v.diagnostics[zoo]
                masses, qv = zoo_masses(model, p)
                assert got["cross_entropy"] == slamm.cross_entropy(model, p)
                assert got["kld"] == slamm.kld(p, masses, qv=qv)
                assert got["mse"] == pytest.approx(
                    slamm.mse(masses, p, qv), rel=1e-15, abs=0
                )

    @pytest.mark.parametrize("helpers", [1, 3])
    def test_pooled_equals_serial(self, synth_files, helpers):
        # Bit for bit: every zoo is scored by the same code on any thread.
        docs, suspects = synth_files
        models = {zoo: slamm.NgramModel.train(d, n=3, zoo_id=zoo) for zoo, d in docs.items()}
        benign = models.pop("benign")
        malware = list(models.values())
        with SharedPool(helpers) as pool:
            for data in suspects:
                serial = slamm.slamm_classify(data, malware, benign)
                pooled = slamm.slamm_classify(data, malware, benign, pool.map)
                assert pooled == serial
                assert list(pooled.diagnostics) == list(serial.diagnostics)


def _pooled_counts(docs, n):
    """Distinct n-gram codes over all documents and their counts."""
    codes = np.concatenate([slamm.encode_ngrams(d, n) for d in docs])
    return np.unique(codes, return_counts=True)


class TestHistogram:
    def test_from_data_golden(self):
        h = slamm.NgramHistogram.from_data(b"abab", 2)
        assert as_dict(h) == {b"ab": pytest.approx(2 / 3), b"ba": pytest.approx(1 / 3)}

    def test_pooled_zoo(self):
        # A zoo's masses pool the n-grams of all its documents.
        model = slamm.NgramModel.train([b"ab", b"ab", b"cd"], n=2)
        masses = model.histogram()
        got = exact_counts(model.tables[1])[np.array([0x6162, 0x6364, 0x6263])] / masses.total
        np.testing.assert_allclose(got, [2 / 3, 1 / 3, 0.0], rtol=1e-15)
        assert masses.support_size == 2
        assert masses.sum_of_squares == pytest.approx(5 / 9, rel=1e-15)

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 64, 5000).astype(np.uint8).tobytes()
        h = slamm.NgramHistogram.from_data(data, 3)
        assert h.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_model_histogram_matches_raw(self):
        docs = [b"abracadabra", b"banana"]
        keys, counts = _pooled_counts(docs, 2)
        model = slamm.NgramModel.train(docs, n=2)
        masses = model.histogram()
        assert masses.support_size == len(keys)
        assert masses.total == counts.sum()
        assert exact_counts(model.tables[1])[keys] / masses.total == pytest.approx(counts / counts.sum())
        assert masses.sum_of_squares == pytest.approx(((counts / counts.sum()) ** 2).sum())

    @pytest.mark.parametrize("n", [2, 3])
    def test_count_view_scores_like_pooled(self, n):
        # A zoo's gathered counts and three numbers give the same KLD and
        # MSE as the pooled sparse histogram of the same documents.
        rng = np.random.default_rng(10 + n)
        docs = [b"abracadabra", b"banana"]
        docs += [rng.integers(0, 32, 1500).astype(np.uint8).tobytes() for _ in range(3)]
        model = slamm.NgramModel.train(docs, n=n)
        keys, counts = _pooled_counts(docs, n)
        raw = slamm.NgramHistogram(n=n, keys=keys, probs=counts / counts.sum())
        assert model.histogram().support_size == raw.support_size
        for suspect in (docs[0], rng.integers(0, 40, 800).astype(np.uint8).tobytes()):
            p = slamm.NgramHistogram.from_data(suspect, n)
            masses, qv = zoo_masses(model, p)
            assert slamm.kld(p, masses, qv=qv) == pytest.approx(slamm.kld(p, raw), abs=1e-12)
            assert slamm.mse(masses, p, qv) == pytest.approx(slamm.mse(raw, p), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_from_data_matches_unique(self, n):
        rng = np.random.default_rng(30 + n)
        data = rng.integers(0, 48, 4000).astype(np.uint8).tobytes()
        keys, counts = np.unique(slamm.encode_ngrams(data, n), return_counts=True)
        h = slamm.NgramHistogram.from_data(data, n)
        assert h.keys.dtype == np.int64
        np.testing.assert_array_equal(h.keys, keys)
        np.testing.assert_array_equal(h.probs, counts / counts.sum())

    def test_lookup_misses_are_zero(self):
        h = slamm.NgramHistogram.from_data(b"abab", 2)
        out = h.lookup(np.array([0x6162, 0x7878]))
        assert out[0] > 0 and out[1] == 0.0


class TestKld:
    def test_identical_is_zero(self):
        p = slamm.NgramHistogram.from_data(b"abracadabra", 2)
        assert slamm.kld(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_golden_two_point(self):
        p = slamm.NgramHistogram.from_masses({b"a": 0.5, b"b": 0.5}, 1)
        q = slamm.NgramHistogram.from_masses({b"a": 0.25, b"b": 0.75}, 1)
        expect = 0.5 * math.log2(0.5 / 0.25) + 0.5 * math.log2(0.5 / 0.75)
        assert slamm.kld(p, q) == pytest.approx(expect, abs=1e-12)

    def test_missing_mass_floored(self):
        p = slamm.NgramHistogram.from_masses({b"a": 1.0}, 1)
        q = slamm.NgramHistogram.from_masses({b"b": 1.0}, 1)
        assert slamm.kld(p, q, eps=1e-10) == pytest.approx(
            math.log2(1 / 1e-10), abs=1e-9
        )

    @settings(max_examples=100)
    @given(
        st.dictionaries(
            st.integers(0, 255),
            st.tuples(st.integers(1, 50), st.integers(1, 50)),
            min_size=1,
            max_size=20,
        )
    )
    def test_nonnegative_on_shared_support(self, weights):
        # p and q share the same support; counts normalized to masses
        p_tot = sum(a for a, _ in weights.values())
        q_tot = sum(b for _, b in weights.values())
        p = slamm.NgramHistogram.from_masses(
            {bytes([k]): a / p_tot for k, (a, _) in weights.items()}, 1
        )
        q = slamm.NgramHistogram.from_masses(
            {bytes([k]): b / q_tot for k, (_, b) in weights.items()}, 1
        )
        assert slamm.kld(p, q) >= -1e-12


class TestMse:
    def test_golden(self):
        model = slamm.NgramHistogram.from_masses({b"a": 0.5, b"b": 0.5}, 1)
        p = slamm.NgramHistogram.from_masses({b"a": 1.0}, 1)
        # ((1-0.5)^2 + (0-0.5)^2) / 2
        assert slamm.mse(model, p) == pytest.approx(0.25, abs=1e-12)

    def test_identical_is_zero(self):
        h = slamm.NgramHistogram.from_data(b"abracadabra", 2)
        assert slamm.mse(h, h) == pytest.approx(0.0, abs=1e-15)

    def test_mass_outside_model_support_ignored(self):
        model = slamm.NgramHistogram.from_masses({b"a": 1.0}, 1)
        p = slamm.NgramHistogram.from_masses({b"b": 1.0}, 1)
        # only the model's event {a}: (0 - 1)^2 / 1
        assert slamm.mse(model, p) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100)
    @given(
        st.dictionaries(st.integers(0, 255), st.integers(1, 30), min_size=1, max_size=15),
        st.dictionaries(st.integers(0, 255), st.integers(1, 30), min_size=1, max_size=15),
    )
    def test_matches_brute_force(self, qc, pc):
        q = slamm.NgramHistogram.from_masses(
            {bytes([k]): v / sum(qc.values()) for k, v in qc.items()}, 1
        )
        p = slamm.NgramHistogram.from_masses(
            {bytes([k]): v / sum(pc.values()) for k, v in pc.items()}, 1
        )
        qd, pd = as_dict(q), as_dict(p)
        brute = sum((pd.get(g, 0.0) - qd[g]) ** 2 for g in qd) / len(qd)
        assert slamm.mse(q, p) == pytest.approx(brute, abs=1e-12)


def _zoo(docs, n=2, zoo_id=""):
    return slamm.NgramModel.train(docs, n=n, zoo_id=zoo_id)


class TestClassifiers:
    def test_tie_resolves_benign(self):
        docs = [b"abracadabra" * 4]
        malware = _zoo(docs, zoo_id="mal")
        benign = _zoo(docs, zoo_id="ben")
        v = slamm.slamm_classify(b"abracadabra", [malware], benign)
        assert not v.cx and not v.cd and not v.cmse and not v.overall

    def test_clear_separation(self):
        rng = np.random.default_rng(3)
        rand_docs = [
            rng.integers(0, 256, 4000).astype(np.uint8).tobytes() for _ in range(6)
        ]
        text_docs = [b"the quick brown fox jumps over the lazy dog " * 40
                     for _ in range(6)]
        malware = _zoo(rand_docs, zoo_id="rand")
        benign = _zoo(text_docs, zoo_id="text")

        suspect = rng.integers(0, 256, 3000).astype(np.uint8).tobytes()
        v = slamm.slamm_classify(suspect, [malware], benign)
        assert v.overall

        clean = b"the quick brown fox jumps over the lazy dog " * 30
        v = slamm.slamm_classify(clean, [malware], benign)
        assert not v.overall

    def test_or_across_zoos(self):
        rng = np.random.default_rng(4)
        rand_docs = [
            rng.integers(0, 256, 4000).astype(np.uint8).tobytes() for _ in range(6)
        ]
        zero_docs = [b"\x00" * 2000 for _ in range(3)]
        text_docs = [b"pack my box with five dozen liquor jugs " * 40
                     for _ in range(6)]
        benign = _zoo(text_docs, zoo_id="text")
        far = _zoo(zero_docs, zoo_id="zeros")
        near = _zoo(rand_docs, zoo_id="rand")

        suspect = rng.integers(0, 256, 3000).astype(np.uint8).tobytes()
        alone = slamm.slamm_classify(suspect, [far], benign)
        both = slamm.slamm_classify(suspect, [far, near], benign)
        assert both.overall
        # adding a matching zoo can only turn flags on, never off
        for flag in ("cx", "cd", "cmse"):
            assert getattr(both, flag) >= getattr(alone, flag)

    def test_diagnostics_shape(self):
        docs = [b"abracadabra" * 4]
        v = slamm.slamm_classify(
            b"banana" * 5, [_zoo(docs, zoo_id="z1")], _zoo(docs, zoo_id="ben")
        )
        assert set(v.diagnostics) == {"benign", "z1"}
        for scores in v.diagnostics.values():
            assert set(scores) == {"cross_entropy", "kld", "mse"}

    def test_empty_model_list(self):
        benign = _zoo([b"abcdef" * 10])
        with pytest.raises(DataError):
            slamm.slamm_classify(b"abcdef", [], benign)

    def test_verdict_consistency_enforced(self):
        with pytest.raises(ValueError):
            slamm.SlammVerdict(cx=True, cd=True, cmse=True, overall=False,
                               diagnostics={})
