"""Byte n-gram language models and the three-way zoo comparison.

A model per zoo (counts of all k-grams up to order n, absolute-
discounting back-off smoothing) supports three classifiers:

* cross-entropy of the suspect under each zoo model,
* Kullback-Leibler divergence between raw n-gram histograms,
* mean squared error between histograms over the model's event set.

A suspect is flagged as malware only when all three agree; with
several malware models each classifier is OR-ed across them first.

All three score one sparse histogram of the suspect, built once per
file, and one gather per zoo of its top-order counts at the suspect's
codes: cross-entropy smooths them; KLD and MSE divide them by the zoo's
total and read its support size and sum of squares (:class:`ZooMasses`).

Counts are kept as dense arrays indexed by the n-gram's big-endian
integer code, which bounds the supported order at 3 (256^4 cells do
not fit in desk memory; the reference configuration is n = 3). Every
order's table holds each count capped at the largest value of its
cells, and a sorted overflow holds the exact counts of the capped cells
(:class:`_CountTable`), so a zoo whose trigram counts are mostly below
15 keeps half a byte per cell.

A model file (format version 3) is the header (magic ``SLMM``, then
``<HBH d d``: version, order, zoo id length, discount, unseen floor),
the UTF-8 zoo id, and per order k, ascending: a ``<Q`` record count N,
a ``<B`` count width W (1, 2, 4 or 8), 256^(k-1) little-endian uint16
context lengths and N packed records. Each order is a compressed sparse
row matrix, context x last byte: a context's length is how many
non-zero order-k counts have ``code >> 8`` equal to it (0 to 256), and
a record is the gram's last byte (``code & 0xFF``) and its count as a
little-endian unsigned W-byte integer. Contexts are ascending, and last
bytes strictly increasing within a context. W is the narrowest that
holds the order's largest count, so a trigram record whose count fits
in 16 bits takes 2 or 3 bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError

MAX_DENSE_ORDER = 3

_MAGIC = b"SLMM"
_FORMAT_VERSION = 3
# Records per block of whole contexts when a model's counts are read,
# written or tallied; a longer context forms a block alone.
_BLOCK = 1 << 18
# Suspect codes per block of cross-entropy terms.
_CE_BLOCK = 1 << 14


def _read_exact(fh, size: int, what: str) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise DataError(
            f"truncated model file: {what} needs {size} bytes, got {len(raw)}"
        )
    return raw


def _record_dtype(width: int) -> np.dtype:
    """One packed record: a gram's last byte, then its count as a
    little-endian unsigned integer of ``width`` bytes."""
    return np.dtype([("b", "u1"), ("c", f"<u{width}")])


def _context_blocks(lengths: np.ndarray):
    """Split an order's records into blocks of whole contexts, given each
    context's record count ``lengths``, and yield ``(c0, lens, r0, r1)``
    per block: its first context, its contexts' lengths and its record
    range. A block holds at most ``_BLOCK`` records, unless one context
    holds more; every block holds at least one record."""
    ends = np.cumsum(lengths, dtype=np.int64)
    total = int(ends[-1])
    c0 = r0 = 0
    while r0 < total:
        c1 = max(
            int(np.searchsorted(ends, r0 + _BLOCK, side="right")),
            int(np.searchsorted(ends, r0, side="right")) + 1,
        )
        r1 = int(ends[c1 - 1])
        yield c0, lengths[c0:c1], r0, r1
        c0, r0 = c1, r1


def _read_records(fh, model: "NgramModel"):
    """Read each order's record count, width, context lengths and
    records into the model's tables and yield ``(k, c0, lens, codes,
    counts)`` per block of whole contexts (:func:`_context_blocks`);
    bytes after the last order raise DataError.

    Every record is read once, with no seek. A block's codes are rebuilt
    as ``np.repeat(ctx << 8, lens) | last``, uint32, and its counts are
    yielded in their width, which finalize tallies as they are. Context
    lengths must be at most 256 and sum to the record count, last bytes
    strictly increasing within a context, and counts non-zero, below
    2^63 (training sums them in int64) and in the narrowest width that
    holds the largest, as :meth:`NgramModel.save` writes them; anything
    else raises DataError. Each block is added into the order's table
    as training adds a document's counts (:meth:`_CountTable.add`), and
    the pending runs are merged after the order's last, so the loaded
    tables are the trained ones.
    """
    for k, table in enumerate(model.tables, 1):
        count, width = struct.unpack(
            "<QB", _read_exact(fh, 9, f"order-{k} record count and width")
        )
        if count > 256**k:
            raise DataError(f"order-{k} record count {count} exceeds 256^{k}")
        if width not in (1, 2, 4, 8):
            raise DataError(f"order-{k} count width {width} is not 1, 2, 4 or 8")
        lengths = np.frombuffer(
            _read_exact(fh, 2 * 256 ** (k - 1), f"order-{k} context lengths"), dtype="<u2"
        )
        if lengths.max() > 256:
            raise DataError(f"order-{k} context length {lengths.max()} exceeds 256")
        if int(lengths.sum(dtype=np.int64)) != count:
            raise DataError(
                f"order-{k} context lengths sum to {lengths.sum(dtype=np.int64)}, "
                f"not the record count {count}"
            )
        record = _record_dtype(width)
        top = 0
        for c0, lens, r0, r1 in _context_blocks(lengths):
            rec = np.frombuffer(
                _read_exact(fh, record.itemsize * (r1 - r0), f"order-{k} records"),
                dtype=record,
            )
            codes = np.repeat(np.arange(c0, c0 + len(lens), dtype=np.uint32) << 8, lens)
            codes |= rec["b"]
            counts = rec["c"]
            # Contexts ascend, so the codes increase across them.
            if not np.all(codes[1:] > codes[:-1]):
                raise DataError(
                    f"order-{k} last bytes not strictly increasing within a context"
                )
            top = max(top, int(counts.max()))
            if top > np.iinfo(np.int64).max:
                raise DataError(f"order-{k} count overflows its counter")
            if counts.min() == 0:
                raise DataError(f"order-{k} record has a zero count")
            table.add(codes, counts)
            yield k, c0, lens, codes, counts
        table.merge()
        if np.min_scalar_type(top).itemsize != width:
            raise DataError(
                f"order-{k} count width {width} is wider than its largest count needs"
            )
    if fh.read(1):
        raise DataError(f"trailing bytes after the order-{model.n} records")


def _narrowest(counts: np.ndarray) -> np.ndarray:
    """``counts`` in the narrowest unsigned type of the largest (uint8
    if there are none)."""
    return counts.astype(np.min_scalar_type(int(counts.max(initial=0))))


@dataclass(frozen=True)
class SmoothingParams:
    discount: float = 0.5
    unseen_floor: float = 1e-10

    def __post_init__(self):
        if not 0 < self.discount < 1:
            raise ValueError("discount must be in (0, 1)")
        if not 0 < self.unseen_floor < 1:
            raise ValueError("unseen_floor must be in (0, 1)")


def encode_ngrams(data: bytes, n: int, dtype: type = np.int64) -> np.ndarray:
    """Integer codes of the overlapping n-grams of ``data`` (stride 1).

    ``dtype`` must hold 256^n - 1; int32 does for n <= 3 and sorts
    faster than int64.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(data) < n:
        raise DataError(f"input shorter than n-gram order ({len(data)} < {n})")
    arr = np.frombuffer(data, dtype=np.uint8)
    m = len(arr) - n + 1
    codes = arr[:m].astype(dtype)
    for j in range(1, n):
        codes <<= 8
        codes |= arr[j : j + m]
    return codes


def _sorted_runs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``codes``, ascending, and how often each
    occurs. Sorts ``codes`` in place."""
    codes.sort()
    first = np.empty(len(codes), dtype=bool)
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return codes[starts], np.diff(starts, append=len(codes))


class _CountTable:
    """The counts of one order's ``size`` codes: each cell holds min(count,
    cap), and ``overflow`` holds the ascending uint32 codes of the cells
    at the cap and their exact counts, in the narrowest type of the
    largest.

    The rungs, narrowest first, are 4-bit cells (cap 15, two per byte:
    cell ``code`` is nibble ``code & 1`` of byte ``code >> 1``, the low
    nibble for an even code), then uint8, uint16, uint32 and uint64 (cap
    max(T)). A table starts in 4-bit cells and widens one rung while its
    overflow, a 4-byte code and a count per cell, would take as many
    bytes as its cells, so the layout depends only on the counts: a
    trigram zoo whose counts are mostly below 15 holds 8 MiB and an
    overflow, one with many larger counts a wider table.
    """

    def __init__(self, size: int):
        self.size = size
        self.cells = np.zeros(size // 2, dtype=np.uint8)
        self.overflow = (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint8))
        # Runs of codes at the cap and the parts of their counts that the
        # overflow lacks, until :meth:`merge` adds them.
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    def _nibbles(self) -> bool:
        """Whether the table holds two 4-bit cells per byte."""
        return self.cells.size < self.size

    @staticmethod
    def _nibble_index(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where 4-bit cells of ``codes`` are: byte ``code >> 1``, as intp,
        which indexes without a conversion, and the shift of nibble
        ``code & 1`` (0 or 4), as uint8, so a gathered uint8 byte shifted
        by it stays uint8."""
        shift = codes.astype(np.uint8)
        shift &= 1
        shift <<= 2
        return np.right_shift(codes, 1, dtype=np.intp), shift

    @property
    def cap(self) -> int:
        """The largest value a cell holds, which names the table's rung:
        15 in 4-bit cells, else max(T)."""
        return 15 if self._nibbles() else int(np.iinfo(self.cells.dtype).max)

    def add(self, codes: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Add ``counts`` to the counts at ascending ``codes``, every sum
        below 2^63, and return the cells they had, 0 where a code had no
        count.

        Each cell takes min(sum, cap). The codes whose cell reaches the
        cap form a pending run of what the overflow lacks of their
        counts: the sum where the cell was below the cap, else only
        ``counts``, since the overflow and the earlier runs hold the
        rest. So neither training nor loading looks an overflow count
        up. The runs are merged (:meth:`merge`) once they hold as many
        cells as the overflow, so each merge at least doubles what it
        copies, and before the exact counts are read.
        """
        cap = self.cap
        table = self.cells
        if self._nibbles():
            byte, shift = self._nibble_index(codes)
            packed = table[byte]
            had = packed >> shift
            had &= 15
            # min(count, 15) plus a cell of at most 15 fits in uint8. (A
            # masked store is faster here than np.minimum with a scalar.)
            cells = counts.astype(np.uint8)
            cells[counts >= cap] = cap
            cells += had
            full = cells >= cap
            cells[full] = cap
            cells <<= shift
            packed &= np.right_shift(0xF0, shift)  # the byte's other nibble
            packed |= cells
            # Codes are unique and ascending, so codes 2b and 2b+1 are
            # neighbours: both write byte b, each with both nibbles.
            pair = np.flatnonzero(byte[1:] == byte[:-1])
            packed[pair] = packed[pair + 1] = cells[pair] | cells[pair + 1]
            table[byte] = packed
        else:
            had = table[codes]
            # Counts stay below 2^63, so casting a uint64 one to int64 is exact.
            sums = np.add(had, counts, dtype=np.int64, casting="unsafe")
            full = sums >= cap
            # A sum past the cap wraps in its cell here; the cell is then
            # set to the cap.
            table[codes] = sums
            table[codes[full]] = cap
        over = np.flatnonzero(full)
        if len(over):
            part = np.add(
                counts[over], np.where(had[over] == cap, 0, had[over]),
                dtype=np.int64, casting="unsafe",
            )
            self._pending.append((codes[over].astype(np.uint32), _narrowest(part)))
            if sum(len(c) for c, _ in self._pending) >= len(self.overflow[0]):
                self.merge()
        return had

    def merge(self) -> None:
        """Merge the pending runs into the overflow, each code's count the
        sum of its parts, then widen the table while the overflow's
        bytes, a 4-byte code and a count per cell, would reach the
        table's (:meth:`widen`)."""
        if self._pending:
            runs = [self.overflow, *self._pending]
            self._pending = []
            codes = np.concatenate([c for c, _ in runs])
            counts = np.concatenate([n for _, n in runs])
            # Loaded blocks ascend and are disjoint, so their runs need no
            # sort; training's runs share codes, whose parts are summed.
            if not np.all(codes[1:] > codes[:-1]):
                order = np.argsort(codes, kind="stable")
                codes = codes[order]
                first = np.ones(len(codes), dtype=bool)
                np.not_equal(codes[1:], codes[:-1], out=first[1:])
                starts = np.flatnonzero(first)
                counts = np.add.reduceat(counts[order], starts, dtype=np.uint64)
                codes = codes[starts]
            self.overflow = (codes, _narrowest(counts))
        while len(self.overflow[0]) * (4 + self.overflow[1].itemsize) >= self.cells.nbytes:
            self.widen()

    def widen(self) -> None:
        """Widen the table one rung, 4-bit cells to uint8 and uint8 on to
        uint16, uint32 and uint64. The cells below the new cap leave the
        overflow, which holds no pending run, for the table."""
        table = self.cells
        if self._nibbles():
            wide = np.empty(2 * table.size, dtype=np.uint8)
            np.bitwise_and(table, 15, out=wide[0::2])
            np.right_shift(table, 4, out=wide[1::2])
        else:
            wide = table.astype(f"u{2 * table.itemsize}")
        self.cells = wide
        cap = self.cap
        codes, counts = self.overflow
        left = counts < cap
        wide[codes[left]] = counts[left]
        codes = codes[~left]
        wide[codes] = cap
        self.overflow = (codes, _narrowest(counts[~left]))

    def gather(self, codes: np.ndarray) -> np.ndarray:
        """The exact counts at ``codes``: the cells', each at the cap
        replaced by its overflow count. Pending runs must be merged."""
        if self._nibbles():
            byte, shift = self._nibble_index(codes)
            counts = self.cells[byte]
            counts >>= shift
            counts &= 15
        else:
            counts = self.cells[codes]
        over_codes, over_counts = self.overflow
        if len(over_codes):
            full = np.flatnonzero(counts == self.cap)
            if len(full):
                counts = counts.astype(np.promote_types(counts.dtype, over_counts.dtype))
                # Searched as uint32, so the overflow is not converted.
                pos = np.searchsorted(over_codes, codes[full].astype(np.uint32))
                counts[full] = over_counts[pos]
        return counts

    def nonzero(self) -> np.ndarray:
        """Ascending codes of the non-zero counts, by a scan of the cells."""
        table = self.cells
        if not self._nibbles():
            return np.flatnonzero(table)
        # Each non-zero byte holds one or two non-zero cells.
        byte = np.flatnonzero(table)
        cells = np.stack([table[byte] & 15, table[byte] >> 4], axis=1)
        return ((byte << 1)[:, None] + np.arange(2))[cells > 0]

    def width(self) -> int:
        """Bytes of the narrowest unsigned type that holds the largest
        exact count: the overflow's largest if it holds any, since no cell
        exceeds the cap, else the largest cell's. A 4-bit table's bytes,
        like its cells, fit in one byte."""
        codes, counts = self.overflow
        largest = counts.max() if len(codes) else self.cells.max()
        return np.min_scalar_type(int(largest)).itemsize


class NgramModel:
    """Smoothed conditional byte n-gram model of one zoo.

    ``tables[k-1]`` holds the order-k counts, indexed by the k-gram's
    integer code, as a :class:`_CountTable`: capped cells and a sorted
    overflow of the exact counts at the cap, by one rule for every
    order. Immutable once finalized. Finalizing also tabulates the
    smoothed q of order n-1 (256^(n-1) values) from the exact counts of
    the orders below, so scoring smooths only the top order per code,
    which :meth:`top_counts` gathers.

    Training sorts each document's codes of every order into runs and
    adds their counts into the order's table, which widens as its
    overflow grows. The codes each document sees first are kept, so
    finalize and save read the non-zero counts without scanning 256^k
    cells. :meth:`load` adds each order's blocks into its table the same
    way, so a trained zoo and its loaded copy hold the same tables.
    """

    def __init__(self, n: int, smoothing: SmoothingParams, zoo_id: str = ""):
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > MAX_DENSE_ORDER:
            raise ValueError(
                f"order {n} exceeds the dense-counter limit (n <= {MAX_DENSE_ORDER})"
            )
        self.n = n
        self.smoothing = smoothing
        self.zoo_id = zoo_id
        self.tables = [_CountTable(256**k) for k in range(1, n + 1)]
        self._finalized = False
        # Per order, the codes first seen by each added document, until
        # _nonzero_codes sorts them into one array.
        self._first_seen: list[list[np.ndarray]] = [[] for _ in range(n)]
        # Per order, the context lengths of the non-zero counts, once
        # _context_lengths has found them.
        self._lengths: dict[int, np.ndarray] = {}

    # -- training ----------------------------------------------------

    def add_document(self, data: bytes) -> None:
        """Add the counts of every order's codes in ``data``, sorted into
        runs, and keep the codes each order had no count for."""
        if self._finalized:
            raise RuntimeError("model is immutable after finalize()")
        if len(data) < self.n:
            raise DataError("document shorter than n")
        for k, table in enumerate(self.tables, 1):
            keys, counts = _sorted_runs(encode_ngrams(data, k, np.int32))
            self._first_seen[k - 1].append(keys[table.add(keys, counts) == 0])

    def top_counts(self, codes: np.ndarray) -> np.ndarray:
        """The exact top-order counts at ``codes``."""
        return self.tables[-1].gather(codes)

    def finalize(
        self,
        records: Iterable[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]] | None = None,
    ) -> "NgramModel":
        """Freeze the model and tabulate what scoring reads.

        ``records`` yields ``(k, c0, lens, codes, counts)`` per block of
        whole order-k contexts, orders ascending: the block's first
        context, its contexts' record counts and the non-zero counts at
        their codes, strictly increasing. By default they are the
        model's own blocks, as :meth:`save` writes them; :meth:`load`
        passes the blocks it reads. One pass gives each context's
        number of distinct continuations, which is its length, its
        total, from one ``np.add.reduceat`` per block, and the top
        order's support size, total and sum of squared counts.
        """
        totals, distinct, sumsq = [0] * self.n, [0] * self.n, 0.0
        ctx_total = [np.zeros(256 ** (k - 1), dtype=np.int64) for k in range(2, self.n + 1)]
        ctx_distinct = [np.zeros_like(t) for t in ctx_total]
        if records is None:
            for table in self.tables:
                table.merge()
            records = self._records()
        for k, c0, lens, codes, counts in records:
            totals[k - 1] += int(counts.sum(dtype=np.int64))
            distinct[k - 1] += len(codes)
            if k == self.n:
                # Not a BLAS dot, whose worker threads would spin on after
                # it and slow a classify pool's first files. The squares
                # are integers, so below 2^53 any order sums them exactly.
                c = counts.astype(np.float64)
                sumsq += float(np.square(c, out=c).sum())
            if k >= 2:
                ctx = slice(c0, c0 + len(lens))
                ctx_distinct[k - 2][ctx] = lens
                seen = lens > 0
                starts = (np.cumsum(lens, dtype=np.int64) - lens)[seen]
                ctx_total[k - 2][ctx][seen] = np.add.reduceat(counts, starts, dtype=np.int64)
        self._total_tokens = totals[0]
        self._distinct_unigrams = distinct[0]
        self._top = (distinct[-1], totals[-1], sumsq)
        # Per context of order k >= 2: the total and the back-off weight
        # d * distinct / total, both 1 where the context is unseen, so the
        # discount step passes the lower order's q through unchanged. Only
        # these two are kept, not the tallies they come from. The total is
        # an integer in the narrowest unsigned type that holds it, which a
        # float64 divide widens exactly.
        d = self.smoothing.discount
        safe = [np.maximum(t, 1) for t in ctx_total]
        self._tk_safe = [s.astype(np.min_scalar_type(int(s.max()))) for s in safe]
        self._lam = [
            np.where(t > 0, d * c / s, 1.0)
            for t, c, s in zip(ctx_total, ctx_distinct, self._tk_safe)
        ]
        self._lower_q = self._lower_order_table()
        self._finalized = True
        return self

    def _nonzero_codes(self, k: int) -> np.ndarray:
        """Ascending codes of the non-zero order-k counts: the first-seen
        codes kept by training, sorted in place into one array on the
        first call, or for a model with no added documents a scan of the
        order's table."""
        seen = self._first_seen[k - 1]
        if not seen:
            return self.tables[k - 1].nonzero()
        if len(seen) > 1:
            codes = np.concatenate(seen)
            seen[:] = [codes]
            codes.sort()
        return seen[0]

    def _context_lengths(self, k: int) -> np.ndarray:
        """How many non-zero order-k counts each context holds, kept
        after the first call, so training's finalize and save find them
        once. They are the distances between the contexts' first
        positions in the ascending codes, found by binary search, so no
        array as long as the codes is allocated."""
        if k not in self._lengths:
            nz = self._nonzero_codes(k)
            firsts = np.arange(256 ** (k - 1) + 1, dtype=nz.dtype) << 8
            self._lengths[k] = np.diff(np.searchsorted(nz, firsts)).astype(np.uint16)
        return self._lengths[k]

    def _blocks(self, k: int):
        """The non-zero order-k counts as ``(k, c0, lens, codes, counts)``
        blocks of whole contexts, as :func:`_read_records` yields them."""
        nz = self._nonzero_codes(k)
        for c0, lens, r0, r1 in _context_blocks(self._context_lengths(k)):
            codes = nz[r0:r1]
            yield k, c0, lens, codes, self.tables[k - 1].gather(codes)

    def _records(self):
        """Every order's blocks, orders ascending."""
        for k in range(1, self.n + 1):
            yield from self._blocks(k)

    def _lower_order_table(self) -> np.ndarray:
        """Smoothed q at every code of order n-1, the top order's back-off.

        For n = 1 it is the uniform 1/256 the unigram backs off to. The
        orders below the top are read once, as exact counts gathered at
        all their 256 or 65,536 codes. The order-2 table is built over the
        (256, 256) context x byte view of its counts, with the unigram q
        broadcast over contexts; the context grid is full, as the step
        works in place. n <= 3, so no higher order is ever needed here.
        """
        q = np.full(1, 1.0 / 256.0)
        if self.n >= 2:
            q = self._discount_step(1, self.tables[0].gather(np.arange(256)), 0, q)
        if self.n == 3:
            ctx = np.arange(256)[:, None].repeat(256, axis=1)
            bigrams = self.tables[1].gather(np.arange(256**2)).reshape(256, 256)
            q = self._discount_step(2, bigrams, ctx, q).ravel()
        return q

    @property
    def total_tokens(self) -> int:
        self._require_finalized()
        return self._total_tokens

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError("model not finalized")

    @classmethod
    def train(
        cls,
        documents: Iterable[bytes],
        n: int = 3,
        smoothing: SmoothingParams | None = None,
        zoo_id: str = "",
        diagnostics: list[str] | None = None,
    ) -> "NgramModel":
        """Accumulate counts over a zoo; files shorter than n are skipped."""
        model = cls(n=n, smoothing=smoothing or SmoothingParams(), zoo_id=zoo_id)
        seen_any = False
        for i, doc in enumerate(documents):
            if len(doc) < n:
                if diagnostics is not None:
                    diagnostics.append(f"document {i} shorter than n={n}, skipped")
                continue
            model.add_document(doc)
            seen_any = True
        if not seen_any:
            raise DataError("empty zoo: no document long enough to train on")
        return model.finalize()

    # -- probabilities -----------------------------------------------

    def _discount_step(
        self, k: int, counts: np.ndarray, ctx: np.ndarray, lower: np.ndarray
    ) -> np.ndarray:
        """q at order k from the k-gram ``counts``, their (k-1)-gram
        contexts ``ctx`` and q of the order below at the same grams.

        Absolute discounting: subtract the discount from every seen
        count and hand the freed mass to the next-lower order; the base
        order backs off to uniform over the 256 byte values. Unseen
        contexts pass the lower order through, by the tables built at
        finalize. ``ctx`` has the shape of the result, which the step
        builds in place; ``counts`` and ``lower`` broadcast to it.
        """
        d = self.smoothing.discount
        # float64 whatever the counts' integer type and the discount's
        # scalar type: a NumPy float32 discount would otherwise give float32.
        q = np.subtract(counts, d, dtype=np.float64)
        np.maximum(q, 0.0, out=q)
        if k == 1:
            t1 = max(self._total_tokens, 1)
            q /= t1
            q += (d * self._distinct_unigrams / t1) * lower
            return q
        q /= self._tk_safe[k - 2][ctx]
        backoff = self._lam[k - 2][ctx]
        backoff *= lower
        q += backoff
        return q

    def _cond_probs_from_codes(
        self, codes: np.ndarray, top: np.ndarray | None = None
    ) -> np.ndarray:
        """Smoothed q(w | history) for each full-order code in ``codes``.

        The orders below the top come from the table built at
        finalize; only the top-order discount step runs per code.
        ``top`` holds ``top_counts(codes)`` if the caller has them.
        """
        lower = self._lower_q[codes & (len(self._lower_q) - 1)]
        if top is None:
            top = self.top_counts(codes)
        q = self._discount_step(self.n, top, codes >> 8, lower)
        return np.maximum(q, self.smoothing.unseen_floor, out=q)

    def conditional_distribution(self, context: bytes) -> np.ndarray:
        """q(w | context) for all 256 next-byte values."""
        self._require_finalized()
        if len(context) != self.n - 1:
            raise ValueError("context length must be n-1")
        base = int.from_bytes(context, "big") << 8 if context else 0
        codes = base + np.arange(256, dtype=np.int64)
        return self._cond_probs_from_codes(codes)

    def histogram(self) -> "ZooMasses":
        """The zoo's :class:`ZooMasses`, from the tally made at finalize."""
        self._require_finalized()
        support, total, sumsq = self._top
        if total == 0:
            raise DataError("model has no top-order counts")
        return ZooMasses(support, total, sumsq / total**2)

    # -- serialization -----------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the model in format version 3 (see the module docstring).

        Each order is written in the narrowest unsigned width of its
        largest exact count: its context lengths, then its records in the
        blocks of whole contexts that finalize tallies.
        """
        self._require_finalized()
        zoo = self.zoo_id.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(
                struct.pack(
                    "<HBH d d",
                    _FORMAT_VERSION,
                    self.n,
                    len(zoo),
                    self.smoothing.discount,
                    self.smoothing.unseen_floor,
                )
            )
            fh.write(zoo)
            for k, table in enumerate(self.tables, 1):
                lengths = self._context_lengths(k)
                width = table.width()
                fh.write(struct.pack("<QB", int(lengths.sum()), width))
                fh.write(lengths.astype("<u2").tobytes())
                record = _record_dtype(width)
                for _, _, _, codes, counts in self._blocks(k):
                    rec = np.empty(len(codes), dtype=record)
                    np.bitwise_and(codes, 0xFF, out=rec["b"], casting="unsafe")
                    rec["c"] = counts
                    fh.write(rec)

    @classmethod
    def load(cls, path: str | Path) -> "NgramModel":
        """Read a model file; a truncated or corrupt one, one with bytes
        after its last order, or one of another format version, raises
        DataError.

        A file of format version 2 or older asks for a retrain with
        slamm-train; no older format is read. Each block of whole
        contexts is read once and tallied by finalize as it is read, so
        loading makes no pass over the 256^n cells, nor allocates a
        table wider than the layout its counts give.
        """
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise DataError(f"not a model file: bad magic {magic!r}")
            version, n, zoo_len, d, eps = struct.unpack(
                "<HBH d d", _read_exact(fh, 21, "header")
            )
            if version != _FORMAT_VERSION:
                raise DataError(
                    f"unsupported model version {version}; this build reads "
                    f"version {_FORMAT_VERSION}, so retrain the zoo with slamm-train"
                )
            if not 1 <= n <= MAX_DENSE_ORDER:
                raise DataError(f"model order {n} outside 1..{MAX_DENSE_ORDER}")
            try:
                smoothing = SmoothingParams(discount=d, unseen_floor=eps)
            except ValueError as exc:
                raise DataError(f"bad smoothing parameters: {exc}") from None
            try:
                zoo_id = _read_exact(fh, zoo_len, "zoo id").decode("utf-8")
            except UnicodeDecodeError:
                raise DataError("zoo id is not UTF-8") from None
            model = cls(n=n, smoothing=smoothing, zoo_id=zoo_id)
            return model.finalize(_read_records(fh, model))


class ZooMasses(NamedTuple):
    """What KLD and MSE read of a zoo besides its gathered counts, whose
    masses are ``top_counts(codes) / total``."""

    support_size: int
    total: int
    sum_of_squares: float


@dataclass
class NgramHistogram:
    """A suspect's raw n-gram probability masses: sorted ``keys``,
    aligned ``probs`` and their sum of squares."""

    n: int
    keys: np.ndarray
    probs: np.ndarray

    @property
    def support_size(self) -> int:
        return len(self.keys)

    @property
    def sum_of_squares(self) -> float:
        return float((self.probs**2).sum())

    @classmethod
    def from_data(cls, data: bytes, n: int) -> "NgramHistogram":
        codes = encode_ngrams(data, n, np.int32 if 256**n <= 1 << 31 else np.int64)
        keys, counts = _sorted_runs(codes)
        probs = counts / counts.sum()
        return cls(n=n, keys=keys.astype(np.int64), probs=probs)

    @classmethod
    def from_masses(cls, masses: dict[bytes, float], n: int) -> "NgramHistogram":
        keys = np.array(
            sorted(int.from_bytes(g, "big") for g in masses), dtype=np.int64
        )
        probs = np.array(
            [masses[k.item().to_bytes(n, "big")] for k in keys], dtype=np.float64
        )
        return cls(n=n, keys=keys, probs=probs)

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """Masses at the given codes; zero where absent."""
        pos = np.searchsorted(self.keys, codes)
        pos = np.clip(pos, 0, len(self.keys) - 1)
        hit = self.keys[pos] == codes
        return np.where(hit, self.probs[pos], 0.0)


def _top_counts(model: NgramModel, p: NgramHistogram) -> np.ndarray:
    """The model's top-order counts at the suspect's distinct n-grams;
    a suspect of another order raises DataError."""
    if p.n != model.n:
        raise DataError(f"histogram order {p.n} does not match model order {model.n}")
    return model.top_counts(p.keys)


def cross_entropy(
    model: NgramModel, p: NgramHistogram, top: np.ndarray | None = None
) -> float:
    """Bits per token the model needs to encode a suspect.

    ``p`` is the suspect's top-order histogram; the result,
    -sum p * log2 q(p.keys), is the mean of -log2 q(w_i | history) over
    the suspect's positions, evaluated once per distinct n-gram.
    ``top`` holds the model's top-order counts at ``p.keys`` if the
    caller has already gathered them.

    The terms are computed ``_CE_BLOCK`` codes at a time, so the
    temporaries of the smoothing stay small; each term depends on its
    own code only, and one sum over all of them gives the result.
    """
    if top is None:
        top = _top_counts(model, p)
    terms = np.empty(len(p.keys))
    for start in range(0, len(terms), _CE_BLOCK):
        part = slice(start, start + _CE_BLOCK)
        block = terms[part]
        np.log2(model._cond_probs_from_codes(p.keys[part], top[part]), out=block)
        np.multiply(p.probs[part], block, out=block)
        np.negative(block, out=block)
    return float(terms.sum())


def kld(p: NgramHistogram, q: NgramHistogram | ZooMasses, eps: float = 1e-10,
        qv: np.ndarray | None = None) -> float:
    """Relative entropy of p from q, flooring zero q-masses at eps.

    ``qv`` holds q's masses at ``p.keys``; it is required when q is a
    zoo's :class:`ZooMasses`.
    """
    if p.support_size == 0:
        raise DataError("p has empty support")
    if qv is None:
        qv = q.lookup(p.keys)
    terms = np.where(qv > 0, qv, eps)
    np.divide(p.probs, terms, out=terms)
    np.log2(terms, out=terms)
    np.multiply(p.probs, terms, out=terms)
    return float(terms.sum())


def mse(model_hist: NgramHistogram | ZooMasses, p_hist: NgramHistogram,
        qv: np.ndarray | None = None) -> float:
    """Mean squared mass difference over the model's event set.

    ``qv`` holds the model's masses at ``p_hist.keys``; it is required
    when the model is a zoo's :class:`ZooMasses`.
    """
    m = model_hist.support_size
    if m == 0:
        raise DataError("model histogram has empty support")
    if qv is None:
        qv = model_hist.lookup(p_hist.keys)
    inside = qv > 0
    pv = p_hist.probs[inside]
    twice_pq = qv[inside]
    twice_pq *= pv
    twice_pq *= 2.0  # exact, so equal to (2p)q
    np.multiply(pv, pv, out=pv)
    pv -= twice_pq  # p^2 - 2pq at each shared event
    return (model_hist.sum_of_squares + float(pv.sum())) / m


@dataclass(frozen=True)
class SlammVerdict:
    cx: bool
    cd: bool
    cmse: bool
    overall: bool
    diagnostics: dict[str, dict[str, float]]

    def __post_init__(self):
        if self.overall != (self.cx and self.cd and self.cmse):
            raise ValueError("overall must be the conjunction of the three flags")


def diagnostic_keys(malware_models: Sequence[NgramModel]) -> list[str]:
    """The key of each malware zoo's scores in
    :attr:`SlammVerdict.diagnostics`: its zoo id, or ``zoo<i>`` for the
    i-th zoo, from 1, if it has none. The benign zoo's key is "benign"."""
    return [model.zoo_id or f"zoo{i}" for i, model in enumerate(malware_models, 1)]


def slamm_classify(
    data: bytes,
    malware_models: Sequence[NgramModel],
    benign: NgramModel,
    map: Callable = map,
) -> SlammVerdict:
    """Unanimous AND of the three classifiers, each OR-ed across zoos.

    Every zoo is scored from one histogram of the suspect and one
    gather of the zoo's top-order counts at its keys: cross-entropy
    smooths the counts, KLD and MSE divide them by the zoo's total.
    Ties resolve to benign: every comparison is a strict "<".

    ``map`` scores the zoos, benign first, and returns their scores in
    order; a pool's map scores them concurrently, with the same result.
    """
    if not malware_models:
        raise DataError("need at least one malware model")
    p_hist = NgramHistogram.from_data(data, benign.n)

    def scores(model: NgramModel) -> dict[str, float]:
        top = _top_counts(model, p_hist)
        ce = cross_entropy(model, p_hist, top)  # before qv: fewer arrays live at once
        masses = model.histogram()
        qv = top / masses.total
        return {"cross_entropy": ce, "kld": kld(p_hist, masses, qv=qv),
                "mse": mse(masses, p_hist, qv=qv)}

    base, *per_zoo = map(scores, [benign, *malware_models])
    diagnostics = {"benign": base}
    cx = cd = cmse = False
    for key, zoo in zip(diagnostic_keys(malware_models), per_zoo):
        diagnostics[key] = zoo
        cx = cx or zoo["cross_entropy"] < base["cross_entropy"]
        cd = cd or zoo["kld"] < base["kld"]
        cmse = cmse or zoo["mse"] < base["mse"]
    return SlammVerdict(
        cx=cx, cd=cd, cmse=cmse, overall=cx and cd and cmse, diagnostics=diagnostics
    )
