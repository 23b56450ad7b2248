"""Byte n-gram language models and the three-way zoo comparison.

A model per zoo (counts of all k-grams up to order n, absolute-
discounting back-off smoothing) supports three classifiers:

* cross-entropy of the suspect under each zoo model,
* Kullback-Leibler divergence between raw n-gram histograms,
* mean squared error between histograms over the model's event set.

A suspect is flagged as malware only when all three agree; with
several malware models each classifier is OR-ed across them first.

All three score one sparse histogram of the suspect, built once per
file: cross-entropy evaluates the smoothed model at its distinct codes,
KLD and MSE read the zoo's masses from its top-order counts in place.

Counts are kept as dense arrays indexed by the n-gram's big-endian
integer code, which bounds the supported order at 3 (256^4 cells do
not fit in desk memory; the reference configuration is n = 3).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

MAX_DENSE_ORDER = 3

_MAGIC = b"SLMM"
_FORMAT_VERSION = 1
# One record per non-zero count: big-endian gram code, count.
_RECORD = np.dtype([("g", ">u8"), ("c", "<u8")])


def _count_dtype(k: int) -> type:
    return np.int64 if 256**k <= 1 << 16 else np.int32


def _read_exact(fh, size: int, what: str) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise DataError(
            f"truncated model file: {what} needs {size} bytes, got {len(raw)}"
        )
    return raw


@dataclass(frozen=True)
class SmoothingParams:
    discount: float = 0.5
    unseen_floor: float = 1e-10

    def __post_init__(self):
        if not 0 < self.discount < 1:
            raise ValueError("discount must be in (0, 1)")
        if not 0 < self.unseen_floor < 1:
            raise ValueError("unseen_floor must be in (0, 1)")


def encode_ngrams(data: bytes, n: int) -> np.ndarray:
    """Integer codes of the overlapping n-grams of ``data`` (stride 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(data) < n:
        raise DataError(f"input shorter than n-gram order ({len(data)} < {n})")
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    m = len(arr) - n + 1
    codes = np.zeros(m, dtype=np.int64)
    for j in range(n):
        codes += arr[j : j + m] << (8 * (n - 1 - j))
    return codes


class NgramModel:
    """Smoothed conditional byte n-gram model of one zoo.

    ``counts[k-1]`` is the dense count array for order k, indexed by
    the k-gram's integer code. Immutable once finalized. Finalizing also
    tabulates the smoothed q of order n-1 (256^(n-1) values), so scoring
    smooths only the top order per code.
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
        self.counts: list[np.ndarray] = [
            np.zeros(256**k, dtype=_count_dtype(k))
            for k in range(1, n + 1)
        ]
        self._finalized = False
        self._pending: list[list[np.ndarray]] = [[] for _ in range(n)]
        self._pending_sizes = [0] * n

    # -- training ----------------------------------------------------

    def add_document(self, data: bytes) -> None:
        if self._finalized:
            raise RuntimeError("model is immutable after finalize()")
        if len(data) < self.n:
            raise DataError("document shorter than n")
        for k in range(1, self.n + 1):
            codes = encode_ngrams(data, k)
            self._pending[k - 1].append(codes)
            self._pending_sizes[k - 1] += len(codes)
            if self._pending_sizes[k - 1] > 1 << 23:
                self._flush(k - 1)

    def _flush(self, order_idx: int) -> None:
        if not self._pending[order_idx]:
            return
        codes = np.concatenate(self._pending[order_idx])
        binc = np.bincount(codes, minlength=len(self.counts[order_idx]))
        np.add(
            self.counts[order_idx],
            binc,
            out=self.counts[order_idx],
            casting="unsafe",
        )
        self._pending[order_idx] = []
        self._pending_sizes[order_idx] = 0

    def finalize(self) -> "NgramModel":
        for i in range(self.n):
            self._flush(i)
        # Continuation statistics per context: total following tokens
        # and number of distinct continuations.
        self._ctx_total: list[np.ndarray] = []
        self._ctx_distinct: list[np.ndarray] = []
        for k in range(2, self.n + 1):
            table = self.counts[k - 1].reshape(256 ** (k - 1), 256)
            self._ctx_total.append(table.sum(axis=1, dtype=np.int64))
            self._ctx_distinct.append(
                np.count_nonzero(table, axis=1).astype(np.int64)
            )
        self._total_tokens = int(self.counts[0].sum())
        self._distinct_unigrams = int(np.count_nonzero(self.counts[0]))
        self._lower_q = self._lower_order_table()
        self._finalized = True
        return self

    def _lower_order_table(self) -> np.ndarray:
        """Smoothed q at every code of order n-1, the top order's back-off.

        For n = 1 it is the uniform 1/256 the unigram backs off to. The
        order-2 table is built over the (256, 256) context x byte view of
        its counts, with the unigram q broadcast over contexts; n <= 3,
        so no higher order is ever needed here.
        """
        q = np.full(1, 1.0 / 256.0)
        if self.n >= 2:
            q = self._discount_step(1, self.counts[0], 0, q)
        if self.n == 3:
            ctx = np.arange(256)[:, None]
            q = self._discount_step(2, self.counts[1].reshape(256, 256), ctx, q).ravel()
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

    def count_of(self, gram: bytes) -> int:
        """Raw count of a k-gram, k <= n."""
        self._require_finalized()
        k = len(gram)
        if not 1 <= k <= self.n:
            raise ValueError("gram length must be in 1..n")
        return int(self.counts[k - 1][int.from_bytes(gram, "big")])

    def _discount_step(
        self, k: int, counts: np.ndarray, ctx: np.ndarray, lower: np.ndarray
    ) -> np.ndarray:
        """q at order k from the k-gram ``counts``, their (k-1)-gram
        contexts ``ctx`` and q of the order below at the same grams.

        Absolute discounting: subtract the discount from every seen
        count and hand the freed mass to the next-lower order; the base
        order backs off to uniform over the 256 byte values. Unseen
        contexts skip straight to the lower order. Arrays broadcast.
        """
        d = self.smoothing.discount
        if k == 1:
            t1 = max(self._total_tokens, 1)
            q = np.maximum(counts - d, 0.0)
            q /= t1
            q += (d * self._distinct_unigrams / t1) * lower
            return q
        tk = self._ctx_total[k - 2][ctx]
        seen = tk > 0
        tk_safe = np.where(seen, tk, 1)
        q = np.maximum(counts - d, 0.0)
        q /= tk_safe
        lam = d * self._ctx_distinct[k - 2][ctx]
        lam /= tk_safe
        q += lam * lower
        return np.where(seen, q, lower)

    def _cond_probs_from_codes(self, codes: np.ndarray) -> np.ndarray:
        """Smoothed q(w | history) for each full-order code in ``codes``.

        The orders below the top come from the table built at
        finalize; only the top-order discount step runs per code.
        """
        lower = self._lower_q[codes & (len(self._lower_q) - 1)]
        top = self.counts[self.n - 1][codes]
        q = self._discount_step(self.n, top, codes >> 8, lower)
        return np.maximum(q, self.smoothing.unseen_floor)

    def conditional_distribution(self, context: bytes) -> np.ndarray:
        """q(w | context) for all 256 next-byte values."""
        self._require_finalized()
        if len(context) != self.n - 1:
            raise ValueError("context length must be n-1")
        base = int.from_bytes(context, "big") << 8 if context else 0
        codes = base + np.arange(256, dtype=np.int64)
        return self._cond_probs_from_codes(codes)

    def sequence_logprob(self, data: bytes) -> float:
        """Sum of log2 q(w_i | history) over all full-order positions."""
        self._require_finalized()
        codes = encode_ngrams(data, self.n)
        return float(np.log2(self._cond_probs_from_codes(codes)).sum())

    def histogram(self) -> "NgramHistogram":
        """Unsmoothed relative frequencies of the zoo's top-order n-grams.

        A view on ``counts[n-1]``, not a copy; support size and sum of
        squared masses are taken once here from the non-zero counts.
        """
        self._require_finalized()
        top = self.counts[self.n - 1]
        seen = top[top != 0]
        total = int(seen.sum(dtype=np.int64))
        if total == 0:
            raise DataError("model has no top-order counts")
        return NgramHistogram(
            n=self.n,
            support_size=len(seen),
            _counts=top,
            _total=total,
            _sumsq=float(((seen / total) ** 2).sum()),
        )

    # -- serialization -----------------------------------------------

    def save(self, path: str | Path) -> None:
        """Versioned binary container, records sorted by gram code."""
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
            for k in range(1, self.n + 1):
                arr = self.counts[k - 1]
                nz = np.flatnonzero(arr)
                fh.write(struct.pack("<Q", len(nz)))
                rec = np.zeros(len(nz), dtype=_RECORD)
                rec["g"] = nz.astype(np.uint64)
                rec["c"] = arr[nz].astype(np.uint64)
                fh.write(rec.tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "NgramModel":
        """Read a model file; a truncated or corrupt one raises DataError."""
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise DataError(f"not a model file: bad magic {magic!r}")
            version, n, zoo_len, d, eps = struct.unpack(
                "<HBH d d", _read_exact(fh, 21, "header")
            )
            if version != _FORMAT_VERSION:
                raise DataError(f"unsupported model version {version}")
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
            records = []
            for k in range(1, n + 1):
                (count,) = struct.unpack(
                    "<Q", _read_exact(fh, 8, f"order-{k} record count")
                )
                if count > 256**k:
                    raise DataError(f"order-{k} record count {count} exceeds 256^{k}")
                rec = np.frombuffer(
                    _read_exact(fh, count * 16, f"order-{k} records"), dtype=_RECORD
                )
                if np.any(rec["g"] >= 256**k):
                    raise DataError(f"order-{k} gram code out of range")
                if np.any(rec["c"] > np.iinfo(_count_dtype(k)).max):
                    raise DataError(f"order-{k} count overflows its counter")
                records.append(rec)
        model = cls(n=n, smoothing=smoothing, zoo_id=zoo_id)
        for counts, rec in zip(model.counts, records):
            counts[rec["g"].astype(np.int64)] = rec["c"].astype(counts.dtype)
        return model.finalize()


@dataclass
class NgramHistogram:
    """Raw n-gram probability masses.

    Suspects and pooled zoos are sparse: sorted ``keys`` with aligned
    ``probs``. A zoo model's histogram (:meth:`NgramModel.histogram`) is
    a count view instead: ``lookup(codes)`` is ``counts[codes] / total``
    read from the model's top-order count array in place.
    """

    n: int
    support_size: int
    _keys: np.ndarray | None = None
    _probs: np.ndarray | None = None
    _counts: np.ndarray | None = field(default=None, repr=False)
    _total: int = 0
    _sumsq: float | None = field(default=None, repr=False)

    @classmethod
    def from_data(cls, data: bytes, n: int) -> "NgramHistogram":
        codes = encode_ngrams(data, n)
        keys, counts = np.unique(codes, return_counts=True)
        probs = counts / counts.sum()
        return cls(n=n, support_size=len(keys), _keys=keys, _probs=probs)

    @classmethod
    def from_masses(cls, masses: dict[bytes, float], n: int) -> "NgramHistogram":
        keys = np.array(
            sorted(int.from_bytes(g, "big") for g in masses), dtype=np.int64
        )
        probs = np.array(
            [masses[k.item().to_bytes(n, "big")] for k in keys], dtype=np.float64
        )
        return cls(n=n, support_size=len(keys), _keys=keys, _probs=probs)

    @property
    def keys(self) -> np.ndarray:
        if self._keys is None:
            self._keys = np.flatnonzero(self._counts)
        return self._keys

    @property
    def probs(self) -> np.ndarray:
        """Masses aligned with :attr:`keys`."""
        if self._probs is None:
            self._probs = self._counts[self.keys] / self._total
        return self._probs

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """Masses at the given codes; zero where absent."""
        if self._counts is not None:
            return self._counts[codes] / self._total
        pos = np.searchsorted(self._keys, codes)
        pos = np.clip(pos, 0, len(self._keys) - 1)
        hit = self._keys[pos] == codes
        return np.where(hit, self._probs[pos], 0.0)

    def sum_of_squares(self) -> float:
        if self._sumsq is None:
            self._sumsq = float((self.probs**2).sum())
        return self._sumsq

    def as_dict(self) -> dict[bytes, float]:
        return {
            int(k).to_bytes(self.n, "big"): float(p)
            for k, p in zip(self.keys, self.probs)
        }


def histogram(source: bytes | Sequence[bytes], n: int) -> NgramHistogram:
    """Raw n-gram histogram of one byte string or a pooled zoo."""
    if isinstance(source, (bytes, bytearray)):
        return NgramHistogram.from_data(bytes(source), n)
    codes = np.concatenate([encode_ngrams(doc, n) for doc in source if len(doc) >= n])
    keys, counts = np.unique(codes, return_counts=True)
    return NgramHistogram(
        n=n, support_size=len(keys), _keys=keys, _probs=counts / counts.sum()
    )


def cross_entropy(model: NgramModel, p: NgramHistogram) -> float:
    """Bits per token the model needs to encode a suspect.

    ``p`` is the suspect's top-order histogram; the result,
    -sum p * log2 q(p.keys), equals ``-sequence_logprob(data) / tokens``
    but evaluates the model once per distinct n-gram, not per position.
    """
    if p.n != model.n:
        raise DataError(f"histogram order {p.n} does not match model order {model.n}")
    return float(-(p.probs * np.log2(model._cond_probs_from_codes(p.keys))).sum())


def kld(p: NgramHistogram, q: NgramHistogram, eps: float = 1e-10) -> float:
    """Relative entropy of p from q, flooring zero q-masses at eps."""
    if p.support_size == 0:
        raise DataError("p has empty support")
    qv = q.lookup(p.keys)
    qv = np.where(qv > 0, qv, eps)
    return float((p.probs * np.log2(p.probs / qv)).sum())


def mse(model_hist: NgramHistogram, p_hist: NgramHistogram) -> float:
    """Mean squared mass difference over the model's event set."""
    m = model_hist.support_size
    if m == 0:
        raise DataError("model histogram has empty support")
    qv = model_hist.lookup(p_hist.keys)
    inside = qv > 0
    pv = p_hist.probs[inside]
    cross = float((pv * pv - 2.0 * pv * qv[inside]).sum())
    return (model_hist.sum_of_squares() + cross) / m


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


def slamm_classify(
    data: bytes,
    malware_models: Sequence[tuple[NgramModel, NgramHistogram]],
    benign: tuple[NgramModel, NgramHistogram],
) -> SlammVerdict:
    """Unanimous AND of the three classifiers, each OR-ed across zoos.

    Every zoo is scored from one histogram of the suspect. Ties resolve
    to benign: every comparison is a strict "<".
    """
    if not malware_models:
        raise DataError("need at least one malware model")
    p_hist = NgramHistogram.from_data(data, benign[0].n)

    def scores(model: NgramModel, hist: NgramHistogram) -> dict[str, float]:
        return {
            "cross_entropy": cross_entropy(model, p_hist),
            "kld": kld(p_hist, hist),
            "mse": mse(hist, p_hist),
        }

    base = scores(*benign)
    diagnostics = {"benign": base}
    cx = cd = cmse = False
    for model, hist in malware_models:
        zoo = scores(model, hist)
        diagnostics[model.zoo_id or f"zoo{len(diagnostics)}"] = zoo
        cx = cx or zoo["cross_entropy"] < base["cross_entropy"]
        cd = cd or zoo["kld"] < base["kld"]
        cmse = cmse or zoo["mse"] < base["mse"]
    return SlammVerdict(
        cx=cx, cd=cd, cmse=cmse, overall=cx and cd and cmse, diagnostics=diagnostics
    )
