"""Entropy-time-series features.

Each file becomes a fixed-length float64 array: per-chunk Shannon
entropies, resampled to N = 2^alpha points, denoised through a discrete
Haar wavelet transform (threshold the detail coefficients, reconstruct).
The transform's coefficients are a plain array too, laid out as the
scale, then the details, coarsest first. A correlation-pruning pass
removes redundant dimensions before any learning happens.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, reading

SQRT2 = math.sqrt(2.0)

# The largest alpha whose 2^alpha-point float64 profile NumPy can size:
# its 8 << alpha bytes may not exceed the largest intp (alpha 59 on 64-bit).
MAX_ALPHA = np.iinfo(np.intp).max.bit_length() - 4


@dataclass(frozen=True)
class EntsParams:
    chunk_size: int = 256
    alpha: int = 9
    tau: float = 0.5

    def __post_init__(self):
        for name in ("chunk_size", "alpha"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not 1 <= self.alpha <= MAX_ALPHA:
            raise ValueError(f"alpha must be in [1, {MAX_ALPHA}]")
        if not self.tau >= 0:
            raise ValueError("tau must be >= 0")

    @classmethod
    def load(cls, path) -> "EntsParams":
        """Read an ``ents-params.json``; one that does not hold valid
        parameters raises DataError."""
        with reading(path, "bad EnTS parameters"), open(path, "r", encoding="utf-8") as fh:
            p = json.load(fh)
            return cls(chunk_size=p["chunk_size"], alpha=p["alpha"], tau=p["tau"])

    @property
    def n_points(self) -> int:
        return 1 << self.alpha


@dataclass
class FeatureMatrix:
    rows: np.ndarray
    col_index: list[int]
    labels: list[str] | None = None
    digests: list[str] | None = None

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ValueError("rows must be 2-D")
        if self.rows.shape[1] != len(self.col_index):
            raise ValueError("col_index does not match column count")
        if any(b <= a for a, b in zip(self.col_index, self.col_index[1:])):
            raise ValueError("col_index must be strictly increasing")


# Bytes of full chunks counted per bincount (at least one chunk).
_ENTROPY_BLOCK = 1 << 13


def _plogp(p: np.ndarray) -> np.ndarray:
    """p * log2(p), and 0 where p is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * np.log2(p), 0.0)


def chunk_entropies(data: bytes, chunk_size: int) -> np.ndarray:
    """Shannon entropy (bits/byte) of each fixed-size chunk of ``data``.

    The final partial chunk is measured over its actual bytes. Full
    chunks are counted a block at a time, each count looked up in a
    table of p * log2(p) at p = count / chunk_size, so no temporary
    grows with the file. The table is built only when a full chunk
    exists, so it is never longer than the file plus one entry.
    """
    if len(data) == 0:
        raise DataError("empty file")
    arr = np.frombuffer(data, dtype=np.uint8)
    n_full = len(arr) // chunk_size
    out = np.empty(-(-len(arr) // chunk_size))
    if n_full:
        per_block = max(1, _ENTROPY_BLOCK // chunk_size)
        table = _plogp(np.arange(chunk_size + 1) / chunk_size)
        bins = np.arange(min(per_block, n_full) * chunk_size) // chunk_size * 256
        for first in range(0, n_full, per_block):
            m = min(per_block, n_full - first)
            block = arr[first * chunk_size : (first + m) * chunk_size]
            counts = np.bincount(bins[: len(block)] + block, minlength=m * 256)
            out[first : first + m] = -table[counts.reshape(m, 256)].sum(axis=1)
    tail = arr[n_full * chunk_size :]
    if len(tail):
        out[-1] = -_plogp(np.bincount(tail, minlength=256) / len(tail)).sum()
    return out


def _lower_median(values: Sequence[int]) -> int:
    s = sorted(values)
    if not s:
        raise DataError("empty zoo")
    return s[(len(s) - 1) // 2]


def compute_alpha(
    malware_sizes: Sequence[int],
    benign_sizes: Sequence[int],
    chunk_size: int,
) -> int:
    """Profile length exponent from the smaller zoo median file size.

    alpha = max(1, ceil(log2(min(median sizes) / chunk_size))), using
    the lower median for even-sized zoos.
    """
    med = min(_lower_median(malware_sizes), _lower_median(benign_sizes))
    if med <= 0:
        raise DataError("zoo median file size is zero")
    ratio = med / chunk_size
    if ratio <= 1:
        return 1
    return max(1, math.ceil(math.log2(ratio)))


def select_chunk_indices(num_chunks: int, n_points: int) -> np.ndarray:
    """Evenly spread ``n_points`` chunk indices over ``num_chunks``.

    First and last chunks are always included; interior index k is
    floor(k * (num_chunks - 1) / (n_points - 1)). Repeats occur when the
    file has fewer chunks than points.
    """
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    k = np.arange(n_points, dtype=np.int64)
    return k * (num_chunks - 1) // (n_points - 1)


def _check_haar_length(x: np.ndarray) -> None:
    n = len(x)
    if n < 2 or n & (n - 1):
        raise ValueError("series length must be a power of two >= 2")


def haar_forward(series: np.ndarray) -> np.ndarray:
    """Full orthonormal Haar decomposition of a power-of-two series: the
    scale coefficient, then the details, coarsest first."""
    w = np.array(series, dtype=np.float64)
    _check_haar_length(w)
    m = len(w)
    while m > 1:
        even = w[0:m:2]
        odd = w[1:m:2]
        s = (even + odd) / SQRT2
        d = (even - odd) / SQRT2
        w[: m // 2] = s
        w[m // 2 : m] = d
        m //= 2
    return w


def denoise(coeffs: np.ndarray, tau: float) -> np.ndarray:
    """A copy of ``coeffs`` with detail coefficients of magnitude below
    ``tau`` zeroed.

    The top-level scale coefficient (index 0) is never zeroed.
    """
    if not tau >= 0:
        raise ValueError("tau must be >= 0")
    w = np.array(coeffs, dtype=np.float64)
    detail = w[1:]
    detail[np.abs(detail) < tau] = 0.0
    return w


def haar_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Reconstruct the series from a full Haar decomposition laid out as
    ``haar_forward`` returns it."""
    w = np.array(coeffs, dtype=np.float64)
    _check_haar_length(w)
    n = len(w)
    m = 1
    while m < n:
        s = w[:m].copy()
        d = w[m : 2 * m].copy()
        w[0 : 2 * m : 2] = (s + d) / SQRT2
        w[1 : 2 * m : 2] = (s - d) / SQRT2
        m *= 2
    return w


def entropy_profile(data: bytes, params: EntsParams) -> np.ndarray:
    """Denoised entropy profile of one file: ``params.n_points`` float64
    values."""
    ents = chunk_entropies(data, params.chunk_size)
    series = ents[select_chunk_indices(len(ents), params.n_points)]
    return haar_inverse(denoise(haar_forward(series), params.tau))


def write_feature_csv(matrix: FeatureMatrix, path) -> None:
    """CSV export: header ``digest,label,x<orig-dim>...``, one row per file."""
    if matrix.digests is None or matrix.labels is None:
        raise ValueError("feature CSV needs digests and labels")
    with open(path, "w", encoding="utf-8") as fh:
        header = ["digest", "label"] + [f"x{c}" for c in matrix.col_index]
        fh.write(",".join(header) + "\n")
        for digest, label, row in zip(matrix.digests, matrix.labels, matrix.rows):
            cells = [digest, label] + [repr(float(v)) for v in row]
            fh.write(",".join(cells) + "\n")


def read_feature_csv(path) -> FeatureMatrix:
    """Read a feature CSV; a malformed header or row, or a cell that is not a
    finite number, raises DataError."""
    with reading(path, "bad feature CSV"), open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["digest", "label"]:
            raise DataError("bad feature CSV header")
        col_index = [int(c[1:]) for c in header[2:]]
        digests, labels, rows = [], [], []
        for line in fh:
            cells = line.strip().split(",")
            if not cells or cells == [""]:
                continue
            digests.append(cells[0])
            labels.append(cells[1])
            rows.append([float(v) for v in cells[2:]])
        rows = np.array(rows, dtype=np.float64)
        if not np.isfinite(rows).all():
            raise ValueError("a feature is not a finite number")
        return FeatureMatrix(rows=rows, col_index=col_index, labels=labels, digests=digests)


def prune_correlated(matrix: FeatureMatrix, cutoff: float = 0.8) -> FeatureMatrix:
    """Drop columns too correlated with an earlier retained column.

    Greedy scan in ascending dimension order: a column is dropped when
    |Pearson corr| with any already-retained column exceeds ``cutoff``.
    Zero-variance columns count as correlated with everything, so only
    one can survive (and only if it comes first).
    """
    x = matrix.rows
    if x.shape[0] < 2:
        raise DataError("pruning requires at least 2 rows")
    n = x.shape[0]
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    zero_var = std == 0
    # Standardized columns; zero-variance ones become all-zero vectors.
    z = (x - mean) / np.where(zero_var, 1.0, std)
    retained: list[int] = []
    for j in range(x.shape[1]):
        if zero_var[j] and retained:
            continue
        if retained:
            corrs = z[:, retained].T @ z[:, j] / n
            if np.any(np.abs(corrs) > cutoff):
                continue
        retained.append(j)
    return FeatureMatrix(
        rows=x[:, retained],
        col_index=[matrix.col_index[j] for j in retained],
        labels=matrix.labels,
        digests=matrix.digests,
    )
