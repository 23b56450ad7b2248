"""Compression-based comparison features: CR and NCD.

The compressor sits behind a small spec keyed by algorithm id so that
golden values stay pinned per algorithm. The default is LZMA2 at
maximum level with its dictionary fixed at ``LZMA_DICT_CAP``, a
memory-safe size.
"""

from __future__ import annotations

import lzma
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ents import FeatureMatrix
from .errors import DataError

# lzma encoder memory is ~10x the dictionary; cap keeps desk-scale runs sane.
LZMA_DICT_CAP = 1 << 26


@dataclass(frozen=True)
class CompressorSpec:
    algorithm_id: str = "lzma2"
    level: int = 9

    def __post_init__(self):
        if self.algorithm_id not in ("lzma2", "zlib"):
            raise DataError(f"unknown compressor {self.algorithm_id!r}")

    def compress(self, data: bytes) -> bytes:
        if self.algorithm_id == "zlib":
            return zlib.compress(data, min(self.level, 9))
        filters = [
            {
                "id": lzma.FILTER_LZMA2,
                "preset": self.level | lzma.PRESET_EXTREME,
                "dict_size": LZMA_DICT_CAP,
            }
        ]
        return lzma.compress(data, format=lzma.FORMAT_XZ, filters=filters)

    def compressed_size(self, data: bytes) -> int:
        return len(self.compress(data))


def compression_rate(data: bytes, spec: CompressorSpec | None = None) -> float:
    """Compressed length over uncompressed length; may exceed 1."""
    if len(data) == 0:
        raise DataError("empty input")
    spec = spec or CompressorSpec()
    return spec.compressed_size(data) / len(data)


def ncd(
    p: bytes,
    q: bytes,
    spec: CompressorSpec | None = None,
    c_p: int | None = None,
    c_q: int | None = None,
) -> float:
    """Normalized compression distance of the pair, concatenated p then q.

    ``c_p``/``c_q`` allow reuse of already-computed compressed sizes.
    """
    if len(p) == 0 or len(q) == 0:
        raise DataError("empty input")
    spec = spec or CompressorSpec()
    if c_p is None:
        c_p = spec.compressed_size(p)
    if c_q is None:
        c_q = spec.compressed_size(q)
    c_pq = spec.compressed_size(p + q)
    return (c_pq - min(c_p, c_q)) / max(c_p, c_q)


def similarity_rows(
    test_files: Sequence[bytes],
    train_files: Sequence[bytes],
    spec: CompressorSpec | None = None,
    test_digests: Sequence[str] | None = None,
    test_labels: Sequence[str] | None = None,
    map: Callable = map,
) -> FeatureMatrix:
    """NCD of every test file against every train file (baseline only).

    Quadratic in corpus size; single-file compressed sizes are cached.
    ``map`` computes the single-file sizes and then the rows, one per
    test file, and returns them in order; a pool's map computes them
    concurrently, with the same result (zlib and lzma release the GIL
    while they compress).
    """
    spec = spec or CompressorSpec()
    c_train = list(map(spec.compressed_size, train_files))
    c_test = list(map(spec.compressed_size, test_files))

    def row(i: int) -> list[float]:
        p = test_files[i]
        return [ncd(p, q, spec, c_p=c_test[i], c_q=c) for q, c in zip(train_files, c_train)]

    rows = np.array(list(map(row, range(len(test_files)))), dtype=np.float64)
    return FeatureMatrix(
        rows=rows.reshape(len(test_files), len(train_files)),
        col_index=list(range(len(train_files))),
        labels=list(test_labels) if test_labels is not None else None,
        digests=list(test_digests) if test_digests is not None else None,
    )
