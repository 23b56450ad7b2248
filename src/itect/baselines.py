"""Compression-based comparison features: CR and NCD.

The compressor sits behind a small spec keyed by algorithm id so that
golden values stay pinned per algorithm. The default is LZMA2 at
maximum level with the dictionary capped to a memory-safe size (the
cap is recorded on the spec).
"""

from __future__ import annotations

import lzma
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ents import FeatureMatrix
from .errors import DataError

# lzma encoder memory is ~10x the dictionary; cap keeps desk-scale runs sane.
LZMA_DICT_CAP = 1 << 26


@dataclass(frozen=True)
class CompressorSpec:
    algorithm_id: str = "lzma2"
    level: int = 9
    dict_size: int = 1 << 32

    def __post_init__(self):
        if self.algorithm_id not in ("lzma2", "zlib"):
            raise DataError(f"unknown compressor {self.algorithm_id!r}")

    @property
    def effective_dict_size(self) -> int:
        return min(self.dict_size, LZMA_DICT_CAP)

    def compress(self, data: bytes) -> bytes:
        if self.algorithm_id == "zlib":
            return zlib.compress(data, min(self.level, 9))
        filters = [
            {
                "id": lzma.FILTER_LZMA2,
                "preset": self.level | lzma.PRESET_EXTREME,
                "dict_size": self.effective_dict_size,
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
) -> FeatureMatrix:
    """NCD of every test file against every train file (baseline only).

    Quadratic in corpus size; single-file compressed sizes are cached.
    """
    spec = spec or CompressorSpec()
    c_train = [spec.compressed_size(t) for t in train_files]
    c_test = [spec.compressed_size(t) for t in test_files]
    rows = np.empty((len(test_files), len(train_files)), dtype=np.float64)
    for i, p in enumerate(test_files):
        for j, q in enumerate(train_files):
            rows[i, j] = ncd(p, q, spec, c_p=c_test[i], c_q=c_train[j])
    return FeatureMatrix(
        rows=rows,
        col_index=list(range(len(train_files))),
        labels=list(test_labels) if test_labels is not None else None,
        digests=list(test_digests) if test_digests is not None else None,
    )
