"""Synthetic corpus generator for desk-scale experiments.

Four file shapes mimic the entropy structure of the real classes:
smooth low-entropy text/code for benign-ware, a low-entropy stub
followed by a long random region for polymorphic samples, repetitive
opcode-like patterns with short random pockets for metamorphic ones,
and a small header with a nearly uniform body for packed ones.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .corpus import CorpusManifest, ManifestEntry
from .errors import DataError

PROFILES = ("benign_like", "polymorphic_like", "metamorphic_like", "packed_like")

# Skewed distribution over printable-ish bytes. The skew exponent is
# drawn per file so benign flat entropy levels spread over ~0.5 bits
# instead of collapsing onto one razor-thin value.
_TEXT_SYMBOLS = np.concatenate(
    [
        np.frombuffer(b"etaoinshrdlucmfwypvbgkqjxz", dtype=np.uint8),
        np.frombuffer(b" \t\n.,;:()[]{}=+-*/<>_0123456789", dtype=np.uint8),
    ]
)


def _text_like(rng: np.random.Generator, size: int) -> np.ndarray:
    exponent = float(rng.uniform(0.3, 0.7))
    weights = 1.0 / np.arange(1, len(_TEXT_SYMBOLS) + 1) ** exponent
    weights /= weights.sum()
    return rng.choice(_TEXT_SYMBOLS, size=size, p=weights)


def _pattern_bank(rng: np.random.Generator) -> np.ndarray:
    # A handful of short "opcode" motifs, tiled.
    motifs = [rng.integers(0, 32, size=rng.integers(8, 24)).astype(np.uint8) for _ in range(6)]
    reps = []
    for _ in range(64):
        m = motifs[rng.integers(0, len(motifs))]
        reps.append(m)
    return np.concatenate(reps)


def _generate(profile: str, size: int, rng: np.random.Generator) -> bytes:
    if profile == "benign_like":
        body = _text_like(rng, size)
    elif profile == "polymorphic_like":
        stub = max(1, int(size * float(rng.uniform(0.2, 0.4))))
        body = np.concatenate(
            [
                _text_like(rng, stub),
                rng.integers(0, 256, size=size - stub).astype(np.uint8),
            ]
        )
    elif profile == "metamorphic_like":
        bank = _pattern_bank(rng)
        tiled = np.tile(bank, size // len(bank) + 1)[:size].copy()
        # A few short high-entropy pockets (encrypted strings/data).
        for _ in range(max(1, size // 16384)):
            start = int(rng.integers(0, max(1, size - 1024)))
            length = int(rng.integers(512, 1536))
            end = min(size, start + length)
            tiled[start:end] = rng.integers(0, 256, size=end - start).astype(np.uint8)
        body = tiled
    elif profile == "packed_like":
        header = min(size, int(rng.integers(1024, 4096)))
        body = np.concatenate(
            [
                _text_like(rng, header) >> 1,  # low-entropy header
                rng.integers(0, 256, size=size - header).astype(np.uint8),
            ]
        )
    else:
        raise DataError(f"unknown profile {profile!r}")
    return body.astype(np.uint8).tobytes()


_CATEGORY = {
    "benign_like": ("benign", "benign"),
    "polymorphic_like": ("malware", "polymorphic"),
    "metamorphic_like": ("malware", "metamorphic"),
    "packed_like": ("malware", "packed"),
}


def synth_corpus(
    profile: str,
    count: int,
    size_range: tuple[int, int],
    seed: int,
    out_dir: str | Path,
) -> CorpusManifest:
    """Write ``count`` deterministic files of one profile under ``out_dir``."""
    if profile not in PROFILES:
        raise DataError(f"unknown profile {profile!r}; choose one of {PROFILES}")
    lo, hi = size_range
    if not 1 <= lo <= hi:
        raise DataError("size_range must satisfy 1 <= lo <= hi")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    label, category = _CATEGORY[profile]
    entries = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        size = int(rng.integers(lo, hi + 1))
        data = _generate(profile, size, rng)
        path = out_dir / f"{profile}_{i:05d}.bin"
        path.write_bytes(data)
        entries.append(
            ManifestEntry(
                path=str(path),
                label=label,
                category=category,
                split="train",
                size_bytes=len(data),
                digest=hashlib.sha256(data).hexdigest(),
            )
        )
    return CorpusManifest(entries=tuple(entries))
