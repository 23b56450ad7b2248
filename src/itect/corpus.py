"""Labeled file corpora: scanning, hashing, splitting, hexdump decoding.

A corpus is described by a manifest: one entry per file with its label
(malware/benign), concealment category, train/validation/test split,
size and content digest. Manifests serialize as JSON Lines so they can
be streamed and appended.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DataError, parse_lines, reading

LABELS = ("malware", "benign")
CATEGORIES = ("polymorphic", "metamorphic", "packed", "benign", "unknown")
SPLITS = ("train", "validation", "test")

_HEX_PAIRS = set("0123456789abcdefABCDEF")
# bytes.translate table of the block decoder: a hex digit maps to its
# value, "?" to 16, ":" to 32, space, tab and CR to 64, LF to 128. Any
# other byte maps to 255 and sends the text to the line decoder.
_QMARK, _COLON, _BLANK, _LF, _OTHER = 16, 32, 64, 128, 255
_CODE_OF = {c: int(c, 16) for c in _HEX_PAIRS}
_CODE_OF.update({"?": _QMARK, ":": _COLON, " ": _BLANK, "\t": _BLANK,
                 "\r": _BLANK, "\n": _LF})
_CODES = bytes(_CODE_OF.get(chr(b), _OTHER) for b in range(256))
# Offsets of at most 15 hex digits fit an int64.
_MAX_OFFSET_DIGITS = 15


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    category: str
    split: str
    size_bytes: int
    digest: str

    def __post_init__(self):
        if not isinstance(self.path, str) or not isinstance(self.digest, str):
            raise DataError("path and digest must be strings")
        if isinstance(self.size_bytes, bool) or not isinstance(self.size_bytes, int):
            raise DataError(f"size_bytes {self.size_bytes!r} is not an integer")
        if self.label not in LABELS:
            raise DataError(f"unknown label {self.label!r}")
        if self.category not in CATEGORIES:
            raise DataError(f"unknown category {self.category!r}")
        if self.split not in SPLITS:
            raise DataError(f"unknown split {self.split!r}")
        if self.size_bytes < 0:
            raise DataError("negative size_bytes")

    def to_json(self) -> str:
        return json.dumps(
            {
                "path": self.path,
                "label": self.label,
                "category": self.category,
                "split": self.split,
                "size_bytes": self.size_bytes,
                "digest": self.digest,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "ManifestEntry":
        with reading(None, "bad manifest line"):
            d = json.loads(line)
            return cls(
                path=d["path"],
                label=d["label"],
                category=d["category"],
                split=d["split"],
                size_bytes=d["size_bytes"],
                digest=d["digest"],
            )


@dataclass(frozen=True)
class CorpusManifest:
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise DataError("duplicate paths in manifest")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ManifestEntry]:
        return iter(self.entries)

    def by_label(self, label: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.label == label]

    def by_split(self, split: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == split]

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.entries:
                fh.write(e.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CorpusManifest":
        with reading(path, "bad manifest"), open(path, "r", encoding="utf-8") as fh:
            return cls(entries=tuple(parse_lines(fh, ManifestEntry.from_json)))


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def scan_directory(
    root: str | Path,
    label: str,
    category: str,
    diagnostics: list[str] | None = None,
) -> CorpusManifest:
    """Recursively inventory regular files under ``root``.

    Unreadable files are skipped; a message per skip is appended to
    ``diagnostics`` when provided. An empty directory yields an empty
    manifest. Every split starts as a "train" placeholder, which
    ``split_manifest`` (``itect split``) replaces.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"not a readable directory: {root}")
    entries = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        try:
            size = path.stat().st_size
            digest = file_digest(path)
        except OSError as exc:
            if diagnostics is not None:
                diagnostics.append(f"skipped {path}: {exc}")
            continue
        entries.append(
            ManifestEntry(
                path=str(path),
                label=label,
                category=category,
                split="train",
                size_bytes=size,
                digest=digest,
            )
        )
    return CorpusManifest(entries=tuple(entries))


def split_manifest(
    manifest: CorpusManifest,
    train_fraction: float,
    seed: int,
    validation_fraction_of_rest: float = 0.5,
) -> CorpusManifest:
    """Assign stratified train/validation/test splits, per label.

    Deterministic for a fixed seed. Per label, ``round(fraction * n)``
    entries go to train; the remainder is divided between validation
    and test by ``validation_fraction_of_rest``.
    """
    if not 0 < train_fraction < 1:
        raise DataError("train_fraction must be in (0, 1)")
    out: list[ManifestEntry] = []
    for label in LABELS:
        group = sorted(manifest.by_label(label), key=lambda e: (e.digest, e.path))
        if not group:
            continue
        if len(group) < 2:
            raise DataError(f"label {label!r} has fewer than 2 files; cannot split")
        rng = random.Random(f"{seed}:{label}")
        rng.shuffle(group)
        n = len(group)
        n_train = round(train_fraction * n)
        n_train = min(max(n_train, 1), n - 1)
        rest = n - n_train
        n_val = round(validation_fraction_of_rest * rest)
        for i, e in enumerate(group):
            if i < n_train:
                split = "train"
            elif i < n_train + n_val:
                split = "validation"
            else:
                split = "test"
            out.append(replace(e, split=split))
    out.sort(key=lambda e: e.path)
    return CorpusManifest(entries=tuple(out))


def hexdump_to_bytes(dump: bytes | str) -> bytes:
    """Decode "offset hex-pairs" dump lines, bytes or text, into raw bytes.

    ``??`` pairs decode to 0x00. Offsets must equal the number of bytes
    decoded so far (monotone, gap-free). Blank lines are ignored. Errors
    name the line. A dump in the plain layout (ASCII; a hex offset of at
    most 15 digits with at most one ``:``, then pairs separated by
    spaces or tabs; LF or CRLF line ends) whose lines come in long runs
    of equal length is decoded one run at a time, as a block of rows
    that share their columns. Any other text, a dump whose line lengths
    vary included, is parsed line by line and token by token, with the
    same result and the same errors, once decoded as UTF-8.
    """
    raw = dump.encode("utf-8", "surrogatepass") if isinstance(dump, str) else dump
    data = _decode_plain(raw)
    if data is None:
        data = _decode_lines(dump if isinstance(dump, str) else raw.decode("utf-8"))
    return data


def _decode_plain(raw: bytes) -> bytes | None:
    """Decode a dump in the plain layout, one run of equal-length lines
    at a time, or return None for any other text (including every text
    that is not a valid dump) and for lines that form many short runs."""
    if not raw.isascii():
        return None
    if b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n"):
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")  # lone CRs end lines
    codes = raw.translate(_CODES)
    if bytes([_OTHER]) in codes:
        return None
    code = np.frombuffer(codes, dtype=np.uint8)
    starts = np.append(0, np.flatnonzero(code == _LF) + 1)
    lengths = np.diff(np.append(starts, len(code) + 1)) - 1
    runs = np.append(0, np.flatnonzero(lengths[1:] != lengths[:-1]) + 1)
    # A run costs ~8 lines of the line parser: with more runs than about
    # one per eight lines, that parser is the faster one.
    if len(runs) > 8 + len(lengths) // 8:
        return None
    parts, done = [], 0
    for first, end in zip(runs, np.append(runs[1:], len(lengths))):
        width = int(lengths[first])
        rows = as_strided(code[starts[first]:], (end - first, width), (width + 1, 1))
        # The first row fixes every row's columns: word (a hex digit or
        # "?"), ":" and blank.
        kind = rows[0] & (_COLON | _BLANK)
        if ((rows & (_COLON | _BLANK)) != kind).any():
            return None
        edges = np.flatnonzero(np.diff(kind < _BLANK, prepend=False, append=False))
        if not len(edges):
            continue  # blank lines
        pairs, ends = edges[2::2], edges[3::2]
        hi, lo = rows[:, pairs], rows[:, ends - 1]
        digits = rows[:, edges[0]:edges[1] - (kind[edges[1] - 1] == _COLON)]
        place = 16 ** np.arange(digits.shape[1] - 1, -1, -1, dtype=np.int64)
        # Pairs of two hex digits or "??" (no hex digit or ":" shares the
        # 16 bit), and an offset of 1-15 digits, before at most one ":",
        # that counts the bytes so far.
        if ((ends - pairs != 2).any()
                or not (((hi | lo) < _QMARK) | ((hi & lo) == _QMARK)).all()
                or not 1 <= len(place) <= _MAX_OFFSET_DIGITS or (digits >= _QMARK).any()
                or (digits @ place != done + len(pairs) * np.arange(len(rows))).any()):
            return None
        parts.append(((hi & 15) << 4) | (lo & 15))
        done += hi.size
    return b"".join(p.tobytes() for p in parts)


def _decode_lines(text: str) -> bytes:
    """Decode any text line by line and token by token; each error names
    its line."""
    out = bytearray()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        off_tok = tokens[0].rstrip(":")
        try:
            offset = int(off_tok, 16)
        except ValueError:
            raise DataError(f"line {lineno}: bad offset {tokens[0]!r}") from None
        if offset != len(out):
            raise DataError(
                f"line {lineno}: offset {offset:#x} does not follow previous bytes"
            )
        for tok in tokens[1:]:
            if tok == "??":
                out.append(0)
            elif len(tok) == 2 and set(tok) <= _HEX_PAIRS:
                out.append(int(tok, 16))
            else:
                raise DataError(f"line {lineno}: malformed hex pair {tok!r}")
    return bytes(out)


def is_hexdump_path(path: str | Path) -> bool:
    return str(path).endswith((".hexdump", ".hex", ".bytes"))


def load_sample(path: str | Path) -> bytes:
    """Read a sample, decoding hexdump-formatted files transparently."""
    with open(path, "rb") as fh:
        if not is_hexdump_path(path):
            return fh.read()
        data = fh.read()
    with reading(path, "bad hexdump"):
        return hexdump_to_bytes(data)
