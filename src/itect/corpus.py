"""Labeled file corpora: scanning, hashing, splitting, hexdump codecs.

A corpus is described by a manifest: one entry per file with its label
(malware/benign), concealment category, train/validation/test split,
size and content digest. Manifests serialize as JSON Lines so they can
be streamed and appended.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError

LABELS = ("malware", "benign")
CATEGORIES = ("polymorphic", "metamorphic", "packed", "benign", "unknown")
SPLITS = ("train", "validation", "test")

_HEX_PAIRS = set("0123456789abcdefABCDEF")
# A dump line in the common layout: hex offset, optional colon, then
# space- or tab-separated byte pairs or "??".
_PLAIN_LINE = re.compile(r"([0-9A-Fa-f]+):?((?:[ \t]+(?:[0-9A-Fa-f]{2}|\?\?))*)")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    category: str
    split: str
    size_bytes: int
    digest: str

    def __post_init__(self):
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
        try:
            d = json.loads(line)
            return cls(
                path=d["path"],
                label=d["label"],
                category=d["category"],
                split=d["split"],
                size_bytes=d["size_bytes"],
                digest=d["digest"],
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"bad manifest line: {exc!r}") from None


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
        entries = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    entries.append(ManifestEntry.from_json(line))
        return cls(entries=tuple(entries))


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
    manifest. Splits start as a "train" placeholder with the manifest
    flagged for re-splitting.
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


def hexdump_to_bytes(text: str | Iterable[str]) -> bytes:
    """Decode "offset hex-pairs" dump lines into raw bytes.

    ``??`` pairs decode to 0x00. Offsets must equal the number of bytes
    decoded so far (monotone, gap-free). Blank lines are ignored. Errors
    name the line. A plain line (hex offset, optional ``:``, pairs
    separated by spaces or tabs) is decoded in one ``bytes.fromhex``
    call; any other line is parsed token by token.
    """
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = list(text)
    out = bytearray()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        plain = _PLAIN_LINE.fullmatch(line)
        if plain and int(plain[1], 16) == len(out):
            out += bytes.fromhex(plain[2].replace("??", "00"))
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


def bytes_to_hexdump(data: bytes, width: int = 16) -> str:
    """Inverse of :func:`hexdump_to_bytes` for well-formed input."""
    lines = []
    for off in range(0, len(data), width):
        chunk = data[off : off + width]
        pairs = " ".join(f"{b:02X}" for b in chunk)
        lines.append(f"{off:08X} {pairs}")
    return "\n".join(lines) + ("\n" if lines else "")


def read_file_bytes(path: str | Path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def is_hexdump_path(path: str | Path) -> bool:
    return str(path).endswith((".hexdump", ".hex", ".bytes"))


def load_sample(path: str | Path) -> bytes:
    """Read a sample, decoding hexdump-formatted files transparently."""
    if is_hexdump_path(path):
        try:
            return hexdump_to_bytes(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path}: hexdump is not UTF-8 text ({exc.reason})"
            ) from None
    return read_file_bytes(path)
