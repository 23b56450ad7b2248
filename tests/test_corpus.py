import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from itect import corpus
from itect.errors import DataError


def _make_files(root, names, content=b"hello"):
    for name in names:
        (root / name).write_bytes(content + name.encode())


class TestScanDirectory:
    def test_three_files(self, tmp_path):
        _make_files(tmp_path, ["a.bin", "b.bin", "c.bin"])
        m = corpus.scan_directory(tmp_path, "malware", "packed")
        assert len(m) == 3
        assert all(e.label == "malware" for e in m)
        assert all(e.size_bytes == len(b"hello") + 5 for e in m)

    def test_empty_dir(self, tmp_path):
        m = corpus.scan_directory(tmp_path, "benign", "benign")
        assert len(m) == 0

    def test_unreadable_file_skipped_with_diagnostic(self, tmp_path, monkeypatch):
        _make_files(tmp_path, ["a", "b", "c", "d"])
        bad = str(tmp_path / "c")
        real_digest = corpus.file_digest

        def flaky_digest(path):
            if str(path) == bad:
                raise OSError("permission denied")
            return real_digest(path)

        monkeypatch.setattr(corpus, "file_digest", flaky_digest)
        diags = []
        m = corpus.scan_directory(tmp_path, "benign", "benign", diags)
        assert len(m) == 3
        assert len(diags) == 1 and "c" in diags[0]

    def test_missing_root(self, tmp_path):
        with pytest.raises(DataError):
            corpus.scan_directory(tmp_path / "nope", "benign", "benign")

    def test_digest_stability(self, tmp_path):
        _make_files(tmp_path, ["a", "b"])
        m1 = corpus.scan_directory(tmp_path, "benign", "benign")
        m2 = corpus.scan_directory(tmp_path, "benign", "benign")
        assert [e.digest for e in m1] == [e.digest for e in m2]


def _manifest(n_malware, n_benign):
    entries = []
    for i in range(n_malware):
        entries.append(
            corpus.ManifestEntry(
                path=f"m{i}", label="malware", category="polymorphic",
                split="train", size_bytes=10, digest=f"{i:064x}",
            )
        )
    for i in range(n_benign):
        entries.append(
            corpus.ManifestEntry(
                path=f"b{i}", label="benign", category="benign",
                split="train", size_bytes=10, digest=f"{i + 10000:064x}",
            )
        )
    return corpus.CorpusManifest(entries=tuple(entries))


class TestSplitManifest:
    def test_two_thirds_of_300_per_label(self):
        m = corpus.split_manifest(_manifest(300, 300), 2 / 3, seed=7)
        train = m.by_split("train")
        assert sum(e.label == "malware" for e in train) == 200
        assert sum(e.label == "benign" for e in train) == 200

    def test_two_files_per_label_half(self):
        m = corpus.split_manifest(_manifest(2, 2), 0.5, seed=1)
        for label in ("malware", "benign"):
            group = [e for e in m if e.label == label]
            assert sum(e.split == "train" for e in group) == 1
            assert sum(e.split != "train" for e in group) == 1

    def test_deterministic(self):
        a = corpus.split_manifest(_manifest(30, 30), 2 / 3, seed=42)
        b = corpus.split_manifest(_manifest(30, 30), 2 / 3, seed=42)
        assert [(e.path, e.split) for e in a] == [(e.path, e.split) for e in b]

    def test_partition_and_stratification(self):
        m = corpus.split_manifest(_manifest(100, 50), 0.6, seed=3)
        assert len(m) == 150
        assert len({e.path for e in m}) == 150
        for label, total in (("malware", 100), ("benign", 50)):
            group = [e for e in m if e.label == label]
            n_train = sum(e.split == "train" for e in group)
            assert abs(n_train - 0.6 * total) <= 1

    def test_too_few_files(self):
        with pytest.raises(DataError, match="malware"):
            corpus.split_manifest(_manifest(1, 10), 0.5, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(DataError):
            corpus.split_manifest(_manifest(10, 10), 1.5, seed=0)


def bytes_to_hexdump(data: bytes) -> str:
    """The ``offset pairs`` dump, 16 bytes a line, that
    :func:`corpus.hexdump_to_bytes` decodes."""
    lines = [
        f"{off:08X} {data[off:off + 16].hex(' ').upper()}"
        for off in range(0, len(data), 16)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def token_decoder(text):
    """Reference decoder: every line parsed token by token."""
    out = bytearray()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            offset = int(tokens[0].rstrip(":"), 16)
        except ValueError:
            raise DataError(f"line {lineno}: bad offset {tokens[0]!r}") from None
        if offset != len(out):
            raise DataError(
                f"line {lineno}: offset {offset:#x} does not follow previous bytes"
            )
        for tok in tokens[1:]:
            if tok == "??":
                out.append(0)
            elif len(tok) == 2 and set(tok) <= set("0123456789abcdefABCDEF"):
                out.append(int(tok, 16))
            else:
                raise DataError(f"line {lineno}: malformed hex pair {tok!r}")
    return bytes(out)


_SPACES = st.sampled_from([" ", "  ", "\t", " \t", "\u00a0", "\u2003", "\u3000"])
_OFFSETS = st.sampled_from(
    ["{:08X}", "{:08x}", "{:X}", "{:08X}:", "{:08X}::", "0x{:x}"]
)
_PAIRS = st.one_of(
    st.integers(0, 255).map("{:02X}".format),
    st.integers(0, 255).map("{:02x}".format),
    st.just("??"),
)
_BAD_PAIRS = st.sampled_from(["G0", "4", "ABC", "?A", "0x", "--", "\u0664\u0662"])


@st.composite
def dump_lines(draw):
    """Dump text mixing plain lines with every variant the token parser
    accepts or rejects: case, ``??``, colons, tabs, blank lines, ``0x``
    offsets, Unicode spaces, bad pairs and gapped offsets."""
    lines = []
    offset = 0
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\u3000"])))
            continue
        pairs = draw(st.lists(_PAIRS, max_size=16))
        off_fmt, start = draw(_OFFSETS), offset
        if kind == 1:
            pairs.insert(draw(st.integers(0, len(pairs))), draw(_BAD_PAIRS))
        elif kind == 2:
            start += draw(st.sampled_from([-1, 1, 16]))
        elif kind == 3:
            off_fmt = draw(st.sampled_from(["zz{:X}", "{:X}:4D", "-"]))
        plain = draw(st.booleans())
        line = off_fmt.format(start)
        for pair in pairs:
            line += (" " if plain else draw(_SPACES)) + pair
        if not plain:
            line = draw(st.sampled_from(["", " ", "\t"])) + line + draw(_SPACES)
        lines.append(line)
        offset += len(pairs)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


class TestHexdump:
    def test_basic(self):
        assert corpus.hexdump_to_bytes("00000000 4D 5A 90") == bytes([0x4D, 0x5A, 0x90])

    def test_question_marks_decode_to_zero(self):
        data = corpus.hexdump_to_bytes("00000000 4D ?? 90")
        assert data == bytes([0x4D, 0x00, 0x90])
        # independent oracle decoder
        expect = bytearray()
        for tok in "4D ?? 90".split():
            expect.append(0 if tok == "??" else int(tok, 16))
        assert data == bytes(expect)

    def test_empty_input(self):
        assert corpus.hexdump_to_bytes("") == b""

    def test_malformed_pair_names_line(self):
        text = "00000000 4D 5A\n00000002 4G"
        with pytest.raises(DataError, match="line 2"):
            corpus.hexdump_to_bytes(text)

    def test_non_monotone_offset(self):
        text = "00000000 4D 5A\n00000001 01"
        with pytest.raises(DataError, match="offset"):
            corpus.hexdump_to_bytes(text)

    def test_colon_offsets_accepted(self):
        assert corpus.hexdump_to_bytes("00000000: 01 02") == b"\x01\x02"

    @given(dump_lines())
    @example("0x0 4D\n0x1\u00a05A")
    @example("0000:: 4D\t5A\n00000002 ??")
    @example("0000 4D\n0000 5A")
    @example("00000000 4D 5A\r\n00000002: 90\r\n00000003 ??\r\n")
    @example("00000000 4D\r00000001 5A")
    @example("00 4D\r01 5A")
    @example("00000000 4D\n00000001 5A")
    @example("00000000 4D\n \t\n\t\n00000001 5A\n  \n")
    @example("00000000\n00000000 4D\n00000001\n00000001 5A\n00000002")
    @example("00000000000000000000 4D 5A")
    @example("10000000000000000 4D")
    @example("000000000000000 4D\n0000000000000001 5A")
    @example("0000:: 4D")
    @example("0x0 4D")
    @example("00000000 ABCD")
    @example("00000000 ?A")
    @example("00000000 ???")
    @example("00000000 4D:\n: 5A")
    @example("00000000 :: 4D")
    @example("0" + " 00" * 16 + "\n? 4D")
    @example("00000000\x0b4D\x0c5A")
    @example("00000000\x0c00000000 4D")
    @example("00000000\u30004D\u30005A")
    @example("00000000 4D\ud800")
    def test_matches_token_decoder(self, text):
        self._check_against_token_decoder(text)

    @given(st.text())
    def test_any_text_matches_token_decoder(self, text):
        self._check_against_token_decoder(text)

    @staticmethod
    def _check_against_token_decoder(text):
        try:
            expect = token_decoder(text)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                corpus.hexdump_to_bytes(text)
            assert str(got.value) == str(exc)
        else:
            assert corpus.hexdump_to_bytes(text) == expect

    @given(st.binary(min_size=0, max_size=200), st.booleans(), st.booleans(),
           st.booleans())
    def test_round_trip(self, data, colon, crlf, lower):
        text = bytes_to_hexdump(data)
        if colon:
            text = text.replace(" ", ": ", 1)
        if crlf:
            text = text.replace("\n", "\r\n")
        if lower:
            text = text.lower()
        assert corpus.hexdump_to_bytes(text) == data
        # The plain layout decodes in runs of equal-length lines, never line
        # by line: the line with the colon, the body and the short last line.
        assert corpus._decode_plain(text.encode()) == data

    def test_decode_memory_is_a_few_times_the_text(self):
        data = np.random.default_rng(5).integers(0, 256, 1_500_000, np.uint8).tobytes()
        text = bytes_to_hexdump(data)
        tracemalloc.start()
        try:
            assert corpus.hexdump_to_bytes(text) == data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * len(text)

    def test_many_runs_go_to_the_line_parser(self):
        rng = random.Random(3)
        lines, off = [], 0
        for _ in range(2000):
            pairs = [f"{rng.randrange(256):02X}" for _ in range(rng.randint(1, 16))]
            lines.append(" ".join([f"{off:08X}", *pairs]))
            off += len(pairs)
        text = "\n".join(lines)
        assert corpus._decode_plain(text.encode()) is None
        assert corpus.hexdump_to_bytes(text) == token_decoder(text)


class TestLoadSampleHexdump:
    def test_load_memory_is_a_few_times_the_file(self, tmp_path):
        # The file is read once, as bytes, and decoded from them: no text
        # copy and no re-encoded copy of it are held beside the bytes.
        data = np.random.default_rng(5).integers(0, 256, 1_500_000, np.uint8).tobytes()
        path = tmp_path / "sample.bytes"
        path.write_text(bytes_to_hexdump(data), encoding="ascii")
        tracemalloc.start()
        try:
            assert corpus.load_sample(path) == data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.75 * path.stat().st_size

    @pytest.mark.parametrize("text", [
        bytes_to_hexdump(bytes(range(256)) * 3),
        "00000000 4D 5A\n00000002: 90\n\n00000003 ?? 01\n",
        "00000000 4D 5A\n  \n00000002 90",
    ])
    def test_line_ends_do_not_change_the_bytes(self, tmp_path, text):
        loaded = {}
        for name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            path = tmp_path / f"{name}.bytes"
            path.write_bytes(text.replace("\n", end).encode("ascii"))
            loaded[name] = corpus.load_sample(path)
        assert loaded["lf"] == corpus.hexdump_to_bytes(text)
        assert loaded["crlf"] == loaded["cr"] == loaded["lf"]
        # Lone CRs keep the block decoder, as LF and CRLF do.
        assert corpus._decode_plain(text.replace("\n", "\r").encode()) == loaded["lf"]

    def test_line_ends_do_not_change_the_error_line(self, tmp_path):
        text = "00000000 4D 5A\n\n00000002 4G\n"
        for name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            path = tmp_path / f"{name}.bytes"
            path.write_bytes(text.replace("\n", end).encode("ascii"))
            with pytest.raises(DataError, match="line 3: malformed hex pair '4G'"):
                corpus.load_sample(path)

    def test_not_utf8_is_a_data_error(self, tmp_path):
        path = tmp_path / "bad.bytes"
        path.write_bytes(b"00000000 4D\n\xff\xfe 5A\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: not UTF-8 text")):
            corpus.load_sample(path)


class TestLoadSampleFuzz:
    @given(
        st.binary(max_size=400)
        | st.text(max_size=200).map(str.encode)
        | dump_lines().map(str.encode)
    )
    def test_hexdump_file_loads_or_is_data_error(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "fuzz.bytes"
        path.write_bytes(content)
        try:
            data = corpus.load_sample(path)
        except DataError:
            return
        assert isinstance(data, bytes)


class TestManifestIO:
    def test_jsonl_round_trip(self, tmp_path):
        m = _manifest(3, 2)
        path = tmp_path / "m.jsonl"
        m.save(path)
        loaded = corpus.CorpusManifest.load(path)
        assert loaded.entries == m.entries

    def test_duplicate_paths_rejected(self):
        e = _manifest(1, 0).entries[0]
        with pytest.raises(DataError):
            corpus.CorpusManifest(entries=(e, e))

    def test_bad_label_rejected(self):
        with pytest.raises(DataError):
            corpus.ManifestEntry(
                path="x", label="weird", category="benign",
                split="train", size_bytes=1, digest="0" * 64,
            )
