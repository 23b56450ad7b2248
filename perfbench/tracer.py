"""Run one ``itect`` command in this process, recording spans at layer boundaries.

Usage: python3 tracer.py SPANS_JSON -- [itect arguments...]

Each function in ``TARGETS`` is replaced, from outside the package, by a
wrapper that records a span: name, start, end, parent span and a
per-file id. Spans stay in memory and are written to SPANS_JSON when
the command ends. A target missing from the code under test is listed
under ``absent`` instead of failing the run. ``itect`` must be
importable (the caller sets PYTHONPATH to the checkout's ``src``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

# Layer boundaries: (module under itect, attribute path).
TARGETS = (
    ("corpus", "load_sample"),
    ("corpus", "hexdump_to_bytes"),
    ("ents", "entropy_profile"),
    ("ents", "write_feature_csv"),
    ("ents", "read_feature_csv"),
    ("ents", "prune_correlated"),
    ("forest", "TrainedForest.load"),
    ("forest", "TrainedForest.save"),
    ("forest", "score"),
    ("forest", "calibrate_zero_fp"),
    ("forest", "train_forest"),
    ("slamm", "NgramModel.load"),
    ("slamm", "NgramModel.histogram"),
    ("slamm", "NgramModel.train"),
    ("slamm", "NgramModel.save"),
    ("slamm", "NgramHistogram.from_data"),
    ("slamm", "cross_entropy"),
    ("slamm", "kld"),
    ("slamm", "mse"),
    ("slamm", "slamm_classify"),
    ("pipeline", "itect_classify"),
)

# Counts read from a span's return value.
RESULT_COUNTS = {
    "ents.prune_correlated": lambda r: len(r.col_index),
    "slamm.NgramModel.train": lambda r: r.total_tokens,
}

ROOT_NAME = "cli.run"


class Recorder:
    """Spans as ``[id, name, start, end, parent, file, count]`` lists.

    The span stack and the current file id are per thread, because the
    CLI profiles files on a thread pool; a span opened on an empty stack
    takes the root span as its parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _open(self, name: str, parent: int | None, file_id: str | None) -> list:
        with self._lock:
            span = [len(self.spans), name, time.perf_counter(), None, parent, file_id, None]
            self.spans.append(span)
        return span

    def wrap(self, name: str, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._local
            stack = local.__dict__.setdefault("stack", [])
            if not stack and name == "corpus.load_sample":
                # A top-level read starts the next file of a batch.
                local.file_id = str(args[0] if args else kwargs.get("path"))
            span = self._open(
                name, stack[-1] if stack else self.root, getattr(local, "file_id", None)
            )
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                try:
                    span[6] = int(count(result))
                except (AttributeError, TypeError, ValueError):
                    pass
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; return the names that do not."""
        absent = []
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(f"itect.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, leaf)
            except (ImportError, AttributeError):
                absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, leaf, type(raw)(self.wrap(name, raw.__func__)))
            elif callable(raw):
                setattr(owner, leaf, self.wrap(name, raw))
            else:
                absent.append(name)
        return absent

    def run(self, fn, *args) -> int:
        span = self._open(ROOT_NAME, None, None)
        self.root = span[0]
        try:
            return fn(*args)
        finally:
            span[3] = time.perf_counter()


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    out, cli_args = argv[0], argv[2:]
    from itect import cli

    recorder = Recorder()
    absent = recorder.install()
    try:
        code = recorder.run(cli.run, cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
