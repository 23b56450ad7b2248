"""Per-layer metrics of a traced run, from spans and output artifacts.

A traced run records one traced process per CLI call in three phases:
``train`` (the six training calls), ``scan-raw`` and ``scan-hex`` (one
classify job each). Scan-layer metrics come from the workload's own
scan phase (``scan-raw`` for the train workload), except the hexdump
decoder's, which only ``scan-hex`` calls; training-layer metrics come
from the ``train`` phase; ``ents.entropy_profile`` comes from the
workload's own phase. A span name the code under test no longer has is
left out of the result rather than failing the run.

Names are ``<module>.<function>.<stat>``:

* ``ms_p50``, ``ms_max``: median and largest call time in milliseconds;
* ``ms_tail``: the highest of p99/p95/p90/p80/p75 with at least ten
  calls beyond it (the largest call when there are too few calls);
* ``calls``: number of calls; ``s``: summed call time in seconds;
* ``self_ms``/``self_s``: span time not covered by child spans.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

TAIL_PERCENTILES = (99, 95, 90, 80, 75)


def tail_percentile(n: int) -> int | None:
    for p in TAIL_PERCENTILES:
        if math.floor(n * (1 - p / 100)) >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    return float(np.percentile(np.asarray(values), p))


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, [])):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


class Phase:
    """The spans of one phase's traced processes."""

    def __init__(self, procs):
        self.absent = set()
        self.spans: list[list] = []
        for p in procs:
            if p.spans is None:
                continue
            self.absent.update(p.spans["absent"])
            self.spans.extend(s for s in p.spans["spans"] if s[3] is not None)

    def seconds(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def counts(self, name: str) -> list[int]:
        return [s[6] for s in self.spans if s[1] == name and s[6] is not None]


class Metrics(dict):
    """name -> (value, unit); a metric over a missing layer is left out."""

    def put(self, name: str, value, unit: str) -> None:
        if value is not None:
            self[name] = (float(value), unit)

    def stats(self, phase: Phase, fn: str, *stats: str) -> None:
        if fn in phase.absent:
            return
        secs = phase.seconds(fn)
        if "calls" in stats:
            self.put(f"{fn}.calls", len(secs), "count")
        if not secs:
            return
        ms = [1e3 * s for s in secs]
        if "s" in stats:
            self.put(f"{fn}.s", sum(secs), "s")
        if "ms_p50" in stats:
            self.put(f"{fn}.ms_p50", statistics.median(ms), "ms")
        if "ms_max" in stats:
            self.put(f"{fn}.ms_max", max(ms), "ms")
        if "ms_tail" in stats:
            p = tail_percentile(len(ms))
            self.put(f"{fn}.ms_tail", max(ms) if p is None else percentile(ms, p), "ms")


def trigram_stats(inputs: list) -> tuple[float, float]:
    """Median tokens and median distinct byte trigrams per input file."""
    tokens, unique = [], []
    for e in inputs:
        a = np.frombuffer(Path(e.path).read_bytes(), dtype=np.uint8).astype(np.int64)
        codes = (a[:-2] << 16) | (a[1:-1] << 8) | a[2:]
        tokens.append(len(codes))
        unique.append(len(np.unique(codes)))
    return statistics.median(tokens), statistics.median(unique)


def forest_stats(path: Path) -> tuple[int | None, float | None]:
    """Node count and cutoff of a saved forest, if its format is readable."""

    def nodes(t):
        if not isinstance(t, dict):
            return 0
        return 1 + nodes(t.get("left")) + nodes(t.get("right"))

    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        return sum(nodes(t) for t in doc["trees"]), doc["cutoff"]
    except (OSError, ValueError, KeyError, TypeError):
        return None, None


def verdict_counts(m: Metrics, verdicts: list[dict], labels: dict[str, str],
                   cutoff: float | None, zoos: tuple[str, ...]) -> None:
    """Detector counts read from the classify output file."""
    m.put("pipeline.ents_flags", sum(bool(v["ents_verdict"]) for v in verdicts), "count")
    m.put("pipeline.slamm_flags",
          sum(bool(v["slamm"] and v["slamm"]["overall"]) for v in verdicts), "count")
    m.put("pipeline.ents_abstained", sum(bool(v["ents_abstained"]) for v in verdicts), "count")
    m.put("pipeline.slamm_abstained", sum(bool(v["slamm_abstained"]) for v in verdicts), "count")
    for zoo in zoos:
        agree = 0
        for v in verdicts:
            diag = (v["slamm"] or {}).get("diagnostics", {})
            if zoo not in diag or "benign" not in diag:
                continue
            z, b = diag[zoo], diag["benign"]
            votes = {z[k] < b[k] for k in ("cross_entropy", "kld", "mse")}
            agree += len(votes) == 1
        m.put(f"slamm.{zoo}.agree", agree, "count")
    benign = [v["ents_score"] for v in verdicts if labels.get(v["digest"]) == "benign"]
    if cutoff is not None and benign:
        m.put("forest.calibration_margin", cutoff - max(benign), "ratio")


def per_layer(*, workload: str, phases: dict, untraced: dict[str, float], setup_s: float,
              verdicts: list[dict], labels: dict[str, str], forest_path: Path,
              zoo_paths: list[Path], inputs: list, held_mb: float, synth_s: float,
              zoos: tuple[str, ...]) -> Metrics:
    own_scan = "scan-hex" if workload == "scan-hex" else "scan-raw"
    own = "train" if workload == "train" else own_scan
    train, scan, hexp = Phase(phases["train"]), Phase(phases[own_scan]), Phase(phases["scan-hex"])
    m = Metrics()

    m.stats(scan, "corpus.load_sample", "ms_p50")
    m.stats(hexp, "corpus.hexdump_to_bytes", "ms_p50")
    decode = hexp.seconds("corpus.hexdump_to_bytes")
    if decode:
        m.put("corpus.hexdump_to_bytes.mb_per_s", held_mb / sum(decode), "MB/s")

    m.stats(Phase(phases[own]), "ents.entropy_profile", "ms_p50", "calls")
    for fn in ("ents.write_feature_csv", "ents.read_feature_csv", "ents.prune_correlated"):
        m.stats(train, fn, "s")
    dims = train.counts("ents.prune_correlated")
    m.put("ents.retained_dims", dims[-1] if dims else None, "count")

    m.stats(scan, "forest.TrainedForest.load", "s")
    m.stats(scan, "forest.score", "ms_p50")
    m.stats(train, "forest.calibrate_zero_fp", "s")
    m.stats(train, "forest.train_forest", "calls", "ms_p50")
    m.stats(train, "forest.TrainedForest.save", "s")
    nodes, cutoff = forest_stats(forest_path)
    m.put("forest.nodes", nodes, "count")

    m.stats(scan, "slamm.NgramModel.load", "s")
    m.stats(scan, "slamm.NgramModel.histogram", "s")
    for fn in ("slamm.NgramHistogram.from_data", "slamm.cross_entropy", "slamm.kld",
               "slamm.mse"):
        m.stats(scan, fn, "ms_p50", "ms_max", "calls")
    m.stats(scan, "slamm.slamm_classify", "ms_p50", "ms_tail")
    m.stats(train, "slamm.NgramModel.train", "s")
    m.stats(train, "slamm.NgramModel.save", "s")
    tokens = train.counts("slamm.NgramModel.train")
    m.put("slamm.tokens_trained", sum(tokens) if tokens else None, "count")
    m.put("slamm.model_bytes", sum(p.stat().st_size for p in zoo_paths), "bytes")
    tokens_p50, unique_p50 = trigram_stats(inputs)
    m.put("slamm.tokens_per_file.p50", tokens_p50, "count")
    m.put("slamm.unique_trigrams_per_file.p50", unique_p50, "count")

    m.stats(scan, "pipeline.itect_classify", "ms_p50", "ms_tail")
    selfs = self_times(scan.spans)
    classify_self = [1e3 * selfs[s[0]] for s in scan.spans if s[1] == "pipeline.itect_classify"]
    if classify_self:
        m.put("pipeline.itect_classify.self_ms", statistics.median(classify_self), "ms")
    verdict_counts(m, verdicts, labels, cutoff, zoos)

    roots = [s[0] for s in scan.spans if s[4] is None]
    if len(roots) == 1:
        root = roots[0]
        m.put("cli.classify.self_s", selfs[root], "s")
        # The untraced set-up probe covers start-up, model load and the first
        # file; per-file spans under the CLI cover the other files.
        top = [s for s in scan.spans if s[4] == root and s[5]]
        if top:
            per_file = sum(s[3] - s[2] for s in top if s[5] != top[0][5])
            m.put("bench.trace_accounting_ratio",
                  (per_file + selfs[root] + setup_s) / phases[own_scan][0].wall, "ratio")

    m.put("synth.synth_corpus.s", synth_s, "s")
    sizes = [e.size_bytes / 1024 for e in inputs]
    for q, value in zip(("p25", "p50", "p75"), statistics.quantiles(sizes, n=4)):
        m.put(f"workload.file_kib.{q}", value, "KiB")
    traced = sum(p.wall for p in phases[own])
    m.put("bench.trace_overhead_s", traced - untraced[own], "s")

    missing = sorted(train.absent | scan.absent | hexp.absent)
    if missing:
        print(f"absent layers: {', '.join(missing)}", file=sys.stderr)
    return m
