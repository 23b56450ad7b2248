"""Seeded end-to-end benchmark of the itect CLI.

    python3 perfbench/run.py --workload scan-raw --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the program under test is
``src/itect``, run as fresh ``python3 -m itect.cli`` processes, one at a
time (a closed loop with one caller), each given ``--threads`` equal to
the usable cores. Workloads:

* ``scan-raw``: one ``itect classify`` job over the held-out raw files
  against three malware zoos and the benign zoo.
* ``scan-hex``: the same job over the same files written as ``.bytes``
  hexdumps; its decisions must match the raw scan file for file.
* ``train``: ``itect ents``, ``itect train`` and four ``itect
  slamm-train`` runs over the train split.

The corpus comes from ``itect.synth`` (benign : polymorphic :
metamorphic : packed = 3:1:1:1, 64-128 KiB files, seeded 2/3 train
split); its digest is pinned per seed in ``corpus_digests.json``. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, which
runs a fixed set of jobs and ignores ``--seconds`` (see ``layers.py``). Any missing verdict, hex/raw disagreement, non-zero CLI
exit, nondeterministic output or corpus-digest mismatch makes the
result ``correct: false`` and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINS = HERE / "corpus_digests.json"

WORKLOADS = ("scan-raw", "scan-hex", "train")
CLASS_MIX = (
    ("benign_like", 3),
    ("polymorphic_like", 1),
    ("metamorphic_like", 1),
    ("packed_like", 1),
)
ZOOS = ("polymorphic", "metamorphic", "packed")
SIZE_RANGE = (64 * 1024, 128 * 1024)
DEFAULT_FILES = 180
TRAIN_FRACTION = 2 / 3
TREES = 100
FOLDS = 10
# Lower bounds on samples per run, whatever --seconds allows.
MIN_JOBS = 2
MIN_PROBES = 5

# End-to-end metrics: unit and direction. The printed table adds
# TABLE_ONLY, which the JSON result leaves out: error_rate is 0 whenever
# the program works (``failed``/``attempted`` carry it), and train_s is
# defined for one workload only.
E2E = {
    "setup_s": ("s", "lower"),
    "files_per_s": ("files/s", "higher"),
    "mb_per_s": ("MB/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "model_mib": ("MiB", "lower"),
    "precision": ("ratio", "higher"),
    "recall": ("ratio", "higher"),
}
TABLE_ONLY = {"train_s": ("s", "lower"), "error_rate": ("ratio", "lower")}


class BenchFailure(Exception):
    """A check failed before the run could finish."""


@dataclass
class Proc:
    """One finished CLI process."""

    wall: float
    rss_mib: float
    code: int
    spans: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


class Runner:
    """Starts CLI processes, one at a time, and reaps each with its rusage."""

    def __init__(self, workdir: Path, threads: int):
        self.workdir = workdir
        self.threads = threads
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._traced = 0

    def cli(self, args: list[str], traced: bool = False) -> Proc:
        spans_path = None
        if traced:
            self._traced += 1
            spans_path = self.workdir / f"spans-{self._traced}.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--"]
        else:
            cmd = [sys.executable, "-m", "itect.cli"]
        cmd += ["--threads", str(self.threads), *args]
        with open(self.workdir / "cli-stderr.log", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        spans = None
        if spans_path is not None and spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
        return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode, spans)


# -- corpus -----------------------------------------------------------


@dataclass
class Corpus:
    manifest: Path
    train: list  # ManifestEntry
    held: list
    labels: dict[str, str]
    digest: str
    synth_s: float


@dataclass
class Setup:
    """What every workload needs before it measures."""

    runner: Runner
    data: Corpus
    models: Path
    tally: Tally
    seed: int


def build_corpus(seed: int, files: int, out: Path) -> Corpus:
    from itect import corpus, synth

    unit = files // 6
    t0 = time.perf_counter()
    made = [
        synth.synth_corpus(profile, share * unit, SIZE_RANGE, seed, out / profile)
        for profile, share in CLASS_MIX
    ]
    synth_s = time.perf_counter() - t0
    # Split each class on its own, so that every seed keeps the 3:1:1:1 mix
    # in the train and the held-out files alike.
    manifest = corpus.CorpusManifest(entries=tuple(
        e for m in made for e in corpus.split_manifest(m, TRAIN_FRACTION, seed)
    ))
    path = out / "corpus.jsonl"
    manifest.save(path)
    h = hashlib.sha256()
    for e in sorted(manifest, key=lambda e: (e.category, Path(e.path).name)):
        h.update(f"{e.category}/{Path(e.path).name} {e.label} {e.split} {e.digest}\n".encode())
    return Corpus(
        manifest=path,
        train=[e for e in manifest if e.split == "train"],
        held=[e for e in manifest if e.split != "train"],
        labels={e.digest: e.label for e in manifest},
        digest=h.hexdigest(),
        synth_s=synth_s,
    )


def check_pin(seed: int, files: int, digest: str) -> None:
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    if pins["files"] != files or str(seed) not in pins["sha256"]:
        print(f"note: corpus digest for seed {seed} is not pinned: {digest}", file=sys.stderr)
        return
    if pins["sha256"][str(seed)] != digest:
        raise BenchFailure(
            f"corpus digest for seed {seed} changed: {digest} != "
            f"{pins['sha256'][str(seed)]}; a change to synth is a change to the workload"
        )


def write_hexdumps(entries: list, out: Path) -> list[Path]:
    """Each file as ``offset byte-pairs`` lines, the CLI's ``.bytes`` input."""
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for e in entries:
        data = Path(e.path).read_bytes()
        path = out / (Path(e.path).name + ".bytes")
        with open(path, "w", encoding="ascii") as fh:
            for off in range(0, len(data), 16):
                fh.write(f"{off:08X} {data[off:off + 16].hex(' ').upper()}\n")
        paths.append(path)
    return paths


# -- program runs -----------------------------------------------------


def model_files(models: Path) -> list[Path]:
    return [models / "ents.forest", models / "ents-params.json"] + [
        models / f"{z}.slmm" for z in (*ZOOS, "benign")
    ]


def train_sequence(s: Setup, traced: bool = False) -> tuple[float, list[Proc]]:
    """The training CLI runs; returns their summed wall time and processes."""
    models = s.models
    models.mkdir(parents=True, exist_ok=True)
    m = str(s.data.manifest)
    steps = [
        ["ents", "--manifest", m, "--split", "train", "--out", str(models / "train.csv"),
         "--params-out", str(models / "ents-params.json")],
        ["train", "--features", str(models / "train.csv"), "--trees", str(TREES),
         "--folds", str(FOLDS), "--seed", str(s.seed), "--out", str(models / "ents.forest")],
    ] + [
        ["slamm-train", "--manifest", m, "--category", zoo, "--split", "train",
         "--n", "3", "--out", str(models / f"{zoo}.slmm")]
        for zoo in (*ZOOS, "benign")
    ]
    procs = []
    for step in steps:
        p = s.runner.cli(step, traced)
        if p.code != 0:
            raise BenchFailure(f"itect {step[0]} exited {p.code}")
        s.tally.add(1, 0)
        procs.append(p)
    return sum(p.wall for p in procs), procs


def classify(s: Setup, files: list, out: Path, traced: bool = False) -> Proc:
    out.unlink(missing_ok=True)
    models = s.models
    zoos = ",".join(str(models / f"{z}.slmm") for z in ZOOS)
    return s.runner.cli(
        ["classify", "--ents", str(models / "ents.forest"),
         "--ents-params", str(models / "ents-params.json"), "--slamm", zoos,
         "--benign", str(models / "benign.slmm"), "--out", str(out),
         *[str(f) for f in files]],
        traced,
    )


def read_verdicts(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Decision(NamedTuple):
    """The fields a verdict decides, without float scores or timings."""

    ents_verdict: bool
    cx: bool | None
    cd: bool | None
    cmse: bool | None
    overall: bool | None
    itect_verdict: bool
    ents_abstained: bool
    slamm_abstained: bool


def decision(v: dict) -> Decision:
    s = v["slamm"] or {}
    return Decision(
        v["ents_verdict"], s.get("cx"), s.get("cd"), s.get("cmse"), s.get("overall"),
        v["itect_verdict"], v["ents_abstained"], v["slamm_abstained"],
    )


def decision_digest(decisions: dict[str, Decision]) -> str:
    h = hashlib.sha256()
    for digest in sorted(decisions):
        h.update(json.dumps([digest, *decisions[digest]]).encode() + b"\n")
    return h.hexdigest()


def check_job(p: Proc, out: Path, expected: set[str], reference: dict | None,
              tally: Tally, what: str) -> tuple[dict[str, Decision], list[dict]]:
    """One verdict per expected digest, each matching ``reference`` if given."""
    if p.code != 0:
        tally.add(len(expected), len(expected), f"{what}: itect classify exited {p.code}")
        return {}, []
    try:
        verdicts = read_verdicts(out)
        decisions = {}
        extra = 0
        for v in verdicts:
            if v["digest"] in expected and v["digest"] not in decisions:
                decisions[v["digest"]] = decision(v)
            else:
                extra += 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tally.add(len(expected), len(expected), f"{what}: unreadable verdicts: {exc}")
        return {}, []
    missing = len(expected - decisions.keys())
    differ = 0
    if reference is not None:
        differ = sum(1 for d, rec in decisions.items() if reference.get(d) != rec)
    tally.add(
        len(expected), min(len(expected), missing + differ + extra),
        f"{what}: {missing} missing, {differ} differ from reference, {extra} unexpected",
    )
    return decisions, verdicts


def quality(decisions: dict[str, Decision], labels: dict[str, str]) -> tuple[float, float]:
    """Precision and recall of the combined verdict."""
    flagged = [d for d, r in decisions.items() if r.itect_verdict]
    tp = sum(1 for d in flagged if labels[d] == "malware")
    fp = len(flagged) - tp
    pos = sum(1 for d in decisions if labels[d] == "malware")
    return (tp / (tp + fp) if tp + fp else 1.0), (tp / pos if pos else 0.0)


def model_digests(models: Path) -> list[str]:
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in model_files(models)]


def mib(paths: list[Path]) -> float:
    return sum(p.stat().st_size for p in paths) / 2**20


def mbytes(entries: list) -> float:
    return sum(e.size_bytes for e in entries) / 1e6


# -- workloads --------------------------------------------------------


def prepare(args, workdir: Path, tally: Tally) -> Setup:
    threads = len(os.sched_getaffinity(0))
    data = build_corpus(args.seed, args.files, workdir / "corpus")
    check_pin(args.seed, args.files, data.digest)
    print(f"corpus: {args.files} files, digest {data.digest}", file=sys.stderr)
    return Setup(Runner(workdir, threads), data, workdir / "models", tally, args.seed)


def probe(s: Setup, inputs: list, reference: dict, workdir: Path) -> float:
    """Fresh-process classify of one file: start-up, imports, model load, first call."""
    out = workdir / "probe.jsonl"
    first = s.data.held[0].digest
    p = classify(s, inputs[:1], out)
    check_job(p, out, {first}, {first: reference[first]}, s.tally, "setup probe")
    return p.wall


def raw_scan(s: Setup, out: Path) -> tuple[dict, list[dict], Proc]:
    """Classify the held-out raw files; every file must get a verdict."""
    expected = {e.digest for e in s.data.held}
    p = classify(s, [e.path for e in s.data.held], out)
    decisions, verdicts = check_job(p, out, expected, None, s.tally, "raw scan")
    if len(decisions) != len(expected):
        raise BenchFailure("the raw scan did not classify every held-out file")
    return decisions, verdicts, p


def rounds(seconds: float):
    """Yield until the next round would end after ``seconds``, at least MIN_JOBS times."""
    t_end = time.perf_counter() + seconds
    n = 0
    while True:
        t0 = time.perf_counter()
        yield n
        n += 1
        if n >= MIN_JOBS and 2 * time.perf_counter() - t0 > t_end:
            return


def e2e_metrics(s: Setup, setups: list[float], walls: list[float], rss: list[float],
                inputs: list, reference: dict) -> dict[str, float]:
    """Medians over the run's samples, plus the models' size and quality."""
    print("job walls: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print("set-up probes: " + " ".join(f"{w:.3f}" for w in setups), file=sys.stderr)
    print(f"decision digest: {decision_digest(reference)}", file=sys.stderr)
    precision, recall = quality(reference, s.data.labels)
    n, mb = len(inputs), mbytes(inputs)
    return {
        "setup_s": statistics.median(setups),
        "files_per_s": statistics.median(n / w for w in walls),
        "mb_per_s": statistics.median(mb / w for w in walls),
        "peak_rss_mib": statistics.median(rss),
        "model_mib": mib(model_files(s.models)),
        "precision": precision,
        "recall": recall,
    }


def measure_scan(s: Setup, workload: str, seconds: float, workdir: Path) -> dict:
    """Untraced scan jobs, each followed by a set-up probe.

    Training the models (and, for scan-hex, the raw scan its decisions
    are checked against) happens before the clock starts.
    """
    train_sequence(s)
    expected = {e.digest for e in s.data.held}
    reference = None
    if workload == "scan-hex":
        reference, _, _ = raw_scan(s, workdir / "reference.jsonl")
        inputs = write_hexdumps(s.data.held, workdir / "hex")
    else:
        inputs = [e.path for e in s.data.held]
    out = workdir / "verdicts.jsonl"
    jobs, setups = [], []
    for n in rounds(seconds):
        p = classify(s, inputs, out)
        decisions, _ = check_job(p, out, expected, reference, s.tally, f"{workload} job {n + 1}")
        if reference is None:
            if len(decisions) != len(expected):
                raise BenchFailure("the first scan did not classify every file")
            reference = decisions
        jobs.append(p)
        setups.append(probe(s, inputs, reference, workdir))
    while len(setups) < MIN_PROBES:
        setups.append(probe(s, inputs, reference, workdir))
    return e2e_metrics(s, setups, [p.wall for p in jobs], [p.rss_mib for p in jobs],
                       s.data.held, reference)


def measure_train(s: Setup, seconds: float, workdir: Path) -> tuple[dict, float]:
    """Untraced training sequences, each followed by a set-up probe.

    Every sequence must rebuild byte-identical models. Precision and
    recall are those of the trained models on the held-out files, from
    one untimed raw scan.
    """
    first = reference = None
    walls, rss, setups = [], [], []
    held_raw = [e.path for e in s.data.held]
    for _ in rounds(seconds):
        wall, procs = train_sequence(s)
        walls.append(wall)
        rss.append(max(p.rss_mib for p in procs))
        digests = model_digests(s.models)
        first = first or digests
        s.tally.add(1, int(digests != first), "retraining wrote different models")
        if reference is None:
            reference, _, _ = raw_scan(s, workdir / "verdicts.jsonl")
        setups.append(probe(s, held_raw, reference, workdir))
    while len(setups) < MIN_PROBES:
        setups.append(probe(s, held_raw, reference, workdir))
    return e2e_metrics(s, setups, walls, rss, s.data.train, reference), statistics.median(walls)


def measure_traced(s: Setup, workload: str, workdir: Path) -> dict:
    """Every phase once traced; the workload's own job also once untraced."""
    import layers

    held = s.data.held
    expected = {e.digest for e in held}
    phases: dict[str, list[Proc]] = {}
    untraced: dict[str, float] = {}
    _, phases["train"] = train_sequence(s, traced=True)
    if workload == "train":
        first = model_digests(s.models)
        untraced["train"], _ = train_sequence(s)
        s.tally.add(1, int(model_digests(s.models) != first), "tracing changed the models")

    inputs = {"scan-raw": [e.path for e in held], "scan-hex": write_hexdumps(held, workdir / "hex")}
    reference, raw_verdicts, q = raw_scan(s, workdir / "scan-raw.jsonl")
    untraced["scan-raw"] = q.wall
    if workload == "scan-hex":
        out = workdir / "scan-hex.jsonl"
        q = classify(s, inputs["scan-hex"], out)
        check_job(q, out, expected, reference, s.tally, "scan-hex")
        untraced["scan-hex"] = q.wall
    for phase in ("scan-raw", "scan-hex"):
        out = workdir / f"{phase}-traced.jsonl"
        p = classify(s, inputs[phase], out, traced=True)
        check_job(p, out, expected, reference, s.tally, f"traced {phase}")
        phases[phase] = [p]
    own_scan = "scan-hex" if workload == "scan-hex" else "scan-raw"
    setups = [probe(s, inputs[own_scan], reference, workdir) for _ in range(MIN_PROBES)]
    print(f"decision digest: {decision_digest(reference)}", file=sys.stderr)
    return layers.per_layer(
        workload=workload,
        phases=phases,
        untraced=untraced,
        setup_s=statistics.median(setups),
        verdicts=raw_verdicts,
        labels=s.data.labels,
        forest_path=s.models / "ents.forest",
        zoo_paths=[s.models / f"{z}.slmm" for z in (*ZOOS, "benign")],
        inputs=s.data.train if workload == "train" else held,
        held_mb=mbytes(held),
        synth_s=s.data.synth_s,
        zoos=ZOOS,
    )


# -- entry point ------------------------------------------------------


def pin_digests(seeds: int, files: int) -> None:
    """Rewrite the pinned corpus digests for seeds 0..seeds-1."""
    pins = {"files": files, "sha256": {}}
    for seed in range(seeds):
        out = Path(tempfile.mkdtemp(prefix="pin-", dir=WORK))
        try:
            pins["sha256"][str(seed)] = build_corpus(seed, files, out).digest
        finally:
            shutil.rmtree(out, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def report(rows: dict[str, tuple[float, str, str]]) -> None:
    """The human-readable table that precedes the JSON result line."""
    for name, (value, unit, better) in rows.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<8} {better}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--files", type=int, default=DEFAULT_FILES,
                    help="corpus size, a multiple of 6 (digests are pinned for the default)")
    ap.add_argument("--pin-seeds", type=int, metavar="N",
                    help="rewrite corpus_digests.json for seeds 0..N-1 and exit")
    args = ap.parse_args(argv)
    if args.files % 6 or args.files < 24:
        ap.error("--files must be a multiple of 6, at least 24")
    if args.workload is None and args.pin_seeds is None:
        ap.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so the running CLI child is killed and reaped and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "itect" / "cli.py").is_file():
        print(f"error: no itect sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.pin_seeds is not None:
        pin_digests(args.pin_seeds, args.files)
        return 0
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tally = Tally()
    metrics: dict[str, tuple[float, str]] = {}  # name -> (value, unit)
    rows: dict[str, tuple[float, str, str]] = {}  # the table: + direction
    try:
        s = prepare(args, workdir, tally)
        if args.trace:
            metrics = measure_traced(s, args.workload, workdir)
            rows = {k: (v, u, "") for k, (v, u) in metrics.items()}
        else:
            if args.workload == "train":
                values, train_s = measure_train(s, args.seconds, workdir)
            else:
                values = measure_scan(s, args.workload, args.seconds, workdir)
            metrics = {k: (v, E2E[k][0]) for k, v in values.items()}
            rows = {k: (v, *E2E[k]) for k, v in values.items()}
            if args.workload == "train":
                rows["train_s"] = (train_s, *TABLE_ONLY["train_s"])
    except BenchFailure as exc:
        tally.add(1, 1)
        print(f"error: {exc}", file=sys.stderr)
        metrics, rows = {}, {}
    finally:
        log = workdir / "cli-stderr.log"
        if tally.failed and log.exists():
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-2000:])
        shutil.rmtree(workdir, ignore_errors=True)
    for note in tally.notes:
        print(f"failure: {note}", file=sys.stderr)
    rows["error_rate"] = (tally.failed / max(tally.attempted, 1), *TABLE_ONLY["error_rate"])
    report(rows)
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
