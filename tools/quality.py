"""Detection quality of CLI-trained models on perfbench's corpora.

    python3 tools/quality.py --out QUALITY.json
    python3 tools/quality.py --seeds 1 2 3 --files 600 --out q.json

Run it from the root of a source checkout. Without ``--seeds`` and
``--files`` it sweeps seeds 1-10 at 180 files and seeds 1-3 at 600.
For each seed and size it builds perfbench's synthetic corpus
(``perfbench/run.py``'s ``build_corpus``), trains with ``cli.run`` into
a temporary directory, as perfbench's ``train`` workload does (``itect
ents`` on the train split with alpha auto, chunk 256 and tau 0.5;
``itect train`` with prune cutoff 0.8 and a 100-tree forest at the
seed, calibrated out of bag; ``itect slamm-train`` of one trigram zoo
per malware category and one benign zoo), loads those artifacts,
classifies the held-out files with ``pipeline.itect_classify`` and
records:

* TP and FP of EnTS, cx, cd, cmse, SLaMM overall and the combined
  verdict, and the combined precision and recall as perfbench computes
  them;
* the cutoff, the out-of-bag benign maximum (``benign_validation_max``)
  and the number of benign rows it was taken over (``benign_rows``);
* the highest EnTS score of a held-out benign file;
* held-out benign files x ``risk_bound``: the false positives the
  calibration's exchangeable risk bound allows on average;
* the number of retained profile dimensions;
* perfbench's decision digest of the held-out verdicts;
* ``verdicts_sha256``: the SHA-256 of the held-out verdicts'
  ``Verdict.to_json()`` lines, each followed by a newline, in held-out
  order, which is the file ``itect classify`` writes for those files.
  Two sweeps on one host that agree on it agree on every score and
  diagnostic, not only on the decisions. The scores depend on the
  host's floating-point library, so CI pins only the decision digest.

The 180-file corpora are checked against perfbench's pinned digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from itect import cli, corpus, ents, forest, pipeline, slamm  # noqa: E402
from run import (  # noqa: E402
    TREES, ZOOS, build_corpus, check_pin, decision, decision_digest, quality,
)

SWEEP = ((180, range(1, 11)), (600, range(1, 4)))
CHUNK, TAU, PRUNE_CUTOFF, ORDER = 256, 0.5, 0.8, 3
DETECTORS = ("ents", "cx", "cd", "cmse", "slamm", "itect")


def train(data, seed: int, models: Path) -> None:
    """The models of perfbench's ``train`` workload, trained by the CLI."""
    manifest = str(data.manifest)
    steps = [
        ["ents", "--manifest", manifest, "--split", "train", "--alpha", "auto",
         "--chunk", str(CHUNK), "--tau", str(TAU), "--out", str(models / "train.csv"),
         "--params-out", str(models / "ents-params.json")],
        ["train", "--features", str(models / "train.csv"), "--trees", str(TREES),
         "--prune-cutoff", str(PRUNE_CUTOFF), "--seed", str(seed),
         "--out", str(models / "ents.forest")],
    ] + [
        ["slamm-train", "--manifest", manifest, "--category", zoo, "--split", "train",
         "--n", str(ORDER), "--out", str(models / f"{zoo}.slmm")]
        for zoo in (*ZOOS, "benign")
    ]
    for step in steps:
        with contextlib.redirect_stdout(sys.stderr):  # stderr holds the progress
            code = cli.run(step)
        if code != 0:
            raise SystemExit(f"itect {step[0]} exited {code}")


def sweep_one(seed: int, files: int, work: Path) -> dict:
    data = build_corpus(seed, files, work / "corpus")
    check_pin(seed, files, data.digest)
    models = work / "models"
    models.mkdir()
    train(data, seed, models)
    params = ents.EntsParams.load(models / "ents-params.json")
    trained = forest.TrainedForest.load(models / "ents.forest")
    zoos = [slamm.NgramModel.load(models / f"{z}.slmm") for z in ZOOS]
    benign_zoo = slamm.NgramModel.load(models / "benign.slmm")
    tp, fp = dict.fromkeys(DETECTORS, 0), dict.fromkeys(DETECTORS, 0)
    decisions, benign_scores = {}, []
    verdicts_sha256 = hashlib.sha256()
    for e in data.held:
        v = pipeline.itect_classify(
            corpus.load_sample(e.path), e.digest, trained, params, zoos, benign_zoo
        )
        line = v.to_json()
        verdicts_sha256.update((line + "\n").encode())
        d = decisions[e.digest] = decision(json.loads(line))
        flags = (d.ents_verdict, d.cx, d.cd, d.cmse, d.overall, d.itect_verdict)
        tally = tp if e.label == "malware" else fp
        for name, flag in zip(DETECTORS, flags):
            tally[name] += bool(flag)
        if e.label == "benign":
            benign_scores.append(v.ents_score)
    precision, recall = quality(decisions, data.labels)
    cal = trained.calibration
    return {
        "seed": seed,
        "files": files,
        "held_out": {label: sum(e.label == label for e in data.held)
                     for label in corpus.LABELS},
        "tp": tp,
        "fp": fp,
        "precision": precision,
        "recall": recall,
        "cutoff": trained.cutoff,
        "benign_validation_max": cal["benign_validation_max"],
        "benign_rows": cal["benign_rows"],
        "held_out_benign_max": max(benign_scores),
        "risk_bound": cal["risk_bound"],
        "held_out_benign_x_risk_bound": len(benign_scores) * cal["risk_bound"],
        "retained_dims": len(trained.feature_cols),
        "alpha": params.alpha,
        "decision_digest": decision_digest(decisions),
        "verdicts_sha256": verdicts_sha256.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", help="seeds (default 1)")
    ap.add_argument("--files", type=int, help="corpus size, a multiple of 6 (default 180)")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)
    if args.seeds is None and args.files is None:
        sweep = SWEEP
    else:
        sweep = ((args.files or 180, args.seeds or [1]),)
    runs = []
    for files, seeds in sweep:
        if files % 6 or files < 24:
            ap.error("--files must be a multiple of 6, at least 24")
        for seed in seeds:
            work = Path(tempfile.mkdtemp(prefix="quality-"))
            try:
                runs.append(sweep_one(seed, files, work))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            r = runs[-1]
            print(f"seed {seed} files {files}: TP {r['tp']} FP {r['fp']}", file=sys.stderr)
    settings = {"alpha": "auto", "chunk": CHUNK, "tau": TAU, "prune_cutoff": PRUNE_CUTOFF,
                "trees": TREES, "order": ORDER}
    Path(args.out).write_text(
        json.dumps({"settings": settings, "runs": runs}, indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
