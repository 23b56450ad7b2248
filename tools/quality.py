"""Detection quality of in-process trained models on perfbench's corpora.

    python3 tools/quality.py --out QUALITY.json
    python3 tools/quality.py --seeds 1 2 3 --files 600 --out q.json

Run it from the root of a source checkout. Without ``--seeds`` and
``--files`` it sweeps seeds 1-10 at 180 files and seeds 1-3 at 600.
For each seed and size it builds perfbench's synthetic corpus
(``perfbench/run.py``'s ``build_corpus``), trains in this process as
perfbench's ``train`` workload does through the CLI (EnTS with alpha
auto, chunk 256, tau 0.5 and prune cutoff 0.8; a 100-tree forest at the
seed, calibrated out of bag; one trigram zoo per malware category and
one benign zoo), classifies the held-out files with
``pipeline.itect_classify`` and records:

* TP and FP of EnTS, cx, cd, cmse, SLaMM overall and the combined
  verdict, and the combined precision and recall as perfbench computes
  them;
* the cutoff, the out-of-bag benign maximum (``benign_validation_max``)
  and the number of benign rows it was taken over (``benign_rows``);
* the highest EnTS score of a held-out benign file;
* held-out benign files x ``risk_bound``: the false positives the
  calibration's exchangeable risk bound allows on average;
* the number of retained profile dimensions;
* perfbench's decision digest of the held-out verdicts.

The 180-file corpora are checked against perfbench's pinned digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from itect import cli, corpus, ents, forest, pipeline, slamm  # noqa: E402
from run import (  # noqa: E402
    TREES, ZOOS, build_corpus, check_pin, decision, decision_digest, quality,
)

SWEEP = ((180, range(1, 11)), (600, range(1, 4)))
CHUNK, TAU, PRUNE_CUTOFF, ORDER = 256, 0.5, 0.8, 3
DETECTORS = ("ents", "cx", "cd", "cmse", "slamm", "itect")


def train_ents(train: list, seed: int) -> tuple[ents.EntsParams, forest.TrainedForest]:
    sizes = {label: [e.size_bytes for e in train if e.label == label]
             for label in corpus.LABELS}
    alpha = ents.compute_alpha(sizes["malware"], sizes["benign"], CHUNK)
    params = ents.EntsParams(chunk_size=CHUNK, alpha=alpha, tau=TAU)
    matrix = ents.FeatureMatrix(
        rows=np.array([ents.entropy_profile(corpus.load_sample(e.path), params).values
                       for e in train]),
        col_index=list(range(params.n_points)),
        labels=[e.label for e in train],
    )
    pruned = ents.prune_correlated(matrix, cutoff=PRUNE_CUTOFF)
    trained = forest.calibrate_zero_fp(
        pruned.rows, [int(label == "malware") for label in pruned.labels],
        forest.ForestConfig(trees=TREES, seed=seed), feature_cols=pruned.col_index,
    )
    return params, trained


def train_zoo(train: list, category: str) -> slamm.NgramModel:
    """The zoo ``itect slamm-train --category`` trains on the train split."""
    return slamm.NgramModel.train(
        (corpus.load_sample(e.path) for e in cli._zoo_documents(train, category, None)),
        n=ORDER, zoo_id=category,
    )


def sweep_one(seed: int, files: int, work: Path) -> dict:
    data = build_corpus(seed, files, work)
    check_pin(seed, files, data.digest)
    params, trained = train_ents(data.train, seed)
    zoos = [train_zoo(data.train, z) for z in ZOOS]
    benign_zoo = train_zoo(data.train, "benign")
    tp, fp = dict.fromkeys(DETECTORS, 0), dict.fromkeys(DETECTORS, 0)
    decisions, benign_scores = {}, []
    for e in data.held:
        v = pipeline.itect_classify(
            corpus.load_sample(e.path), e.digest, trained, params, zoos, benign_zoo
        )
        d = decisions[e.digest] = decision(json.loads(v.to_json()))
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
