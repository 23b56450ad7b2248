"""False-positive-penalizing random forest with zero-FP calibration.

CART-style axis-aligned trees over entropy-profile features. Benign
samples carry extra weight in the Gini criterion so splits that would
misclassify benign-ware as malware are expensive. After training, the
vote cutoff is pushed just above the highest out-of-bag benign score,
so no benign training sample is flagged by the trees that never saw it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, reading


@dataclass
class TreeNode:
    # Split node: dim/threshold/left/right set. Leaf: malware_fraction/count.
    dim: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    malware_fraction: float | None = None
    count: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.dim is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"malware_fraction": self.malware_fraction, "count": self.count}
        return {
            "dim": self.dim,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict, dims: int) -> "TreeNode":
        """The tree saved as ``d``; a split dim outside [0, dims) or a
        threshold or leaf fraction that is not a number raises ValueError."""
        if "dim" in d:
            dim = d["dim"]
            if not _is_int(dim) or not 0 <= dim < dims:
                raise ValueError(f"split dim {dim!r} outside [0, {dims})")
            return cls(
                dim=dim,
                threshold=_real(d["threshold"], "threshold"),
                left=cls.from_dict(d["left"], dims),
                right=cls.from_dict(d["right"], dims),
            )
        return cls(
            malware_fraction=_real(d["malware_fraction"], "malware_fraction"),
            count=d["count"],
        )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _real(x, what: str) -> float:
    """``x`` as a float; a value that is not a finite JSON number raises ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise ValueError(f"{what} {x!r} is not a finite number")
    return float(x)


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 100
    class_weight_fp: float = 5.0
    max_depth: int | None = None
    min_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.trees < 1:
            raise ValueError("trees must be >= 1")
        if self.class_weight_fp < 1:
            raise ValueError("class_weight_fp must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")


@dataclass
class TrainedForest:
    trees: list[TreeNode]
    config: ForestConfig
    feature_cols: list[int]
    cutoff: float | None = None
    calibration: dict | None = field(default=None, repr=False)

    @property
    def vote_step(self) -> float:
        return 1.0 / (2.0 * len(self.trees))

    def save(self, path: str | Path) -> None:
        doc = {
            "config": asdict(self.config),
            "cutoff": self.cutoff,
            "feature_cols": self.feature_cols,
            "calibration": self.calibration,
            "trees": [t.to_dict() for t in self.trees],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)

    @classmethod
    def load(cls, path: str | Path) -> "TrainedForest":
        """Read a forest file; one that is not a saved forest, or that
        could not score a row, raises DataError."""
        with reading(path, "not a forest file"), open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
            cols = list(doc["feature_cols"])
            if not all(_is_int(c) and c >= 0 for c in cols):
                raise ValueError(f"feature_cols {cols!r} are not column indices")
            if not doc["trees"]:
                raise ValueError("no trees")
            cutoff = doc["cutoff"]
            return cls(
                trees=[TreeNode.from_dict(t, len(cols)) for t in doc["trees"]],
                config=ForestConfig(**doc["config"]),
                feature_cols=cols,
                cutoff=None if cutoff is None else _real(cutoff, "cutoff"),
                calibration=doc.get("calibration"),
            )


def _weighted_gini_cost(
    wl0: np.ndarray, wl1: np.ndarray, wr0: np.ndarray, wr1: np.ndarray
) -> np.ndarray:
    wl = wl0 + wl1
    wr = wr0 + wr1
    total = wl + wr
    with np.errstate(invalid="ignore", divide="ignore"):
        gl = 1.0 - (wl0 / wl) ** 2 - (wl1 / wl) ** 2
        gr = 1.0 - (wr0 / wr) ** 2 - (wr1 / wr) ** 2
    return (wl * gl + wr * gr) / total


def _best_split(
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    feat_ids: np.ndarray,
    min_leaf: int,
) -> tuple[int, float] | None:
    """Lowest-cost split over the candidate features, all sorted at once.

    The first feature with the lowest cost wins, then the first
    boundary within it; None if no feature has a valid boundary.
    """
    cols = x[:, feat_ids]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0)
    ws = w[order]
    cum1 = np.cumsum(ws * y[order], axis=0)
    cum_all = np.cumsum(ws, axis=0)
    # Candidate boundaries after row i of each column (left = first i+1 rows).
    m = len(xs)
    valid = xs[:-1] < xs[1:]
    if min_leaf > 1:
        i = np.arange(m - 1)[:, None]
        valid &= (i + 1 >= min_leaf) & (m - i - 1 >= min_leaf)
    wl1 = cum1[:-1]
    wl = cum_all[:-1]
    wl0 = wl - wl1
    wr1 = cum1[-1] - wl1
    wr0 = (cum_all[-1] - wl) - wr1
    cost = np.where(valid, _weighted_gini_cost(wl0, wl1, wr0, wr1), np.inf).T
    f, j = divmod(int(np.argmin(cost)), m - 1)
    if not cost[f, j] < np.inf:
        return None
    return int(feat_ids[f]), float((xs[j, f] + xs[j + 1, f]) / 2.0)


def _grow(
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    rng: np.random.Generator,
    n_subset: int,
    max_depth: int | None,
    min_leaf: int,
    depth: int = 0,
) -> TreeNode:
    n = len(y)
    frac = float(y.mean())
    if (
        n < 2 * min_leaf
        or frac in (0.0, 1.0)
        or (max_depth is not None and depth >= max_depth)
    ):
        return TreeNode(malware_fraction=frac, count=n)
    feat_ids = rng.choice(x.shape[1], size=n_subset, replace=False)
    split = _best_split(x, y, w, feat_ids, min_leaf)
    if split is None:
        return TreeNode(malware_fraction=frac, count=n)
    f, t = split
    mask = x[:, f] <= t
    if not mask.any() or mask.all():
        return TreeNode(malware_fraction=frac, count=n)
    return TreeNode(
        dim=f,
        threshold=t,
        left=_grow(x[mask], y[mask], w[mask], rng, n_subset, max_depth, min_leaf, depth + 1),
        right=_grow(x[~mask], y[~mask], w[~mask], rng, n_subset, max_depth, min_leaf, depth + 1),
    )


def _bootstrap(seed: int, t: int, n: int) -> tuple[np.random.Generator, np.ndarray]:
    """Tree ``t``'s generator and its bootstrap: ``n`` row indices drawn
    with replacement. The generator goes on to pick the tree's split
    features, so training and out-of-bag scoring share this one rule."""
    rng = np.random.default_rng([seed, t])
    return rng, rng.integers(0, n, n)


def train_forest(
    rows: np.ndarray,
    labels: Sequence[int],
    config: ForestConfig,
    feature_cols: Sequence[int] | None = None,
) -> TrainedForest:
    """Train an uncalibrated forest; labels are 1 = malware, 0 = benign.

    Each tree sees a bootstrap sample and sqrt(D) random features per
    split; benign samples weigh ``class_weight_fp`` in the impurity.
    """
    x = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or len(y) != x.shape[0]:
        raise ValueError("rows/labels shape mismatch")
    if len(np.unique(y)) < 2:
        raise DataError("training data must contain both classes")
    w = np.where(y == 0, config.class_weight_fp, 1.0)
    n, d = x.shape
    n_subset = max(1, int(math.isqrt(d)))
    trees = []
    for t in range(config.trees):
        rng, idx = _bootstrap(config.seed, t, n)
        trees.append(
            _grow(
                x[idx], y[idx], w[idx], rng, n_subset, config.max_depth, config.min_leaf
            )
        )
    return TrainedForest(
        trees=trees,
        config=config,
        feature_cols=list(feature_cols) if feature_cols is not None else list(range(d)),
    )


def _tree_vote(node: TreeNode, row: np.ndarray) -> bool:
    while not node.is_leaf:
        node = node.left if row[node.dim] <= node.threshold else node.right
    return node.malware_fraction > 0.5


def score(forest: TrainedForest, row: np.ndarray) -> float:
    """Fraction of trees voting malware for one feature row."""
    row = np.asarray(row, dtype=np.float64)
    votes = sum(_tree_vote(t, row) for t in forest.trees)
    return votes / len(forest.trees)


def score_rows(forest: TrainedForest, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    return np.array([score(forest, r) for r in rows])


def calibrate_zero_fp(
    rows: np.ndarray,
    labels: Sequence[int],
    config: ForestConfig,
    feature_cols: Sequence[int] | None = None,
) -> TrainedForest:
    """Train and attach the most conservative zero-FP vote cutoff.

    Each benign row is scored out of bag (Breiman, 2001): only by the
    trees whose bootstrap left it out. The cutoff is the highest such
    score plus half a vote step, so every scored benign row lands
    strictly below it. A benign row that every tree drew has no
    out-of-bag score and is skipped; if no benign row has one, DataError.
    So is a benign row that scores 1.0, since no score can exceed it.

    ``calibration`` records two numbers that say how far to trust the
    cutoff. ``risk_bound`` is 1/(m+1) for the m scored benign rows: a
    benign file exchangeable with them scores above all m with at most
    that probability (Vovk et al., *Algorithmic Learning in a Random
    World*, 2005). ``min_oob_voters`` is the fewest trees any of them
    was scored by; a score from few trees moves in coarse steps.
    """
    x = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    final = train_forest(x, y, config, feature_cols=feature_cols)
    n = len(y)
    votes = np.zeros(n)
    voters = np.zeros(n)
    for t, tree in enumerate(final.trees):
        out_of_bag = y == 0
        out_of_bag[_bootstrap(config.seed, t, n)[1]] = False
        for i in np.flatnonzero(out_of_bag):
            votes[i] += _tree_vote(tree, x[i])
            voters[i] += 1
    scored = np.flatnonzero(voters > 0)
    if not len(scored):
        raise DataError("every benign row is in every tree's bootstrap")
    max_benign = float((votes[scored] / voters[scored]).max())
    if max_benign >= 1.0:
        raise DataError("a benign row scores 1.0 out of bag: no cutoff keeps zero FP")
    final.cutoff = max_benign + final.vote_step
    final.calibration = {
        "method": "oob",
        "seed": config.seed,
        "benign_validation_max": max_benign,
        "benign_rows": len(scored),
        "min_oob_voters": int(voters[scored].min()),
        "risk_bound": 1.0 / (len(scored) + 1),
    }
    return final


DEFAULT_FP_BUDGETS = (0.0, 0.002, 0.01, 0.05, 0.1, 0.15)


def roc_points(
    scored: Sequence[tuple[float, int]],
    fp_budgets: Sequence[float] = DEFAULT_FP_BUDGETS,
) -> list[tuple[float, float]]:
    """(FP rate, TP rate) at each FP-rate budget.

    For each budget, the threshold giving the highest TP rate whose FP
    rate stays within the budget (the ROC staircase read left to right).
    """
    scores = np.array([s for s, _ in scored], dtype=np.float64)
    labels = np.array([l for _, l in scored], dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("need both classes to compute ROC points")
    thresholds = np.concatenate([np.unique(scores), [np.inf]])
    fprs = np.empty(len(thresholds))
    tprs = np.empty(len(thresholds))
    for i, t in enumerate(thresholds):
        pred = scores >= t
        fprs[i] = (pred & (labels == 0)).sum() / n_neg
        tprs[i] = (pred & (labels == 1)).sum() / n_pos
    points = []
    for budget in fp_budgets:
        ok = fprs <= budget
        best = int(np.flatnonzero(ok)[np.argmax(tprs[ok])])
        points.append((float(fprs[best]), float(tprs[best])))
    return points
