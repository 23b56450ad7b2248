"""Combined detector, evaluation metrics, and experiment harness.

The combined verdict is the OR of the entropy-profile forest and the
n-gram zoo comparison. Files too small for a detector make that
detector abstain (a benign vote, flagged on the verdict), keeping the
precision-first behavior.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, asdict
from typing import Sequence

from . import ents, forest as forest_mod, slamm
from .errors import DataError, reading
from .pool import SharedPool


# The JSON types of a verdict line's fields other than "slamm", whose
# flags are booleans too. Types are matched exactly, so a boolean is no score.
_FIELD_TYPES = {"digest": (str,), "ents_score": (int, float)} | dict.fromkeys(
    ("ents_verdict", "itect_verdict", "ents_abstained", "slamm_abstained"), (bool,)
)
_SLAMM_FLAGS = ("cx", "cd", "cmse", "overall")


def _finite(value) -> bool:
    """Whether a JSON value is a finite number (a boolean is not one)."""
    return type(value) is int or (type(value) is float and math.isfinite(value))


@dataclass
class Verdict:
    digest: str
    ents_verdict: bool
    ents_score: float
    slamm_verdict: slamm.SlammVerdict | None
    itect_verdict: bool
    ents_abstained: bool = False
    slamm_abstained: bool = False

    def to_json(self) -> str:
        d = asdict(self)
        d["slamm"] = d.pop("slamm_verdict")
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "Verdict":
        with reading(None, "bad verdict line"):
            d = json.loads(line)
            sv = None if d["slamm"] is None else slamm.SlammVerdict(**d["slamm"])
            typed = [(key, d[key], types) for key, types in _FIELD_TYPES.items()]
            typed += [(key, d["slamm"][key], (bool,)) for key in _SLAMM_FLAGS if sv]
            for key, value, types in typed:
                if type(value) not in types:
                    raise TypeError(f"{key} has type {type(value).__name__}")
            # Other keys, such as the wall times older builds wrote, are ignored.
            v = cls(slamm_verdict=sv, **{key: d[key] for key in _FIELD_TYPES})
            v._check_values()
            return v

    def _check_values(self) -> None:
        """Raise ValueError unless the fields agree as :func:`itect_classify`
        writes them."""
        sv = self.slamm_verdict
        diagnostics = sv.diagnostics if sv else {}
        if not _finite(self.ents_score):
            raise ValueError("ents_score is not finite")
        if type(diagnostics) is not dict or not all(
            type(zoo) is dict and all(map(_finite, zoo.values()))
            for zoo in diagnostics.values()
        ):
            raise ValueError("slamm diagnostics are not dicts of finite numbers per zoo")
        if self.slamm_abstained != (sv is None):
            raise ValueError("slamm must be null exactly when slamm_abstained is true")
        if self.ents_abstained and self.ents_verdict:
            raise ValueError("ents_verdict is true although EnTS abstained")
        if self.itect_verdict != (self.ents_verdict or (sv is not None and sv.overall)):
            raise ValueError("itect_verdict is not ents_verdict OR the slamm overall flag")


@dataclass
class EvalReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    fp_rate: float
    fn_rate: float
    roc: list[tuple[float, float]] | None = None
    per_category: dict[str, dict[str, float]] | None = None

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def to_dict(self) -> dict:
        return asdict(self)


def _metrics(tp: int, fp: int, tn: int, fn: int) -> dict[str, float]:
    total = tp + fp + tn + fn
    return {
        "accuracy": (tp + tn) / total if total else 0.0,
        "precision": tp / (tp + fp) if (tp + fp) else 1.0,
        "recall": tp / (tp + fn) if (tp + fn) else 0.0,
        "fp_rate": fp / (fp + tn) if (fp + tn) else 0.0,
        "fn_rate": fn / (fn + tp) if (fn + tp) else 0.0,
    }


def evaluate(
    verdicts: Sequence[Verdict],
    labels: dict[str, str],
    categories: dict[str, str] | None = None,
) -> EvalReport:
    """Confusion matrix and derived rates for a set of verdicts.

    ``labels`` maps digest -> "malware"/"benign". Precision defaults to
    1.0 when nothing was flagged.
    """
    tp = fp = tn = fn = 0
    per_cat: dict[str, list[int]] = {}
    for v in verdicts:
        if v.digest not in labels:
            raise DataError(f"no label for digest {v.digest}")
        truth = labels[v.digest] == "malware"
        pred = v.itect_verdict
        if truth and pred:
            tp += 1
        elif truth:
            fn += 1
        elif pred:
            fp += 1
        else:
            tn += 1
        if categories is not None:
            cat = categories.get(v.digest, "unknown")
            bucket = per_cat.setdefault(cat, [0, 0])
            bucket[0] += int(pred == truth)
            bucket[1] += 1
    per_category = None
    if categories is not None:
        per_category = {
            cat: {"accuracy": ok / n, "count": n} for cat, (ok, n) in sorted(per_cat.items())
        }
    m = _metrics(tp, fp, tn, fn)
    return EvalReport(tp=tp, fp=fp, tn=tn, fn=fn, per_category=per_category, **m)


def itect_classify(
    data: bytes,
    digest: str,
    trained_forest: forest_mod.TrainedForest,
    ents_params: ents.EntsParams,
    malware_models: Sequence[slamm.NgramModel],
    benign_model: slamm.NgramModel,
    pool: SharedPool = SharedPool(0),
) -> Verdict:
    """OR of the two detectors, with both sub-verdicts kept for audit.

    EnTS is submitted to ``pool`` and the zoos are scored on its map.
    With helpers, EnTS runs on one while this thread builds the
    suspect's n-gram histogram. With none (the default), EnTS runs
    first. Either way an EnTS error is raised only after SLaMM has
    run, and the verdict is the same.
    """
    ents_abstained = len(data) < ents_params.chunk_size
    slamm_abstained = len(data) < benign_model.n

    def run_ents() -> tuple[float, bool]:
        score, verdict = 0.0, False
        if not ents_abstained:
            profile = ents.entropy_profile(data, ents_params)
            row = profile[trained_forest.feature_cols]
            score = forest_mod.score(trained_forest, row)
            if trained_forest.cutoff is None:
                raise DataError("forest is not calibrated")
            verdict = score >= trained_forest.cutoff
        return score, verdict

    pending = pool.submit(run_ents)
    sv = None
    if not slamm_abstained:
        sv = slamm.slamm_classify(data, malware_models, benign_model, pool.map)
    ents_score, ents_verdict = pending.result()

    return Verdict(
        digest=digest,
        ents_verdict=ents_verdict,
        ents_score=ents_score,
        slamm_verdict=sv,
        itect_verdict=ents_verdict or (sv.overall if sv else False),
        ents_abstained=ents_abstained,
        slamm_abstained=slamm_abstained,
    )


def padding_cost(n_entropy: float, m_entropy: float, o_entropy: float) -> float:
    """Low-entropy chunks needed per high-entropy chunk to look benign.

    ``n_entropy`` is the malware's average chunk entropy, ``m_entropy``
    the benign average, ``o_entropy`` the padding material's entropy;
    requires o <= m <= n. The returned ratio n_pad satisfies
    (N + n_pad * O) / (n_pad + 1) = M.
    """
    if not (o_entropy <= m_entropy <= n_entropy):
        raise DataError("entropies must satisfy O <= M <= N")
    if m_entropy == o_entropy:
        raise DataError("infeasible: padding entropy equals benign average")
    return (n_entropy - m_entropy) / (m_entropy - o_entropy)


def prevalence_sweep(
    benign_verdicts: Sequence[Verdict],
    malware_verdicts: Sequence[Verdict],
    labels: dict[str, str],
    malware_fractions: Sequence[float],
    seed: int,
) -> list[EvalReport]:
    """Evaluate one model pair at varying malware prevalence.

    Verdicts are computed once by the caller; each prevalence point is
    a seeded without-replacement sample of the verdict pools, as large
    as the benign pool, whose malware share equals the requested
    fraction.
    """
    sample_size = len(benign_verdicts)
    if not sample_size:
        raise DataError("no benign verdicts to sample")
    reports = []
    for frac in malware_fractions:
        if not 0 <= frac <= 0.5:
            raise DataError("malware fractions must lie in [0, 0.5]")
        n_mal = round(frac * sample_size)
        n_ben = sample_size - n_mal
        if n_mal > len(malware_verdicts):
            raise DataError("not enough verdicts for requested prevalence")
        rng = random.Random(f"{seed}:{frac}")
        sample = rng.sample(list(benign_verdicts), n_ben) + rng.sample(
            list(malware_verdicts), n_mal
        )
        reports.append(evaluate(sample, labels))
    return reports
