import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from itect import ents, forest, pipeline, slamm
from itect.errors import DataError
from itect.pool import SharedPool


def _verdict(digest, flag, score=0.0):
    return pipeline.Verdict(
        digest=digest,
        ents_verdict=flag,
        ents_score=score,
        slamm_verdict=None,
        itect_verdict=flag,
    )


class TestEvaluate:
    def test_confusion_golden(self):
        verdicts = [
            _verdict("m1", True),   # tp
            _verdict("m2", False),  # fn
            _verdict("b1", True),   # fp
            _verdict("b2", False),  # tn
            _verdict("b3", False),  # tn
        ]
        labels = {"m1": "malware", "m2": "malware",
                  "b1": "benign", "b2": "benign", "b3": "benign"}
        r = pipeline.evaluate(verdicts, labels)
        assert (r.tp, r.fp, r.tn, r.fn) == (1, 1, 2, 1)
        assert r.accuracy == pytest.approx(3 / 5)
        assert r.precision == pytest.approx(1 / 2)
        assert r.recall == pytest.approx(1 / 2)
        assert r.fp_rate == pytest.approx(1 / 3)
        assert r.fn_rate == pytest.approx(1 / 2)

    def test_precision_is_one_when_nothing_flagged(self):
        verdicts = [_verdict("b1", False), _verdict("m1", False)]
        labels = {"b1": "benign", "m1": "malware"}
        r = pipeline.evaluate(verdicts, labels)
        assert r.precision == 1.0
        assert r.recall == 0.0

    def test_per_category_breakdown(self):
        verdicts = [_verdict("m1", True), _verdict("m2", False), _verdict("b1", False)]
        labels = {"m1": "malware", "m2": "malware", "b1": "benign"}
        cats = {"m1": "packed", "m2": "packed", "b1": "benign"}
        r = pipeline.evaluate(verdicts, labels, categories=cats)
        assert r.per_category["packed"] == {"accuracy": 0.5, "count": 2}
        assert r.per_category["benign"] == {"accuracy": 1.0, "count": 1}

    def test_unknown_digest(self):
        with pytest.raises(DataError):
            pipeline.evaluate([_verdict("x", True)], {})


class TestVerdictJson:
    def test_round_trip_with_slamm(self):
        sv = slamm.SlammVerdict(
            cx=True, cd=True, cmse=False, overall=False,
            diagnostics={"benign": {"cross_entropy": 4.2, "kld": 0.1, "mse": 0.0}},
        )
        v = pipeline.Verdict(
            digest="d", ents_verdict=True, ents_score=0.8,
            slamm_verdict=sv, itect_verdict=True,
            slamm_abstained=False,
        )
        loaded = pipeline.Verdict.from_json(v.to_json())
        assert loaded == v

    def test_round_trip_abstained(self):
        v = pipeline.Verdict(
            digest="d", ents_verdict=False, ents_score=0.0,
            slamm_verdict=None, itect_verdict=False,
            ents_abstained=True, slamm_abstained=True,
        )
        assert pipeline.Verdict.from_json(v.to_json()) == v

    def test_unknown_slamm_key_is_data_error(self):
        sv = slamm.SlammVerdict(cx=False, cd=False, cmse=False, overall=False,
                                diagnostics={})
        v = pipeline.Verdict(digest="d", ents_verdict=False, ents_score=0.0,
                             slamm_verdict=sv, itect_verdict=False)
        d = json.loads(v.to_json())
        d["slamm"]["extra"] = 1
        with pytest.raises(DataError, match="bad verdict line"):
            pipeline.Verdict.from_json(json.dumps(d))


class TestPaddingCost:
    def test_worked_example(self):
        # one zero-entropy pad chunk per unit of excess entropy
        assert pipeline.padding_cost(8.0, 4.0, 0.0) == pytest.approx(1.0)

    def test_golden_ratio_values(self):
        assert pipeline.padding_cost(7.0, 5.0, 1.0) == pytest.approx(0.5)
        assert pipeline.padding_cost(8.0, 2.0, 0.0) == pytest.approx(3.0)

    def test_already_benign_looking(self):
        assert pipeline.padding_cost(4.0, 4.0, 0.0) == 0.0

    def test_infeasible_padding(self):
        with pytest.raises(DataError, match="infeasible"):
            pipeline.padding_cost(8.0, 3.0, 3.0)

    def test_ordering_enforced(self):
        with pytest.raises(DataError):
            pipeline.padding_cost(3.0, 5.0, 0.0)

    @settings(max_examples=200)
    @given(
        st.floats(0.0, 8.0), st.floats(0.0, 8.0), st.floats(0.0, 8.0)
    )
    def test_mix_identity(self, a, b, c):
        o, m, n = sorted((a, b, c))
        if m - o < 1e-6:
            return
        pad = pipeline.padding_cost(n, m, o)
        # padding at that ratio brings the average exactly to the target
        assert (n + pad * o) / (pad + 1) == pytest.approx(m, abs=1e-9)


class TestPrevalenceSweep:
    def _pools(self, fn_prob=0.2, fp_prob=0.0, n=400, seed=0):
        rng = np.random.default_rng(seed)
        benign = [
            _verdict(f"b{i}", bool(rng.random() < fp_prob)) for i in range(n)
        ]
        malware = [
            _verdict(f"m{i}", bool(rng.random() >= fn_prob)) for i in range(n)
        ]
        labels = {f"b{i}": "benign" for i in range(n)}
        labels |= {f"m{i}": "malware" for i in range(n)}
        return benign, malware, labels

    def test_prevalence_matches_request(self):
        benign, malware, labels = self._pools(n=200)
        reports = pipeline.prevalence_sweep(
            benign, malware, labels, [0.0, 0.1, 0.5], seed=1
        )
        for frac, r in zip([0.0, 0.1, 0.5], reports):
            assert r.total == 200
            assert r.tp + r.fn == round(frac * 200)

    def test_zero_fp_keeps_precision_one(self):
        benign, malware, labels = self._pools(fp_prob=0.0, n=200)
        reports = pipeline.prevalence_sweep(
            benign, malware, labels, [0.05, 0.25, 0.5], seed=2
        )
        assert all(r.precision == 1.0 for r in reports)

    def test_deterministic(self):
        benign, malware, labels = self._pools()
        a = pipeline.prevalence_sweep(benign, malware, labels, [0.3], seed=3)
        b = pipeline.prevalence_sweep(benign, malware, labels, [0.3], seed=3)
        assert a[0].to_dict() == b[0].to_dict()

    def test_fraction_bounds(self):
        benign, malware, labels = self._pools(n=10)
        with pytest.raises(DataError):
            pipeline.prevalence_sweep(benign, malware, labels, [0.6], seed=0)

    def test_pool_exhaustion(self):
        # Half of a 100-verdict sample is malware, and the pool holds 10.
        benign, _, labels = self._pools(n=100)
        malware = self._pools(n=10)[1]
        with pytest.raises(DataError):
            pipeline.prevalence_sweep(benign, malware, labels, [0.5], seed=0)


@pytest.fixture(scope="module")
def tiny_detectors():
    """A small calibrated forest plus n-gram models over toy corpora."""
    rng = np.random.default_rng(42)
    params = ents.EntsParams(chunk_size=256, alpha=3, tau=0.5)

    def make(profile_rng, malware):
        if malware:
            return profile_rng.integers(0, 256, 4096).astype(np.uint8).tobytes()
        return (b"benign structured content with low entropy " * 100)[:4096]

    benign_files = [make(rng, False) for _ in range(12)]
    malware_files = [rng.integers(0, 256, 4096).astype(np.uint8).tobytes()
                     for _ in range(12)]
    rows = np.array(
        [ents.entropy_profile(f, params) for f in benign_files + malware_files]
    )
    labels = [0] * 12 + [1] * 12
    f = forest.calibrate_zero_fp(
        rows, labels, forest.ForestConfig(trees=10, seed=0)
    )
    mal_model = slamm.NgramModel.train(malware_files, n=2, zoo_id="rand")
    ben_model = slamm.NgramModel.train(benign_files, n=2, zoo_id="ben")
    return {
        "forest": f,
        "params": params,
        "malware": [mal_model],
        "benign": ben_model,
    }


class TestItectClassify:
    def test_or_combination(self, tiny_detectors):
        d = tiny_detectors
        rng = np.random.default_rng(7)
        suspect = rng.integers(0, 256, 4096).astype(np.uint8).tobytes()
        v = pipeline.itect_classify(
            suspect, "s1", d["forest"], d["params"], d["malware"], d["benign"]
        )
        assert v.itect_verdict == (v.ents_verdict or v.slamm_verdict.overall)
        assert v.itect_verdict

    def test_benign_file_not_flagged(self, tiny_detectors):
        d = tiny_detectors
        clean = (b"benign structured content with low entropy " * 100)[:4096]
        v = pipeline.itect_classify(
            clean, "c1", d["forest"], d["params"], d["malware"], d["benign"]
        )
        assert not v.itect_verdict

    def test_tiny_file_abstains_everywhere(self, tiny_detectors):
        d = tiny_detectors
        v = pipeline.itect_classify(
            b"x", "t1", d["forest"], d["params"], d["malware"], d["benign"]
        )
        assert v.ents_abstained and v.slamm_abstained
        assert not v.itect_verdict
        assert v.slamm_verdict is None

    def test_sub_chunk_file_still_gets_slamm(self, tiny_detectors):
        d = tiny_detectors
        data = bytes(range(64))  # < chunk_size but >= n
        v = pipeline.itect_classify(
            data, "t2", d["forest"], d["params"], d["malware"], d["benign"]
        )
        assert v.ents_abstained and not v.slamm_abstained
        assert v.slamm_verdict is not None

    def test_pooled_equals_serial(self, tiny_detectors):
        d = tiny_detectors
        rng = np.random.default_rng(8)
        suspects = [
            rng.integers(0, 256, 4096).astype(np.uint8).tobytes(),
            (b"benign structured content with low entropy " * 100)[:4096],
            bytes(range(64)),
            b"x",
        ]
        args = (d["forest"], d["params"], d["malware"], d["benign"])
        with SharedPool(2) as pool:
            for i, data in enumerate(suspects):
                serial = pipeline.itect_classify(data, str(i), *args)
                pooled = pipeline.itect_classify(data, str(i), *args, pool=pool)
                assert pooled == serial

    def test_pooled_uncalibrated_forest_rejected(self, tiny_detectors):
        # The check runs on a helper thread; its error reaches the caller.
        d = tiny_detectors
        uncalibrated = forest.TrainedForest(
            trees=d["forest"].trees, config=d["forest"].config,
            feature_cols=d["forest"].feature_cols,
        )
        data = np.random.default_rng(9).integers(0, 256, 4096).astype(np.uint8).tobytes()
        with SharedPool(1) as pool, pytest.raises(DataError, match="not calibrated"):
            pipeline.itect_classify(
                data, "u", uncalibrated, d["params"], d["malware"], d["benign"], pool=pool
            )
