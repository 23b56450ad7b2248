import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from itect import ents, forest, pipeline, slamm
from itect.errors import DataError


def two_blob_data(n_per_class=60, dims=8, gap=4.0, seed=0, noise=1.0):
    """Two well-separated Gaussian blobs; label 1 = malware."""
    rng = np.random.default_rng(seed)
    benign = rng.normal(0.0, noise, (n_per_class, dims))
    malware = rng.normal(gap, noise, (n_per_class, dims))
    rows = np.vstack([benign, malware])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return rows, labels


class TestTrainForest:
    def test_separable_blobs_learned(self):
        rows, labels = two_blob_data()
        f = forest.train_forest(rows, labels, forest.ForestConfig(trees=20, seed=1))
        scores = forest.score_rows(f, rows)
        assert np.all(scores[labels == 1] > 0.5)
        assert np.all(scores[labels == 0] < 0.5)

    def test_deterministic_for_seed(self):
        rows, labels = two_blob_data()
        cfg = forest.ForestConfig(trees=10, seed=7)
        a = forest.train_forest(rows, labels, cfg)
        b = forest.train_forest(rows, labels, cfg)
        np.testing.assert_array_equal(
            forest.score_rows(a, rows), forest.score_rows(b, rows)
        )
        assert [t.to_dict() for t in a.trees] == [t.to_dict() for t in b.trees]

    def test_different_seeds_differ(self):
        rows, labels = two_blob_data(gap=1.0)
        a = forest.train_forest(rows, labels, forest.ForestConfig(trees=10, seed=1))
        b = forest.train_forest(rows, labels, forest.ForestConfig(trees=10, seed=2))
        assert [t.to_dict() for t in a.trees] != [t.to_dict() for t in b.trees]

    def test_single_class_rejected(self):
        rows = np.random.default_rng(0).normal(0, 1, (10, 3))
        with pytest.raises(DataError):
            forest.train_forest(rows, [1] * 10, forest.ForestConfig(trees=2))

    def test_score_bounds(self):
        rows, labels = two_blob_data(gap=0.5)
        f = forest.train_forest(rows, labels, forest.ForestConfig(trees=15, seed=3))
        scores = forest.score_rows(f, rows)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_benign_weight_shifts_boundary(self):
        # With overlapping classes, a heavier benign weight should flag
        # fewer points near the boundary as malware.
        rows, labels = two_blob_data(gap=1.5, seed=5)
        boundary = np.random.default_rng(6).normal(0.75 * 1.5, 0.3, (200, 8))
        light = forest.train_forest(
            rows, labels, forest.ForestConfig(trees=30, class_weight_fp=1.0, seed=9)
        )
        heavy = forest.train_forest(
            rows, labels, forest.ForestConfig(trees=30, class_weight_fp=20.0, seed=9)
        )
        flagged_light = (forest.score_rows(light, boundary) > 0.5).sum()
        flagged_heavy = (forest.score_rows(heavy, boundary) > 0.5).sum()
        assert flagged_heavy <= flagged_light

    def test_max_depth_one_gives_stumps(self):
        rows, labels = two_blob_data()
        f = forest.train_forest(
            rows, labels, forest.ForestConfig(trees=5, max_depth=1, seed=2)
        )
        for t in f.trees:
            assert t.is_leaf or (t.left.is_leaf and t.right.is_leaf)


class TestCalibration:
    def test_zero_fp_on_training_corpus(self):
        # With 20 trees some benign row is out of bag for so few trees that
        # all of them vote malware, and calibration refuses the data.
        rows, labels = two_blob_data(n_per_class=80, gap=3.0, seed=11)
        f = forest.calibrate_zero_fp(
            rows, labels, forest.ForestConfig(trees=50, seed=4)
        )
        assert f.cutoff is not None and f.cutoff < 1
        preds = [forest.score(f, r) >= f.cutoff for r in rows[labels == 0]]
        assert not any(preds)

    def test_cutoff_above_benign_validation_max(self):
        rows, labels = two_blob_data(n_per_class=50, gap=2.0, seed=12)
        f = forest.calibrate_zero_fp(
            rows, labels, forest.ForestConfig(trees=10, seed=5)
        )
        assert f.cutoff == pytest.approx(
            f.calibration["benign_validation_max"] + f.vote_step
        )
        assert f.calibration["method"] == "oob"
        assert 0 < f.calibration["benign_rows"] <= 50

    def test_uncalibrated_predict_rejected(self):
        # The classify path refuses a forest that has no cutoff.
        rows, labels = two_blob_data()  # 8 dims: an alpha-3 entropy profile
        f = forest.train_forest(rows, labels, forest.ForestConfig(trees=5))
        params = ents.EntsParams(chunk_size=64, alpha=3)
        data = bytes(range(256)) * 4
        zoo = slamm.NgramModel.train([data], n=2)
        with pytest.raises(DataError, match="not calibrated"):
            pipeline.itect_classify(data, "d", f, params, [zoo], zoo)

    def test_cutoff_matches_brute_force_out_of_bag_scores(self):
        # 50 trees: with 25, some benign row's few out-of-bag trees all
        # vote malware, and calibration refuses the data.
        rows, labels = two_blob_data(n_per_class=40, gap=1.0, seed=13)
        cfg = forest.ForestConfig(trees=50, seed=8)
        f = forest.calibrate_zero_fp(rows, labels, cfg)
        plain = forest.train_forest(rows, labels, cfg)
        assert [t.to_dict() for t in f.trees] == [t.to_dict() for t in plain.trees]
        # Rebuild each tree's bootstrap and score every benign row with the
        # trees that did not draw it.
        n = len(labels)
        drawn = [
            set(np.random.default_rng([cfg.seed, t]).integers(0, n, n).tolist())
            for t in range(cfg.trees)
        ]
        oob = {}
        for i in np.flatnonzero(labels == 0):
            trees = [tree for tree, d in zip(f.trees, drawn) if i not in d]
            if trees:
                sub = forest.TrainedForest(trees=trees, config=cfg, feature_cols=[])
                oob[i] = forest.score(sub, rows[i])
        top = max(oob.values())
        assert 0 < top < 1
        assert f.calibration["benign_validation_max"] == top
        assert f.calibration["benign_rows"] == len(oob)
        assert f.cutoff == top + f.vote_step
        assert all(s < f.cutoff for s in oob.values())

    def test_risk_bound_and_fewest_voters(self):
        # Rebuild each tree's bootstrap and count, for every benign row some
        # tree left out, the trees that scored it.
        rows, labels = two_blob_data(n_per_class=30, gap=3.0, seed=14)
        cfg = forest.ForestConfig(trees=12, seed=2)
        f = forest.calibrate_zero_fp(rows, labels, cfg)
        n = len(labels)
        drawn = [
            set(np.random.default_rng([cfg.seed, t]).integers(0, n, n).tolist())
            for t in range(cfg.trees)
        ]
        voters = [sum(i not in d for d in drawn) for i in np.flatnonzero(labels == 0)]
        scored = [v for v in voters if v]
        assert f.calibration["benign_rows"] == len(scored)
        assert f.calibration["min_oob_voters"] == min(scored)
        assert 1 <= min(scored) < cfg.trees
        assert f.calibration["risk_bound"] == 1 / (len(scored) + 1)

    def test_trains_one_forest(self, monkeypatch):
        calls = []
        train = forest.train_forest

        def counted(*args, **kwargs):
            calls.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(forest, "train_forest", counted)
        rows, labels = two_blob_data(n_per_class=20)
        forest.calibrate_zero_fp(rows, labels, forest.ForestConfig(trees=5, seed=1))
        assert len(calls) == 1

    def test_no_out_of_bag_benign_row(self):
        # Row 0 is the one benign row; the one tree's bootstrap draws it.
        seed = next(
            s for s in range(100)
            if 0 in np.random.default_rng([s, 0]).integers(0, 2, 2)
        )
        rows = np.array([[0.0], [1.0]])
        with pytest.raises(DataError, match="bootstrap"):
            forest.calibrate_zero_fp(rows, [0, 1], forest.ForestConfig(trees=1, seed=seed))


    def test_benign_row_that_scores_one_is_data_error(self):
        # Row 0 is benign but shares its features with 30 malware rows, so
        # every tree that left it out votes malware: its out-of-bag score
        # is 1.0, and a cutoff above it could flag nothing.
        rows = np.array([[0.0]] * 31 + [[10.0]] * 30)
        labels = [0] + [1] * 30 + [0] * 30
        with pytest.raises(DataError, match="scores 1.0"):
            forest.calibrate_zero_fp(rows, labels, forest.ForestConfig(trees=5, seed=0))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rows, labels = two_blob_data(n_per_class=30)
        f = forest.calibrate_zero_fp(
            rows, labels, forest.ForestConfig(trees=8, seed=6),
            feature_cols=[0, 2, 3, 5, 8, 13, 21, 34],
        )
        path = tmp_path / "forest.json"
        f.save(path)
        loaded = forest.TrainedForest.load(path)
        assert loaded.cutoff == f.cutoff
        assert loaded.config == f.config
        assert loaded.feature_cols == f.feature_cols
        np.testing.assert_array_equal(
            forest.score_rows(loaded, rows), forest.score_rows(f, rows)
        )

    def test_too_deep_tree_is_data_error(self, tmp_path):
        leaf = '{"malware_fraction": 0.0, "count": 1}'
        depth = 5000  # past the interpreter's recursion limit
        tree = '{"dim": 0, "threshold": 0.0, "left": ' * depth + leaf
        tree += (', "right": ' + leaf + "}") * depth
        path = tmp_path / "forest.json"
        path.write_text(
            '{"config": {}, "cutoff": null, "feature_cols": [0], "trees": [' + tree + "]}"
        )
        with pytest.raises(DataError, match="RecursionError"):
            forest.TrainedForest.load(path)

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda doc: doc.update(trees=[]), id="no-trees"),
            pytest.param(lambda doc: doc.update(cutoff="0.5"), id="cutoff-string"),
            pytest.param(lambda doc: doc.update(cutoff=True), id="cutoff-bool"),
            pytest.param(lambda doc: doc.update(feature_cols=[-1, 2]), id="col-negative"),
            pytest.param(lambda doc: doc.update(feature_cols=[0, 1.0]), id="col-float"),
            pytest.param(lambda doc: doc.update(feature_cols=[0, True]), id="col-bool"),
            pytest.param(lambda doc: _first_split(doc).update(dim=-1), id="dim-negative"),
            pytest.param(lambda doc: _first_split(doc).update(dim=8), id="dim-past-cols"),
            pytest.param(lambda doc: _first_split(doc).update(dim=0.0), id="dim-float"),
            pytest.param(lambda doc: _first_split(doc).update(dim=True), id="dim-bool"),
            pytest.param(lambda doc: _first_split(doc).update(threshold="1"), id="threshold-string"),
            pytest.param(lambda doc: _first_split(doc).update(threshold=None), id="threshold-null"),
            pytest.param(lambda doc: _first_split(doc).update(threshold=10**400), id="threshold-huge"),
            pytest.param(lambda doc: _first_leaf(doc).update(malware_fraction=[1]), id="fraction-list"),
            pytest.param(lambda doc: doc.update(cutoff=math.nan), id="cutoff-nan"),
            pytest.param(lambda doc: doc.update(cutoff=math.inf), id="cutoff-inf"),
            pytest.param(lambda doc: _first_split(doc).update(threshold=-math.inf), id="threshold-minus-inf"),
            pytest.param(lambda doc: _first_leaf(doc).update(malware_fraction=math.nan), id="fraction-nan"),
        ],
    )
    def test_forest_that_cannot_score_is_data_error(self, tmp_path, edit):
        path = tmp_path / "forest.json"
        _small_forest().save(path)
        assert forest.TrainedForest.load(path).cutoff is not None
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="not a forest file"):
            forest.TrainedForest.load(path)

    def test_uncalibrated_forest_loads(self, tmp_path):
        path = tmp_path / "forest.json"
        f = _small_forest()
        f.cutoff = None
        f.save(path)
        assert forest.TrainedForest.load(path).cutoff is None


def _small_forest():
    rows, labels = two_blob_data(n_per_class=20)
    return forest.calibrate_zero_fp(
        rows, labels, forest.ForestConfig(trees=3, seed=2)
    )


def _first_split(doc):
    return next(t for t in doc["trees"] if "dim" in t)


def _first_leaf(doc):
    node = doc["trees"][0]
    while "dim" in node:
        node = node["left"]
    return node


def _json_paths(node, prefix=()):
    """The path of every value in a JSON document, the root's included."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _json_paths(child, prefix + (key,))


# Dictionaries keyed by tree-node fields, so that some edits build new nodes.
_NODE_KEYS = st.sampled_from(["dim", "threshold", "left", "right", "malware_fraction", "count"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_NODE_KEYS, inner, max_size=4),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def saved_forest(tmp_path_factory):
    """A small calibrated forest as JSON, and a path to write edits to."""
    path = tmp_path_factory.mktemp("forest") / "forest.json"
    _small_forest().save(path)
    return json.loads(path.read_text()), path


class TestLoadFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_edited_forest_scores_or_is_data_error(self, saved_forest, data):
        doc, path = saved_forest
        doc = json.loads(json.dumps(doc))
        for _ in range(data.draw(st.integers(1, 3))):
            where = data.draw(st.sampled_from(list(_json_paths(doc))))
            value = data.draw(_JSON_VALUES)
            if not where:
                doc = value
                continue
            parent = doc
            for key in where[:-1]:
                parent = parent[key]
            parent[where[-1]] = value
        path.write_text(json.dumps(doc))
        try:
            loaded = forest.TrainedForest.load(path)
        except DataError:
            return
        assert loaded.cutoff is None or isinstance(loaded.cutoff, float)
        # classify scores the profile at feature_cols: one value per column.
        rng = np.random.default_rng(0)
        for _ in range(4):
            s = forest.score(loaded, rng.normal(0, 3, len(loaded.feature_cols)))
            assert 0.0 <= s <= 1.0


class TestRocPoints:
    def test_perfect_separation(self):
        scored = [(0.9, 1)] * 10 + [(0.1, 0)] * 10
        points = forest.roc_points(scored)
        assert points[0] == (0.0, 1.0)
        assert all(tp == 1.0 for _, tp in points)

    def test_budget_respected(self):
        rng = np.random.default_rng(8)
        scored = [(rng.uniform(0.3, 1.0), 1) for _ in range(300)]
        scored += [(rng.uniform(0.0, 0.7), 0) for _ in range(300)]
        points = forest.roc_points(scored)
        for budget, (fp, tp) in zip(forest.DEFAULT_FP_BUDGETS, points):
            assert fp <= budget + 1e-12
            assert 0.0 <= tp <= 1.0
        # higher budgets never lose detection
        tps = [tp for _, tp in points]
        assert all(b >= a for a, b in zip(tps, tps[1:]))

    def test_exhaustive_oracle(self):
        rng = np.random.default_rng(9)
        scored = [(float(rng.integers(0, 10)) / 10, int(rng.integers(0, 2)))
                  for _ in range(60)]
        labels = np.array([l for _, l in scored])
        scores = np.array([s for s, _ in scored])
        n_pos, n_neg = (labels == 1).sum(), (labels == 0).sum()
        if n_pos == 0 or n_neg == 0:
            pytest.skip("degenerate draw")
        points = forest.roc_points(scored, fp_budgets=(0.1,))
        # brute force over every threshold
        best_tp = 0.0
        for t in np.concatenate([np.unique(scores), [np.inf]]):
            fp = ((scores >= t) & (labels == 0)).sum() / n_neg
            tp = ((scores >= t) & (labels == 1)).sum() / n_pos
            if fp <= 0.1:
                best_tp = max(best_tp, tp)
        assert points[0][1] == pytest.approx(best_tp)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            forest.roc_points([(0.5, 1), (0.6, 1)])
