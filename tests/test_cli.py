import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from itect import cli, ents, pipeline, slamm
from itect.corpus import CorpusManifest, ManifestEntry
from itect.errors import DataError


def run(*argv):
    return cli.run(list(argv))


def _out_of_memory(*args):
    raise MemoryError("Unable to allocate 64. GiB")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic corpus with one merged, split manifest."""
    root = tmp_path_factory.mktemp("ws")
    parts = []
    specs = [
        ("benign_like", 12),
        ("polymorphic_like", 8),
        ("metamorphic_like", 8),
        ("packed_like", 8),
    ]
    for profile, count in specs:
        part = root / f"{profile}.jsonl"
        rc = run(
            "synth", "--profile", profile, "--count", str(count),
            "--size-min", "4096", "--size-max", "8192", "--seed", "5",
            "--out", str(root / profile), "--manifest-out", str(part),
        )
        assert rc == 0
        parts.append(part)
    manifest = root / "corpus.jsonl"
    manifest.write_text("".join(p.read_text() for p in parts))
    assert run("split", "--manifest", str(manifest), "--seed", "3") == 0
    return {"root": root, "manifest": manifest}


class TestExitCodes:
    def test_version(self, capsys):
        assert run("--version") == 0

    def test_help(self):
        assert run("--help") == 0

    def test_unknown_flag(self, capsys):
        assert run("split", "--bogus") == 1
        assert "usage error" in capsys.readouterr().err

    def test_no_command(self):
        assert run() == 1

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        rc = run("split", "--manifest", str(tmp_path / "nope.jsonl"), "--seed", "1")
        assert rc == 2

    def test_manifest_that_is_not_json(self, tmp_path, capsys):
        bad = tmp_path / "m.jsonl"
        bad.write_text("not json\n")
        assert run("split", "--manifest", str(bad), "--seed", "1") == 2
        assert "itect: data error" in capsys.readouterr().err

    def test_verdicts_that_are_not_json(self, workspace, tmp_path, capsys):
        bad = tmp_path / "v.jsonl"
        bad.write_text('{"digest": \n')
        rc = run("eval", "--verdicts", str(bad), "--manifest",
                 str(workspace["manifest"]), "--out", str(tmp_path / "r.json"))
        assert rc == 2
        assert "itect: data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,bad",
        [
            ("split", "manifest"),
            ("ents", "manifest"),
            ("eval", "manifest"),
            ("eval", "verdicts"),
        ],
    )
    def test_input_that_is_not_utf8(self, workspace, tmp_path, capsys, command, bad):
        first = workspace["manifest"].read_bytes().splitlines(keepends=True)[0]
        manifest, verdicts = tmp_path / "m.jsonl", tmp_path / "v.jsonl"
        manifest.write_bytes(first)
        verdicts.write_bytes(b"")
        (manifest if bad == "manifest" else verdicts).write_bytes(first + b"\xff\xfe\n")
        argv = {
            "split": ["--manifest", str(manifest), "--seed", "1"],
            "ents": ["--manifest", str(manifest), "--out", str(tmp_path / "f.csv")],
            "eval": ["--verdicts", str(verdicts), "--manifest", str(manifest),
                     "--out", str(tmp_path / "r.json")],
        }[command]
        assert run(command, *argv) == 2
        err = capsys.readouterr().err
        assert "itect: data error" in err and "not UTF-8" in err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = run("--config", str(tmp_path / "absent.json"), "split",
                 "--manifest", "x", "--seed", "1")
        assert rc == 1

    def test_config_without_value(self, capsys):
        assert run("split", "--manifest", "x", "--seed", "1", "--config") == 1
        assert "itect: usage error" in capsys.readouterr().err

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        rc = run("--config", str(cfg), "split", "--manifest", "x", "--seed", "1")
        assert rc == 1
        assert "itect: config error" in capsys.readouterr().err


class TestConfigAndThreads:
    def test_config_supplies_defaults(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11, "train": 0.5}))
        out = tmp_path / "split.jsonl"
        rc = run(
            "--config", str(cfg), "split",
            "--manifest", str(workspace["manifest"]), "--out", str(out),
        )
        assert rc == 0
        # same defaults given explicitly produce the identical split
        out2 = tmp_path / "split2.jsonl"
        rc = run(
            "split", "--manifest", str(workspace["manifest"]),
            "--seed", "11", "--train", "0.5", "--out", str(out2),
        )
        assert rc == 0
        assert out.read_text() == out2.read_text()

    def test_explicit_flag_overrides_config(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11}))
        out = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        run("--config", str(cfg), "split", "--manifest",
            str(workspace["manifest"]), "--seed", "99", "--out", str(out))
        run("split", "--manifest", str(workspace["manifest"]),
            "--seed", "99", "--out", str(out2))
        assert out.read_text() == out2.read_text()

    def test_config_equals_form(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11, "train": 0.5}))
        out, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        rc = run(f"--config={cfg}", "split",
                 "--manifest", str(workspace["manifest"]), "--out", str(out))
        assert rc == 0
        run("split", "--manifest", str(workspace["manifest"]),
            "--seed", "11", "--train", "0.5", "--out", str(out2))
        assert out.read_text() == out2.read_text()

    def test_config_key_without_flag_is_reported(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sede": 5}))
        rc = run("--config", str(cfg), "split", "--manifest",
                 str(workspace["manifest"]), "--seed", "1",
                 "--out", str(tmp_path / "s.jsonl"))
        assert rc == 0
        err = capsys.readouterr().err
        assert "diagnostic: config key 'sede' names no flag of itect split" in err

    def test_config_value_checked_by_flag_type(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": [1]}))
        rc = run("--config", str(cfg), "split",
                 "--manifest", str(workspace["manifest"]),
                 "--out", str(tmp_path / "s.jsonl"))
        assert rc == 1
        assert "itect: usage error" in capsys.readouterr().err

    def test_config_value_checked_by_flag_choices(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"split": "holdout"}))
        rc = run("--config", str(cfg), "ents", "--manifest",
                 str(workspace["manifest"]), "--out", str(tmp_path / "f.csv"))
        assert rc == 1
        assert "itect: usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_threads_flag_must_be_a_count(self, workspace, tmp_path, capsys, value):
        rc = run(f"--threads={value}", "ents", "--manifest",
                 str(workspace["manifest"]), "--out", str(tmp_path / "f.csv"))
        assert rc == 1
        assert "itect: usage error" in capsys.readouterr().err

    def test_threads_env_must_be_a_count(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("ITECT_THREADS", "zz")
        rc = run("ents", "--manifest", str(workspace["manifest"]),
                 "--out", str(tmp_path / "f.csv"))
        assert rc == 1
        assert "itect: usage error: ITECT_THREADS" in capsys.readouterr().err

    def test_threads_env(self, monkeypatch):
        monkeypatch.setenv("ITECT_THREADS", "3")
        assert cli._threads(None) == 3
        monkeypatch.setenv("ITECT_THREADS", "auto")
        assert cli._threads(None) == len(os.sched_getaffinity(0))
        assert cli._threads("2") == 2

    def test_threads_auto_counts_usable_cores(self, monkeypatch):
        # A process pinned to two of 64 cores gets two threads.
        monkeypatch.setenv("ITECT_THREADS", "auto")
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
        assert cli._threads("auto") == cli._threads(None) == 2
        # Where the platform has no affinity call, the CPU count is used.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._threads("auto") == 64


@pytest.fixture(scope="module")
def trained(workspace):
    """Features, forest, and zoo models trained through the CLI."""
    root = workspace["root"]
    manifest = str(workspace["manifest"])
    features = root / "train.csv"
    params = root / "ents.json"
    rc = run(
        "ents", "--manifest", manifest, "--split", "train",
        "--alpha", "4", "--out", str(features), "--params-out", str(params),
    )
    assert rc == 0
    forest_path = root / "forest.json"
    rc = run(
        "train", "--features", str(features), "--trees", "10",
        "--folds", "3", "--seed", "0", "--out", str(forest_path),
    )
    assert rc == 0
    models = {}
    for category in ("polymorphic", "metamorphic", "packed", "benign"):
        path = root / f"{category}.slmm"
        rc = run(
            "slamm-train", "--manifest", manifest, "--category", category,
            "--split", "train", "--n", "2", "--out", str(path),
        )
        assert rc == 0
        models[category] = path
    return {
        "forest": forest_path,
        "params": params,
        "features": features,
        "models": models,
    }


class TestPipelineCommands:
    def test_ents_writes_sidecar(self, trained):
        meta = json.loads(
            (trained["features"].parent / "train.csv.meta.json").read_text()
        )
        assert "tool_version" in meta
        assert trained["features"].exists()

    def test_alpha_auto(self, workspace, tmp_path):
        out = tmp_path / "auto.csv"
        rc = run(
            "ents", "--manifest", str(workspace["manifest"]),
            "--split", "train", "--out", str(out),
        )
        assert rc == 0

    def test_chunk_longer_than_every_file(self, workspace, tmp_path):
        # Each file is one partial chunk, so its profile is flat.
        out = tmp_path / "f.csv"
        rc = run(
            "ents", "--manifest", str(workspace["manifest"]), "--split", "train",
            "--alpha", "3", "--chunk", str(10**20), "--out", str(out),
        )
        assert rc == 0
        rows = ents.read_feature_csv(out).rows
        np.testing.assert_allclose(rows, rows[:, :1].repeat(8, axis=1))

    def test_alpha_auto_names_the_missing_label(self, tmp_path, capsys):
        manifest = tmp_path / "benign.jsonl"
        rc = run(
            "synth", "--profile", "benign_like", "--count", "2", "--size-min", "4096",
            "--size-max", "4096", "--seed", "1", "--out", str(tmp_path / "b"),
            "--manifest-out", str(manifest),
        )
        assert rc == 0
        capsys.readouterr()
        assert run("ents", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")) == 2
        err = capsys.readouterr().err
        assert "itect: data error: --alpha auto needs malware entries" in err
        assert "--alpha N" in err

    def test_slamm_classify_prints_jsonl(self, workspace, trained, capsys):
        m = CorpusManifest.load(workspace["manifest"])
        test_files = [e.path for e in m.by_split("test")][:3]
        mal = ",".join(
            str(trained["models"][c])
            for c in ("polymorphic", "metamorphic", "packed")
        )
        rc = run(
            "slamm-classify", "--models", mal,
            "--benign", str(trained["models"]["benign"]), *test_files,
        )
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 3
        for line in lines:
            d = json.loads(line)
            assert d["overall"] == (d["cx"] and d["cd"] and d["cmse"])

    def test_classify_eval_sweep(self, workspace, trained, tmp_path):
        m = CorpusManifest.load(workspace["manifest"])
        test_files = [e.path for e in m.by_split("test")]
        mal = ",".join(
            str(trained["models"][c])
            for c in ("polymorphic", "metamorphic", "packed")
        )
        verdicts = tmp_path / "verdicts.jsonl"
        rc = run(
            "classify", "--ents", str(trained["forest"]),
            "--ents-params", str(trained["params"]),
            "--slamm", mal, "--benign", str(trained["models"]["benign"]),
            "--out", str(verdicts), *test_files,
        )
        assert rc == 0
        assert len(verdicts.read_text().splitlines()) == len(test_files)

        report = tmp_path / "report.json"
        rc = run(
            "eval", "--verdicts", str(verdicts),
            "--manifest", str(workspace["manifest"]), "--out", str(report),
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["tp"] + doc["fp"] + doc["tn"] + doc["fn"] == len(test_files)
        assert "_provenance" in doc
        assert doc["_provenance"]["tool_version"]

        sweep_out = tmp_path / "sweep.json"
        rc = run(
            "sweep", "--verdicts", str(verdicts),
            "--manifest", str(workspace["manifest"]),
            "--fractions", "0,0.5", "--seed", "1", "--out", str(sweep_out),
        )
        assert rc == 0
        points = json.loads(sweep_out.read_text())["points"]
        assert [p["malware_fraction"] for p in points] == [0, 0.5]

    def test_baseline_cr(self, workspace, tmp_path):
        out = tmp_path / "cr.csv"
        rc = run(
            "baseline", "cr", "--manifest", str(workspace["manifest"]),
            "--compressor", "zlib", "--level", "6", "--out", str(out),
        )
        assert rc == 0
        assert out.exists() and (tmp_path / "cr.csv.meta.json").exists()

    def test_baseline_ncd_does_not_depend_on_threads(self, workspace, tmp_path):
        manifest = str(workspace["manifest"])
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / f"ncd-{threads}.csv"
            rc = run(
                "--threads", threads, "baseline", "ncd", "--manifest", manifest,
                "--train", manifest, "--compressor", "zlib", "--level", "1",
                "--out", str(out),
            )
            assert rc == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]
        assert len(csvs[0].splitlines()) > 2

    def test_baseline_ncd_requires_train(self, workspace, tmp_path):
        rc = run(
            "baseline", "ncd", "--manifest", str(workspace["manifest"]),
            "--out", str(tmp_path / "ncd.csv"),
        )
        assert rc == 2

    def _classify(self, trained, out, *files, forest=None, params=None, benign=None,
                  threads=None):
        mal = ",".join(
            str(trained["models"][c])
            for c in ("polymorphic", "metamorphic", "packed")
        )
        return run(
            *(("--threads", threads) if threads else ()),
            "classify", "--ents", str(forest or trained["forest"]),
            "--ents-params", str(params or trained["params"]),
            "--slamm", mal, "--benign", str(benign or trained["models"]["benign"]),
            "--out", str(out), *files,
        )

    def test_classify_skips_non_utf8_hexdump(
        self, workspace, trained, tmp_path, capsys
    ):
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        bad = tmp_path / "bad.bytes"
        bad.write_bytes(b"00000000 4D 5A\n\xff\xfe 90\n")
        verdicts = tmp_path / "verdicts.jsonl"
        rc = self._classify(trained, verdicts, str(bad), good)
        assert rc == 0
        assert len(verdicts.read_text().splitlines()) == 1
        assert f"diagnostic: {bad}" in capsys.readouterr().err

    def test_classify_verdicts_do_not_depend_on_threads(
        self, workspace, trained, tmp_path, capsys
    ):
        # An unreadable file and a malformed hexdump sit between good files.
        entries = CorpusManifest.load(workspace["manifest"]).by_split("test")
        good = [e.path for e in entries]
        missing = tmp_path / "missing.bin"
        bad = tmp_path / "bad.bytes"
        bad.write_bytes(b"00000000 4D 5A\n\xff\xfe 90\n")
        files = good[:3] + [str(missing)] + good[3:6] + [str(bad)] + good[6:]
        # Every run writes the same paths, since the reports record them.
        names = ("verdicts.jsonl", "report.json", "sweep.json")
        verdicts, report, sweep = (tmp_path / name for name in names)
        manifest = str(workspace["manifest"])
        outputs = {}
        for threads in ("1", "2", "3"):
            assert self._classify(trained, verdicts, *files, threads=threads) == 0
            err = capsys.readouterr().err
            assert run("eval", "--verdicts", str(verdicts), "--manifest", manifest,
                       "--out", str(report)) == 0
            assert run("sweep", "--verdicts", str(verdicts), "--manifest", manifest,
                       "--fractions", "0,0.25,0.5", "--seed", "1",
                       "--out", str(sweep)) == 0
            outputs[threads] = [f.read_bytes() for f in (verdicts, report, sweep)] + [err]
        assert outputs["2"] == outputs["3"] == outputs["1"]
        raw_verdicts, _, _, err = outputs["1"]
        lines = [json.loads(line) for line in raw_verdicts.splitlines()]
        assert [v["digest"] for v in lines] == [e.digest for e in entries]
        diagnostics = [l for l in err.splitlines() if l.startswith("diagnostic:")]
        assert len(diagnostics) == 2
        assert diagnostics[0].startswith(f"diagnostic: {missing}: ")
        assert diagnostics[1].startswith(f"diagnostic: {bad}: ")

    def test_data_error_in_a_pooled_task_exits_2(self, workspace, trained, tmp_path):
        # EnTS runs on a helper thread, and an uncalibrated forest raises
        # there; a hang would fail the timeout instead of the assertions.
        doc = json.loads(trained["forest"].read_text())
        doc["cutoff"] = None
        forest = tmp_path / "uncalibrated.json"
        forest.write_text(json.dumps(doc))
        good = [e.path for e in CorpusManifest.load(workspace["manifest"]).by_split("test")]
        mal = ",".join(
            str(trained["models"][c]) for c in ("polymorphic", "metamorphic", "packed")
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "itect.cli", "--threads", "3", "classify",
             "--ents", str(forest), "--ents-params", str(trained["params"]),
             "--slamm", mal, "--benign", str(trained["models"]["benign"]),
             "--out", str(tmp_path / "v.jsonl"), *good],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert "itect: data error: forest is not calibrated" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_classify_out_of_memory_exits_2(
        self, workspace, trained, tmp_path, capsys, monkeypatch, threads
    ):
        monkeypatch.setattr(slamm.NgramHistogram, "from_data", _out_of_memory)
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        rc = self._classify(trained, tmp_path / "v.jsonl", good, threads=threads)
        assert rc == 2
        err = capsys.readouterr().err
        assert "itect: out of memory: Unable to allocate 64. GiB\n" in err
        assert "Traceback" not in err

    def test_slamm_train_out_of_memory_exits_2(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(slamm, "encode_ngrams", _out_of_memory)
        rc = run("slamm-train", "--manifest", str(workspace["manifest"]),
                 "--category", "benign", "--split", "train", "--n", "2",
                 "--out", str(tmp_path / "benign.slmm"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "itect: out of memory: Unable to allocate 64. GiB\n" in err
        assert "Traceback" not in err

    def test_slamm_classify_output_does_not_depend_on_threads(
        self, workspace, trained, capsys
    ):
        files = [e.path for e in CorpusManifest.load(workspace["manifest"]).by_split("test")]
        mal = ",".join(
            str(trained["models"][c]) for c in ("polymorphic", "metamorphic", "packed")
        )
        outputs = []
        for threads in ("1", "2"):
            rc = run("--threads", threads, "slamm-classify", "--models", mal,
                     "--benign", str(trained["models"]["benign"]), *files)
            assert rc == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert [json.loads(l)["path"] for l in outputs[0].out.splitlines()] == files

    def test_train_prints_risk_bound(self, trained, tmp_path, capsys):
        out = tmp_path / "forest.json"
        rc = run("train", "--features", str(trained["features"]), "--trees", "10",
                 "--seed", "0", "--out", str(out))
        assert rc == 0
        calibration = json.loads(out.read_text())["calibration"]
        assert calibration["risk_bound"] == 1 / (calibration["benign_rows"] + 1)
        assert (
            f"risk_bound={calibration['risk_bound']:.4f}, "
            f"min_oob_voters={calibration['min_oob_voters']}"
        ) in capsys.readouterr().out

    def test_slamm_classify_skips_bad_file(
        self, workspace, trained, tmp_path, capsys
    ):
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        bad = tmp_path / "bad.bytes"
        bad.write_bytes(b"00000000 4D 5A\n\xff\xfe 90\n")
        mal = ",".join(
            str(trained["models"][c])
            for c in ("polymorphic", "metamorphic", "packed")
        )
        rc = run("slamm-classify", "--models", mal,
                 "--benign", str(trained["models"]["benign"]), str(bad), good)
        assert rc == 0
        out, err = capsys.readouterr()
        assert [json.loads(l)["path"] for l in out.splitlines()] == [good]
        assert f"diagnostic: {bad}" in err

    def test_slamm_classify_skips_sample_shorter_than_order(
        self, workspace, tmp_path, capsys
    ):
        manifest = str(workspace["manifest"])
        models = {}
        for category in ("polymorphic", "benign"):
            models[category] = tmp_path / f"{category}.slmm"
            assert run("slamm-train", "--manifest", manifest, "--category", category,
                       "--split", "train", "--n", "3",
                       "--out", str(models[category])) == 0
        good = CorpusManifest.load(manifest).by_split("test")[0].path
        short = tmp_path / "short.bin"
        short.write_bytes(b"MZ")
        capsys.readouterr()
        rc = run("slamm-classify", "--models", str(models["polymorphic"]),
                 "--benign", str(models["benign"]), str(short), good)
        assert rc == 0
        out, err = capsys.readouterr()
        assert [json.loads(l)["path"] for l in out.splitlines()] == [good]
        assert f"diagnostic: {short}: shorter than the model order (2 < 3)" in err

    def test_classify_truncated_model_is_data_error(
        self, workspace, trained, tmp_path, capsys
    ):
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        cut = tmp_path / "cut.slmm"
        cut.write_bytes(trained["models"]["benign"].read_bytes()[:-5])
        rc = self._classify(trained, tmp_path / "v.jsonl", good, benign=cut)
        assert rc == 2
        assert "itect: data error: truncated model file" in capsys.readouterr().err

    def test_classify_zoo_order_mismatch_is_data_error(
        self, workspace, trained, tmp_path, capsys
    ):
        # Bigram malware zoos against a trigram benign zoo.
        benign = tmp_path / "benign3.slmm"
        assert run("slamm-train", "--manifest", str(workspace["manifest"]),
                   "--category", "benign", "--split", "train", "--n", "3",
                   "--out", str(benign)) == 0
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        rc = self._classify(trained, tmp_path / "v.jsonl", good, benign=benign)
        assert rc == 2
        err = capsys.readouterr().err
        poly = trained["models"]["polymorphic"]
        assert (
            f"itect: data error: {poly}: model order 2 does not match the order 3 "
            f"of the benign model {benign}"
        ) in err

    def _zoo_set(self, workspace, trained, tmp_path, command, malware, benign):
        """Run ``command`` on one held-out file with the malware zoos
        ``malware``, a list of paths, and the benign zoo ``benign``."""
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        mal = ",".join(str(p) for p in malware)
        if command == "slamm-classify":
            return run("slamm-classify", "--models", mal, "--benign", str(benign), good)
        return run(
            "classify", "--ents", str(trained["forest"]),
            "--ents-params", str(trained["params"]), "--slamm", mal,
            "--benign", str(benign), "--out", str(tmp_path / "v.jsonl"), good,
        )

    def test_slamm_classify_zoo_order_mismatch_is_data_error(
        self, workspace, trained, tmp_path, capsys
    ):
        # Checked when the zoos load, not at the first file that reaches them.
        benign = tmp_path / "benign3.slmm"
        assert run("slamm-train", "--manifest", str(workspace["manifest"]),
                   "--category", "benign", "--split", "train", "--n", "3",
                   "--out", str(benign)) == 0
        capsys.readouterr()
        packed = trained["models"]["packed"]
        rc = self._zoo_set(workspace, trained, tmp_path, "slamm-classify", [packed], benign)
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"itect: data error: {packed}: model order 2 does not match" in err

    @pytest.mark.parametrize("command", ["classify", "slamm-classify"])
    def test_zoos_sharing_an_id_are_data_error(
        self, workspace, trained, tmp_path, capsys, command
    ):
        # Both zoos would record their scores under "polymorphic", one
        # replacing the other's.
        poly = trained["models"]["polymorphic"]
        rc = self._zoo_set(
            workspace, trained, tmp_path, command, [poly, poly], trained["models"]["benign"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"itect: data error: {poly} and {poly} both have zoo id 'polymorphic'" in err

    @pytest.mark.parametrize("command", ["classify", "slamm-classify"])
    def test_malware_zoo_with_id_benign_is_data_error(
        self, workspace, trained, tmp_path, capsys, command
    ):
        # Its scores would replace the reference's under "benign".
        models = trained["models"]
        rc = self._zoo_set(
            workspace, trained, tmp_path, command,
            [models["benign"], models["packed"]], models["polymorphic"],
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert (
            f"itect: data error: {models['benign']}: a malware zoo may not have "
            f"zoo id 'benign', the key of the benign model's scores ({models['polymorphic']})"
        ) in err

    @pytest.mark.parametrize("command, flag", [("classify", "--slamm"),
                                               ("slamm-classify", "--models")])
    def test_empty_model_path_is_usage_error(
        self, workspace, trained, tmp_path, capsys, command, flag
    ):
        packed = trained["models"]["packed"]
        rc = self._zoo_set(
            workspace, trained, tmp_path, command, [packed, ""], trained["models"]["benign"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"itect: usage error: argument {flag}: empty model path in '{packed},'" in err

    def test_classify_version_1_model_is_data_error(self, workspace, trained, tmp_path):
        # A zoo file of format version 1 is refused, with a message to
        # retrain it, by a fresh process and without a traceback.
        raw = trained["models"]["benign"].read_bytes()
        old = tmp_path / "benign-v1.slmm"
        old.write_bytes(raw[:4] + (1).to_bytes(2, "little") + raw[6:])
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        mal = ",".join(
            str(trained["models"][c]) for c in ("polymorphic", "metamorphic", "packed")
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "itect.cli", "classify",
             "--ents", str(trained["forest"]), "--ents-params", str(trained["params"]),
             "--slamm", mal, "--benign", str(old), "--out", str(tmp_path / "v.jsonl"), good],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "itect: data error: unsupported model version 1;" in proc.stderr
        assert "retrain the zoo with slamm-train" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("n", ["0", "4"])
    def test_slamm_train_order_out_of_range_is_usage_error(
        self, workspace, tmp_path, capsys, n
    ):
        rc = run("slamm-train", "--manifest", str(workspace["manifest"]),
                 "--category", "benign", "--n", n, "--out", str(tmp_path / "z.slmm"))
        assert rc == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_forest_that_is_json_but_not_a_forest(
        self, workspace, trained, tmp_path, capsys
    ):
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        bad = tmp_path / "forest.json"
        bad.write_text(json.dumps({"cutoff": 0.5}))
        assert self._classify(trained, tmp_path / "v.jsonl", good, forest=bad) == 2
        assert "itect: data error" in capsys.readouterr().err

    def test_truncated_forest(self, workspace, trained, tmp_path, capsys):
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        bad = tmp_path / "forest.json"
        text = trained["forest"].read_text()
        bad.write_text(text[: len(text) // 2])
        assert self._classify(trained, tmp_path / "v.jsonl", good, forest=bad) == 2
        assert "itect: data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda doc: doc.update(trees=[]), id="no-trees"),
            pytest.param(
                lambda doc: doc["feature_cols"].__setitem__(0, 1000000),
                id="feature-col-past-profile",
            ),
            pytest.param(lambda doc: doc.update(cutoff="0.5"), id="cutoff-string"),
        ],
    )
    def test_forest_that_cannot_score(self, workspace, trained, tmp_path, capsys, edit):
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        doc = json.loads(trained["forest"].read_text())
        edit(doc)
        bad = tmp_path / "forest.json"
        bad.write_text(json.dumps(doc))
        assert self._classify(trained, tmp_path / "v.jsonl", good, forest=bad) == 2
        assert "itect: data error" in capsys.readouterr().err

    def test_params_without_alpha(self, workspace, trained, tmp_path, capsys):
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        doc = json.loads(trained["params"].read_text())
        del doc["alpha"]
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps(doc))
        assert self._classify(trained, tmp_path / "v.jsonl", good, params=bad) == 2
        assert "itect: data error" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("alpha", 3.5), ("alpha", True),
                                             ("chunk_size", 256.0)])
    def test_params_with_non_integer_field(
        self, workspace, trained, tmp_path, capsys, field, value
    ):
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        doc = json.loads(trained["params"].read_text())
        doc[field] = value
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps(doc))
        assert self._classify(trained, tmp_path / "v.jsonl", good, params=bad) == 2
        assert "itect: data error" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("alpha", 64), ("tau", float("nan"))])
    def test_params_out_of_range(self, workspace, trained, tmp_path, capsys, field, value):
        good = CorpusManifest.load(workspace["manifest"]).by_split("test")[0].path
        doc = json.loads(trained["params"].read_text())
        doc[field] = value
        bad = tmp_path / "params.json"
        bad.write_text(json.dumps(doc))
        assert self._classify(trained, tmp_path / "v.jsonl", good, params=bad) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("itect: data error")

    def test_folds_flag_changes_nothing(self, trained, tmp_path):
        # The fixture's forest was trained the same way with --folds 3.
        out = tmp_path / "forest.json"
        rc = run("train", "--features", str(trained["features"]), "--trees", "10",
                 "--seed", "0", "--out", str(out))
        assert rc == 0
        assert out.read_bytes() == trained["forest"].read_bytes()

    def test_feature_cell_that_is_not_a_number(self, trained, tmp_path, capsys):
        header, first, *rest = trained["features"].read_text().splitlines()
        cells = first.split(",")
        cells[2] = "abc"
        bad = tmp_path / "f.csv"
        bad.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        rc = run("train", "--features", str(bad), "--trees", "2", "--folds", "2",
                 "--seed", "0", "--out", str(tmp_path / "forest.json"))
        assert rc == 2
        assert "itect: data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["ents", "--manifest", "{manifest}", "--out", "{tmp}/f.csv", "--alpha", "abc"],
        ["ents", "--manifest", "{manifest}", "--out", "{tmp}/f.csv", "--alpha", "0"],
        ["ents", "--manifest", "{manifest}", "--out", "{tmp}/f.csv", "--alpha", "64"],
        ["ents", "--manifest", "{manifest}", "--out", "{tmp}/f.csv", "--chunk", "0"],
        ["ents", "--manifest", "{manifest}", "--out", "{tmp}/f.csv", "--tau", "-1"],
        ["train", "--features", "{features}", "--seed", "0", "--out", "{tmp}/t",
         "--trees", "0"],
        ["train", "--features", "{features}", "--seed", "0", "--out", "{tmp}/t",
         "--fpweight", "0.5"],
        ["train", "--features", "{features}", "--seed", "0", "--out", "{tmp}/t",
         "--min-leaf", "0"],
        ["train", "--features", "{features}", "--seed", "0", "--out", "{tmp}/t",
         "--max-depth", "-3"],
        ["train", "--features", "{features}", "--seed", "0", "--out", "{tmp}/t",
         "--max-depth", "0"],
        ["train", "--features", "{features}", "--seed", "0", "--out", "{tmp}/t",
         "--prune-cutoff", "-1"],
        ["train", "--features", "{features}", "--seed", "0", "--out", "{tmp}/t",
         "--prune-cutoff", "nan"],
        ["train", "--features", "{features}", "--seed", "0", "--out", "{tmp}/t",
         "--prune-cutoff", "1.5"],
        ["train", "--features", "{features}", "--out", "{tmp}/t", "--seed", "-1"],
        ["baseline", "cr", "--manifest", "{manifest}", "--out", "{tmp}/c.csv",
         "--level", "-1"],
        ["baseline", "cr", "--manifest", "{manifest}", "--out", "{tmp}/c.csv",
         "--level", "20"],
        ["baseline", "cr", "--manifest", "{manifest}", "--out", "{tmp}/c.csv",
         "--compressor", "zlib", "--level", "-5"],
        ["sweep", "--verdicts", "{tmp}/empty.jsonl", "--manifest", "{manifest}",
         "--seed", "1", "--out", "{tmp}/s.json", "--fractions", "a"],
        ["synth", "--profile", "benign_like", "--seed", "1", "--out", "{tmp}/s",
         "--count", "-1"],
        ["synth", "--profile", "benign_like", "--count", "1", "--out", "{tmp}/s",
         "--seed", "-1"],
        ["synth", "--profile", "benign_like", "--count", "1", "--seed", "1",
         "--out", "{tmp}/s", "--size-min", "0"],
        ["synth", "--profile", "benign_like", "--count", "1", "--seed", "1",
         "--out", "{tmp}/s", "--size-max", "0"],
        ["split", "--manifest", "{manifest}", "--seed", "1", "--train", "1.5"],
        ["split", "--manifest", "{manifest}", "--seed", "1", "--train", "0"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_flag_value_the_library_rejects_is_usage_error(
    workspace, trained, tmp_path, capsys, argv
):
    (tmp_path / "empty.jsonl").write_text("")
    paths = {"manifest": workspace["manifest"], "features": trained["features"],
             "tmp": tmp_path}
    assert run(*[a.format(**paths) for a in argv]) == 1
    assert "itect: usage error" in capsys.readouterr().err


class TestProvenance:
    def test_artifacts_do_not_depend_on_the_workspace_directory(
        self, tmp_path, monkeypatch
    ):
        # One workspace copied to a second directory; each copy is run
        # from its own root with absolute paths, and the artifacts match.
        first = tmp_path / "a" / "ws"
        first.mkdir(parents=True)
        monkeypatch.chdir(first)
        parts = []
        for profile in ("benign_like", "packed_like"):
            assert run("synth", "--profile", profile, "--count", "8",
                       "--size-min", "4096", "--size-max", "4096", "--seed", "2",
                       "--out", profile, "--manifest-out", f"{profile}.jsonl") == 0
            parts.append((first / f"{profile}.jsonl").read_text())
        (first / "corpus.jsonl").write_text("".join(parts))
        second = tmp_path / "elsewhere" / "copy" / "ws"
        shutil.copytree(first, second)
        names = ("ents.json", "train.csv.meta.json", "forest.json.meta.json")
        artifacts = []
        for ws in (first, second):
            monkeypatch.chdir(ws)
            assert run("ents", "--manifest", str(ws / "corpus.jsonl"), "--alpha", "4",
                       "--out", str(ws / "train.csv"),
                       "--params-out", str(ws / "ents.json")) == 0
            assert run("train", "--features", str(ws / "train.csv"), "--trees", "10",
                       "--seed", "0", "--out", str(ws / "forest.json")) == 0
            artifacts.append([(ws / name).read_bytes() for name in names])
        assert artifacts[0] == artifacts[1]
        params = json.loads(artifacts[0][0])["_provenance"]
        assert params["config"]["params_out"] == "ents.json"
        assert list(params["input_digests"]) == ["corpus.jsonl"]
        for raw in artifacts[0]:
            assert str(tmp_path).encode() not in raw


class TestIngest:
    def test_ingest_roundtrip(self, tmp_path):
        src = tmp_path / "files"
        src.mkdir()
        for i in range(3):
            (src / f"f{i}.bin").write_bytes(bytes([i]) * 100)
        out = tmp_path / "m.jsonl"
        rc = run("ingest", "--root", str(src), "--label", "benign",
                 "--category", "benign", "--out", str(out))
        assert rc == 0
        m = CorpusManifest.load(out)
        assert len(m) == 3
        assert all(e.size_bytes == 100 for e in m)


_ENTRY = ManifestEntry(path="a.bin", label="benign", category="benign",
                       split="train", size_bytes=1, digest="0" * 64)
_VERDICT = pipeline.Verdict(
    digest="0" * 64, ents_verdict=True, ents_score=0.5,
    slamm_verdict=slamm.SlammVerdict(True, False, True, False, {"z": {"cx": 1.0}}),
    itect_verdict=True,
)
# _VERDICT as older builds wrote it, with per-detector wall times.
_OLD_VERDICT_LINE = (
    b'{"digest": "' + b"0" * 64 + b'", "ents_abstained": false, "ents_score": 0.5, '
    b'"ents_verdict": true, "itect_verdict": true, "slamm": {"cd": false, '
    b'"cmse": true, "cx": true, "diagnostics": {"z": {"cx": 1.0}}, "overall": false}, '
    b'"slamm_abstained": false, "timings": {"ents": 0.01, "slamm": 0.02}}\n'
)
# One well-formed file per loader.
_VALID = {
    "manifest": (_ENTRY.to_json() + "\n").encode(),
    "verdicts": _OLD_VERDICT_LINE,
    "features": b"digest,label,x0,x3\nd0,benign,0.5,1.0\nd1,malware,2.0,0.25\n",
    "ents-params": b'{"alpha": 3, "chunk_size": 256, "tau": 0.5}',
}
_LOADERS = {
    "manifest": CorpusManifest.load,
    "verdicts": cli._read_verdicts,
    "features": ents.read_feature_csv,
    "ents-params": ents.EntsParams.load,
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _edited(draw, valid: bytes):
    """``valid`` with a JSON field replaced, or bytes overwritten and cut."""
    try:
        doc = json.loads(valid)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JSON_VALUES)
        return json.dumps(doc).encode()
    raw = bytearray(valid)
    edits = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
    for offset, value in draw(st.lists(edits, max_size=4)):
        raw[offset] = value
    return bytes(raw[: draw(st.integers(0, len(raw)))])


class TestLoaderFuzz:
    @pytest.mark.parametrize("kind", sorted(_LOADERS))
    def test_valid_file_loads(self, tmp_path, kind):
        path = tmp_path / kind
        path.write_bytes(_VALID[kind])
        _LOADERS[kind](path)

    def test_verdict_line_with_timings_loads(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_bytes(_OLD_VERDICT_LINE)
        [loaded] = cli._read_verdicts(path)
        assert loaded == _VERDICT
        assert "timings" not in json.loads(loaded.to_json())

    @pytest.mark.parametrize("kind", sorted(_LOADERS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_bytes_load_or_are_data_error(self, tmp_path_factory, kind, data):
        content = data.draw(
            st.binary(max_size=300) | st.text(max_size=200).map(str.encode)
            | _edited(_VALID[kind])
        )
        path = tmp_path_factory.getbasetemp() / f"fuzz-{kind}"
        path.write_bytes(content)
        try:
            _LOADERS[kind](path)
        except DataError:
            pass

    @pytest.mark.parametrize("kind", ["manifest", "verdicts", "ents-params"])
    def test_json_nested_past_recursion_limit_is_data_error(self, tmp_path, kind):
        path = tmp_path / kind
        path.write_bytes(b"[" * 100_000)
        with pytest.raises(DataError):
            _LOADERS[kind](path)


class TestVerdictChecks:
    """Verdicts that ``eval`` or ``sweep`` cannot use end in one data error."""

    @staticmethod
    def _docs(workspace, *labels):
        m = CorpusManifest.load(workspace["manifest"])
        base = json.loads(_VERDICT.to_json())
        return [dict(base, digest=m.by_label(label)[0].digest) for label in labels]

    @staticmethod
    def _run(workspace, tmp_path, command, docs, *argv):
        verdicts, out = tmp_path / "v.jsonl", tmp_path / "out.json"
        verdicts.write_text("".join(json.dumps(d) + "\n" for d in docs))
        return run(command, "--verdicts", str(verdicts), "--manifest",
                   str(workspace["manifest"]), *argv, "--out", str(out)), out

    @staticmethod
    def _assert_data_error(capsys, rc, out):
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len([line for line in err if line.startswith("itect: data error")]) == 1
        assert not out.exists()

    def test_well_formed_verdicts_evaluate(self, workspace, tmp_path):
        docs = self._docs(workspace, "benign", "malware")
        rc, out = self._run(workspace, tmp_path, "eval", docs)
        assert rc == 0 and json.loads(out.read_text())["tp"] == 1

    @pytest.mark.parametrize(
        "key,value",
        [
            ("itect_verdict", "false"), ("ents_verdict", 0), ("ents_abstained", None),
            ("slamm_abstained", "true"), ("digest", 7), ("ents_score", True),
            ("ents_score", "0.5"), ("slamm.cx", "true"), ("slamm.cd", 0),
            ("slamm.cmse", 1), ("slamm.overall", None),
        ],
    )
    def test_mistyped_field_is_data_error(self, workspace, tmp_path, capsys, key, value):
        [doc] = self._docs(workspace, "benign")
        *block, name = key.split(".")
        (doc[block[0]] if block else doc)[name] = value
        self._assert_data_error(capsys, *self._run(workspace, tmp_path, "eval", [doc]))

    def test_sweep_of_unlabeled_verdict_is_data_error(self, workspace, tmp_path, capsys):
        docs = self._docs(workspace, "benign", "malware")
        docs.append(dict(docs[0], digest="f" * 64))
        rc, out = self._run(workspace, tmp_path, "sweep", docs, "--fractions", "0,0.5",
                            "--seed", "1")
        self._assert_data_error(capsys, rc, out)

    def test_sweep_without_benign_verdict_is_data_error(self, workspace, tmp_path, capsys):
        docs = self._docs(workspace, "malware")
        rc, out = self._run(workspace, tmp_path, "sweep", docs, "--fractions", "0",
                            "--seed", "1")
        self._assert_data_error(capsys, rc, out)
