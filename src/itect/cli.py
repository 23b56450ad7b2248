"""Single entry point multiplexing the pipeline's subcommands.

Exit codes: 0 success, 1 usage error, 2 data error, including input
too large to hold in memory (``itect: out of memory: ...``).
Machine-readable outputs embed the tool version and the effective
configuration; CSV outputs get a ``<name>.meta.json`` sidecar instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, baselines, corpus, ents, forest as forest_mod, pipeline, slamm, synth
from .errors import DataError, ItectError
from .pool import SharedPool


def _count_or_auto(value: str) -> str:
    """Check a ``--threads``, ``ITECT_THREADS`` or ``--alpha`` value: a
    positive integer or 'auto'. The text is kept as given, so provenance
    records it as is."""
    try:
        valid = value == "auto" or int(value) > 0
    except ValueError:
        valid = False
    if not valid:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        )
    return value


def _alpha(value: str) -> str:
    """Check an ``--alpha`` value: 'auto' or an integer in [1, ``ents.MAX_ALPHA``]."""
    if _count_or_auto(value) != "auto":
        _at_least(int, 1, ents.MAX_ALPHA)(value)
    return value


def _at_least(kind: type, low: float, high: float = math.inf, strict: bool = False):
    """An argparse ``type``: text that parses as ``kind`` and is >= ``low``
    (and <= ``high``), or with ``strict`` lies strictly between them."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not (low < value < high if strict else low <= value <= high):
            if strict:
                bound = f"in ({low}, {high})"
            else:
                bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__} {bound}, got {text!r}"
            )
        return value

    return parse


def _model_paths(text: str) -> str:
    """Check a comma-separated list of model paths: no entry may be
    empty. The text is kept as given, so provenance records it as is."""
    if not all(path.strip() for path in text.split(",")):
        raise argparse.ArgumentTypeError(f"empty model path in {text!r}")
    return text


def _fractions(text: str) -> list[float]:
    try:
        return [float(f) for f in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _threads(value: str | int | None) -> int:
    if value in (None, "auto"):
        try:
            value = _count_or_auto(os.environ.get("ITECT_THREADS", "auto"))
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"ITECT_THREADS: {exc}") from None
    if value == "auto":
        return _usable_cores()
    return int(value)


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform has one (a cpuset or ``taskset`` narrows it), else the
    machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shared_pool(args) -> SharedPool:
    """A pool of ``--threads`` cores, the calling thread included, for the
    whole command."""
    return SharedPool(_threads(args.threads) - 1)


def _relative(value):
    """An absolute path relative to the working directory; any other
    value as it is. So artifacts do not depend on where a workspace sits."""
    if isinstance(value, str) and os.path.isabs(value):
        return os.path.relpath(value)
    return value


def _provenance(args: argparse.Namespace, inputs: list[str | Path]) -> dict:
    digests = {}
    for p in inputs:
        key = _relative(str(p))
        try:
            digests[key] = corpus.file_digest(p)
        except OSError:
            digests[key] = None
    config = {
        k: _relative(v)
        for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    return {"tool_version": __version__, "config": config, "input_digests": digests}


def _write_json(path: str | Path, payload: dict, args, inputs) -> None:
    payload = dict(payload)
    payload["_provenance"] = _provenance(args, inputs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_sidecar(path: str | Path, args, inputs) -> None:
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(_provenance(args, inputs), fh, sort_keys=True, indent=1)
        fh.write("\n")


# -- subcommand implementations ---------------------------------------


def _cmd_ingest(args) -> int:
    diags: list[str] = []
    manifest = corpus.scan_directory(args.root, args.label, args.category, diags)
    manifest.save(args.out)
    for d in diags:
        print(f"diagnostic: {d}", file=sys.stderr)
    print(f"wrote {len(manifest)} entries to {args.out}")
    return 0


def _cmd_split(args) -> int:
    manifest = corpus.CorpusManifest.load(args.manifest)
    out = corpus.split_manifest(manifest, args.train, args.seed)
    dest = args.out or args.manifest
    out.save(dest)
    counts = {s: len(out.by_split(s)) for s in corpus.SPLITS}
    print(f"wrote {dest}: {counts}")
    return 0


def _load_split_entries(manifest: corpus.CorpusManifest, split: str | None):
    if split:
        return [e for e in manifest if e.split == split]
    return list(manifest)


def _cmd_ents(args) -> int:
    manifest = corpus.CorpusManifest.load(args.manifest)
    entries = _load_split_entries(manifest, args.split)
    if not entries:
        raise DataError("no manifest entries selected")
    if args.alpha == "auto":
        mal = [e.size_bytes for e in entries if e.label == "malware"]
        ben = [e.size_bytes for e in entries if e.label == "benign"]
        for label, sizes in (("malware", mal), ("benign", ben)):
            if not sizes:
                raise DataError(f"--alpha auto needs {label} entries and none are "
                                "selected; --alpha N needs none")
        alpha = ents.compute_alpha(mal, ben, args.chunk)
    else:
        alpha = int(args.alpha)
    params = ents.EntsParams(chunk_size=args.chunk, alpha=alpha, tau=args.tau)

    def profile_of(entry):
        data = corpus.load_sample(entry.path)
        return ents.entropy_profile(data, params)

    with _shared_pool(args) as pool:
        rows = pool.map(profile_of, entries)
    matrix = ents.FeatureMatrix(
        rows=np.array(rows),
        col_index=list(range(params.n_points)),
        labels=[e.label for e in entries],
        digests=[e.digest for e in entries],
    )
    ents.write_feature_csv(matrix, args.out)
    _write_sidecar(args.out, args, [args.manifest])
    if args.params_out:
        _write_json(
            args.params_out,
            {"chunk_size": params.chunk_size, "alpha": params.alpha, "tau": params.tau},
            args,
            [args.manifest],
        )
    print(f"wrote {len(entries)} profiles (alpha={alpha}) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    matrix = ents.read_feature_csv(args.features)
    pruned = ents.prune_correlated(matrix, cutoff=args.prune_cutoff)
    labels = [1 if l == "malware" else 0 for l in pruned.labels]
    config = forest_mod.ForestConfig(
        trees=args.trees,
        class_weight_fp=args.fpweight,
        max_depth=args.max_depth,
        min_leaf=args.min_leaf,
        seed=args.seed,
    )
    trained = forest_mod.calibrate_zero_fp(
        pruned.rows, labels, config, feature_cols=pruned.col_index
    )
    trained.save(args.out)
    _write_sidecar(args.out, args, [args.features])
    calibration = trained.calibration
    print(
        f"trained {config.trees} trees on {pruned.rows.shape[0]} rows, "
        f"{len(pruned.col_index)} retained dims, cutoff={trained.cutoff:.4f}, "
        f"risk_bound={calibration['risk_bound']:.4f}, "
        f"min_oob_voters={calibration['min_oob_voters']}"
    )
    return 0


def _zoo_documents(manifest, category: str, split: str | None):
    if category == "benign":
        entries = [e for e in manifest if e.label == "benign"]
    else:
        entries = [
            e for e in manifest if e.label == "malware" and e.category == category
        ]
    if split:
        entries = [e for e in entries if e.split == split]
    return entries


def _cmd_slamm_train(args) -> int:
    manifest = corpus.CorpusManifest.load(args.manifest)
    entries = _zoo_documents(manifest, args.category, args.split)
    if not entries:
        raise DataError(f"no entries for category {args.category!r}")
    diags: list[str] = []
    model = slamm.NgramModel.train(
        (corpus.load_sample(e.path) for e in entries),
        n=args.n,
        zoo_id=args.category,
        diagnostics=diags,
    )
    model.save(args.out)
    for d in diags:
        print(f"diagnostic: {d}", file=sys.stderr)
    print(f"trained {args.n}-gram model over {len(entries)} files -> {args.out}")
    return 0


def _load_slamm_models(model_paths: str, benign_path: str):
    """The malware zoos and the benign zoo, checked as a set before any
    sample is read: every zoo has the benign zoo's order, and each
    malware zoo records its scores under its own diagnostics key, not
    "benign" (:func:`slamm.diagnostic_keys`)."""
    paths = [p.strip() for p in model_paths.split(",")]
    malware = [slamm.NgramModel.load(p) for p in paths]
    benign = slamm.NgramModel.load(benign_path)
    owners: dict[str, str] = {}
    for path, model, key in zip(paths, malware, slamm.diagnostic_keys(malware)):
        if model.n != benign.n:
            raise DataError(
                f"{path}: model order {model.n} does not match the order "
                f"{benign.n} of the benign model {benign_path}"
            )
        if key == "benign":
            raise DataError(
                f"{path}: a malware zoo may not have zoo id 'benign', the key "
                f"of the benign model's scores ({benign_path})"
            )
        if key in owners:
            raise DataError(
                f"{owners[key]} and {path} both have zoo id {key!r}, "
                "so one zoo's scores would replace the other's"
            )
        owners[key] = path
    return malware, benign


def _readable_samples(paths: list[str]):
    """(path, bytes) per sample; one that cannot be read or decoded gets a
    ``diagnostic:`` line and is skipped."""
    for path in paths:
        try:
            data = corpus.load_sample(path)
        except (OSError, DataError) as exc:
            print(f"diagnostic: {path}: {exc}", file=sys.stderr)
            continue
        yield path, data


def _cmd_slamm_classify(args) -> int:
    malware, benign = _load_slamm_models(args.models, args.benign)
    n = benign.n
    with _shared_pool(args) as pool:
        for path, data in _readable_samples(args.files):
            if len(data) < n:  # classify abstains on such a file
                print(
                    f"diagnostic: {path}: shorter than the model order ({len(data)} < {n}), skipped",
                    file=sys.stderr,
                )
                continue
            v = slamm.slamm_classify(data, malware, benign, pool.map)
            verdict = {"path": str(path), "cx": v.cx, "cd": v.cd, "cmse": v.cmse,
                       "overall": v.overall}
            print(json.dumps(verdict, sort_keys=True))
    return 0


def _cmd_baseline(args) -> int:
    spec = baselines.CompressorSpec(algorithm_id=args.compressor, level=args.level)
    manifest = corpus.CorpusManifest.load(args.manifest)
    entries = list(manifest)
    if args.metric == "cr":
        rows = [
            [baselines.compression_rate(corpus.load_sample(e.path), spec)]
            for e in entries
        ]
        matrix = ents.FeatureMatrix(
            rows=np.array(rows),
            col_index=[0],
            labels=[e.label for e in entries],
            digests=[e.digest for e in entries],
        )
    else:
        if not args.train:
            raise DataError("ncd baseline requires --train manifest")
        train_entries = list(corpus.CorpusManifest.load(args.train))
        with _shared_pool(args) as pool:
            matrix = baselines.similarity_rows(
                [corpus.load_sample(e.path) for e in entries],
                [corpus.load_sample(e.path) for e in train_entries],
                spec,
                test_digests=[e.digest for e in entries],
                test_labels=[e.label for e in entries],
                map=pool.map,
            )
    ents.write_feature_csv(matrix, args.out)
    _write_sidecar(args.out, args, [args.manifest])
    print(f"wrote {matrix.rows.shape} {args.metric} features to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    trained = forest_mod.TrainedForest.load(args.ents)
    params = ents.EntsParams.load(args.ents_params)
    last_col = max(trained.feature_cols, default=-1)
    if last_col >= params.n_points:
        raise DataError(
            f"{args.ents}: feature column {last_col} is outside "
            f"the {params.n_points}-point entropy profile"
        )
    malware, benign = _load_slamm_models(args.slamm, args.benign)
    t0 = time.perf_counter()
    lines = []
    with _shared_pool(args) as pool:
        for _, data in _readable_samples(args.files):
            digest = hashlib.sha256(data).hexdigest()
            v = pipeline.itect_classify(
                data, digest, trained, params, malware, benign, pool=pool
            )
            lines.append(v.to_json())
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    print(
        f"classified {len(lines)} files in {time.perf_counter() - t0:.2f}s -> {args.out}"
    )
    return 0


def _read_verdicts(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return [pipeline.Verdict.from_json(line) for line in fh if line.strip()]
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: verdicts are not UTF-8 text ({exc.reason})") from None


def _cmd_eval(args) -> int:
    verdicts = _read_verdicts(args.verdicts)
    manifest = corpus.CorpusManifest.load(args.manifest)
    labels = {e.digest: e.label for e in manifest}
    categories = {e.digest: e.category for e in manifest}
    report = pipeline.evaluate(verdicts, labels, categories)
    _write_json(args.out, report.to_dict(), args, [args.verdicts, args.manifest])
    print(
        f"accuracy={report.accuracy:.4f} precision={report.precision:.4f} "
        f"fp={report.fp} fn={report.fn}"
    )
    return 0


def _cmd_sweep(args) -> int:
    verdicts = _read_verdicts(args.verdicts)
    manifest = corpus.CorpusManifest.load(args.manifest)
    labels = {e.digest: e.label for e in manifest}
    pools = {label: [] for label in corpus.LABELS}
    for v in verdicts:
        if v.digest not in labels:
            raise DataError(f"no label for digest {v.digest}")
        pools[labels[v.digest]].append(v)
    reports = pipeline.prevalence_sweep(
        pools["benign"], pools["malware"], labels, args.fractions, seed=args.seed
    )
    payload = {
        "points": [
            {"malware_fraction": f, **r.to_dict()}
            for f, r in zip(args.fractions, reports)
        ]
    }
    _write_json(args.out, payload, args, [args.verdicts, args.manifest])
    print(f"wrote {len(reports)} prevalence points to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    manifest = synth.synth_corpus(
        args.profile,
        args.count,
        (args.size_min, args.size_max),
        args.seed,
        args.out,
    )
    if args.manifest_out:
        manifest.save(args.manifest_out)
    print(f"wrote {len(manifest)} {args.profile} files under {args.out}")
    return 0


# -- parser ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises :class:`_UsageError` instead of exiting, and records its
    subcommands and the flag of every option that takes a value."""

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, str] = {}
        self.commands: dict[str, _Parser] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.nargs != 0:
            self.flags[action.dest] = action.option_strings[-1]
        return action

    def add_subparsers(self, **kwargs):
        action = super().add_subparsers(**kwargs)
        self.commands = action.choices
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> _Parser:
    parser = _Parser(prog="itect", description=__doc__)
    parser.add_argument("--version", action="version", version=f"itect {__version__}")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument(
        "--threads", type=_count_or_auto, help="worker pool size or 'auto'"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="scan a directory into a manifest")
    p.add_argument("--root", required=True)
    p.add_argument("--label", required=True, choices=corpus.LABELS)
    p.add_argument("--category", required=True, choices=corpus.CATEGORIES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("split", help="assign stratified train/validation/test splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--train", type=_at_least(float, 0, 1, strict=True), default=2 / 3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("ents", help="compute entropy-profile features")
    p.add_argument("--manifest", required=True)
    p.add_argument("--alpha", type=_alpha, default="auto")
    p.add_argument("--chunk", type=_at_least(int, 1), default=256)
    p.add_argument("--tau", type=_at_least(float, 0), default=0.5)
    p.add_argument("--split", default=None, choices=corpus.SPLITS)
    p.add_argument("--out", required=True)
    p.add_argument("--params-out")
    p.set_defaults(func=_cmd_ents)

    p = sub.add_parser("train", help="train + calibrate the feature forest")
    p.add_argument("--features", required=True)
    p.add_argument("--trees", type=_at_least(int, 1), default=100)
    p.add_argument("--fpweight", type=_at_least(float, 1), default=5.0)
    p.add_argument("--max-depth", type=_at_least(int, 1), default=None)
    p.add_argument("--min-leaf", type=_at_least(int, 1), default=1)
    p.add_argument("--folds", type=int, help="ignored: the cutoff is set out of bag")
    p.add_argument("--prune-cutoff", type=_at_least(float, 0, 1), default=0.8)
    p.add_argument("--seed", type=_at_least(int, 0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("slamm-train", help="train an n-gram zoo model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--category", required=True, choices=corpus.CATEGORIES)
    p.add_argument("--n", type=int, default=3, choices=range(1, slamm.MAX_DENSE_ORDER + 1))
    p.add_argument("--split", default=None, choices=corpus.SPLITS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_slamm_train)

    p = sub.add_parser("slamm-classify", help="classify files with zoo models")
    p.add_argument("--models", required=True, type=_model_paths,
                   help="comma-separated malware models")
    p.add_argument("--benign", required=True)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_slamm_classify)

    p = sub.add_parser("baseline", help="compression-rate or NCD features")
    p.add_argument("metric", choices=("cr", "ncd"))
    p.add_argument("--manifest", required=True)
    p.add_argument("--train", help="train manifest for NCD columns")
    p.add_argument("--compressor", default="lzma2", choices=("lzma2", "zlib"))
    p.add_argument("--level", type=int, default=9, choices=range(10))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("classify", help="run both detectors, OR the verdicts")
    p.add_argument("--ents", required=True, help="trained forest file")
    p.add_argument("--ents-params", required=True)
    p.add_argument("--slamm", required=True, type=_model_paths,
                   help="comma-separated malware models")
    p.add_argument("--benign", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("eval", help="score verdicts against a labeled manifest")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="evaluate at varying malware prevalence")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--fractions", type=_fractions, default="0,0.1,0.2,0.3,0.4,0.5")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--profile", required=True, choices=synth.PROFILES)
    p.add_argument("--count", type=_at_least(int, 1), required=True)
    p.add_argument("--size-min", type=_at_least(int, 1), default=65536)
    p.add_argument("--size-max", type=_at_least(int, 1), default=131072)
    p.add_argument("--seed", type=_at_least(int, 0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest-out")
    p.set_defaults(func=_cmd_synth)

    return parser


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``, replaying ``--config`` values as flags.

    A first pass takes ``--config`` out. Each config key that names a
    flag of the top-level parser or of the chosen subcommand is then
    placed ahead of the user's own flags, so it goes through the flag's
    type and choices and an explicit flag still wins. A key no flag of
    this command takes gets a ``diagnostic:`` line and is ignored, so a
    config file can be shared between subcommands.
    """
    pre = _Parser(prog=parser.prog, add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    if known.config is None:
        return parser.parse_args(argv, known)
    with open(known.config, "r", encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError(f"{known.config}: config must be a JSON object")

    unused = dict(values)

    def as_flags(p: _Parser) -> list[str]:
        out = []
        for key, value in values.items():
            flag = p.flags.get(key.replace("-", "_"))
            if flag:
                text = value if isinstance(value, str) else json.dumps(value)
                out.append(f"{flag}={text}")
                unused.pop(key, None)
        return out

    commands = parser.commands
    i = next((i for i, a in enumerate(argv) if a in commands), len(argv))
    name = argv[i] if i < len(argv) else None
    command = as_flags(commands[name]) if name else []
    argv = as_flags(parser) + argv[: i + 1] + command + argv[i + 1 :]
    if name:
        for key in unused:
            print(
                f"diagnostic: config key {key!r} names no flag of itect {name}",
                file=sys.stderr,
            )
    return parser.parse_args(argv, known)


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        _threads(args.threads)  # a bad ITECT_THREADS fails here, before any work
    except _UsageError as exc:
        print(f"itect: usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --version / --help
        return 0 if exc.code in (0, None) else 1
    except (OSError, ValueError) as exc:  # unreadable or malformed --config file
        print(f"itect: config error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (DataError, ItectError) as exc:
        print(f"itect: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"itect: i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the input is too large to hold
        print(f"itect: out of memory: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
