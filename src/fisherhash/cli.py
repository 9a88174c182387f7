"""Command-line front end: train, encode, index, query, eval, ablate, curves.

Every run resolves a configuration (JSON file plus flag overrides),
hashes it, and stamps the hash into all JSON artifacts so outputs can
be traced back to their exact settings.  Exit codes: 0 ok, 2 config
error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .binary_codes import BinaryCodeMatrix
from .datasets import (
    Dataset,
    check_number,
    load_dataset,
    load_labels,
    load_manifest,
    make_synthetic,
    read_json,
    write_json,
    write_labels,
)
from .encoder import EncoderSpec, forward, load_checkpoint
from .evaluation import (_CHUNK_ROWS, format_rows, metrics_report, search,
                         write_metrics_csv, write_metrics_json)
from .exceptions import ConfigError, DataError, NumericalError
from .training import ABLATIONS, HyperParams, train, write_loss_curves

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# The keys each config section may hold; any other key is a ConfigError.
_CONFIG_KEYS = {
    "": {"dataset", "hyper", "encoder", "ablate"},
    "dataset": {"manifest", "synthetic"},
    # make_synthetic's arguments and their kinds (see check_number)
    "synthetic": {"classes": "int", "per_class": "int", "dim": "int", "separation": "float",
                  "seed": "int", "query_fraction": "float"},
    "hyper": {f.name for f in fields(HyperParams)},
    "encoder": {"hidden_layers", "seed"},
    "ablate": {"seeds", "variants"},
}


def config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _load_config_file(path) -> tuple[dict, Path]:
    """The --config file's object, checked for unknown top-level keys, and its directory."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        payload = read_json(p, "top-level config")
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    _check_keys(payload, "")
    return payload, p.parent


def _check_keys(section: dict, name: str) -> None:
    unknown = sorted(set(section).difference(_CONFIG_KEYS[name]))
    if unknown:
        raise ConfigError(f"unknown key(s) in {name or 'top-level'} config: {', '.join(unknown)}")


def _section(cfg: dict, name: str) -> dict:
    """cfg[name] (empty if absent), checked to be an object with known keys."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    _check_keys(section, name)
    return section


@contextmanager
def _output(args, payload: dict):
    """Stage a command's output beside --out; yield (stage dir, config hash).

    The stage is a hidden `.NAME.partial` sibling of --out.  On clean
    exit meta.json is written into it and it takes the place of --out
    (the old directory waits in `.NAME.old` until the swap is done); on
    any error the stage is removed and --out is left as it was.  A
    ValueError raised inside the block is a config error.
    """
    if args.out is None:
        raise ConfigError("an output directory is required (--out DIR)")
    out = Path(os.path.abspath(args.out))
    stage, old = (out.with_name(f".{out.name}.{tag}") for tag in ("partial", "old"))
    try:
        if old.is_dir() and not out.exists():  # killed mid-swap: put the last result back
            old.rename(out)
        if out.exists() and any(out.iterdir()) and not args.force:
            raise ConfigError(
                f"output directory {args.out} is not empty (pass --force to replace)"
            )
        for stale in (stage, old):
            shutil.rmtree(stale, ignore_errors=True)
        stage.mkdir(parents=True)
    except (NotADirectoryError, FileExistsError) as exc:
        raise ConfigError(f"--out {args.out} is not a directory path: {exc}") from exc
    chash = config_hash(payload)
    try:
        try:
            yield stage, chash
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        write_json(stage / "meta.json", {"config_hash": chash, "resolved": payload})
        replaced = out.exists()
        if replaced:
            out.rename(old)
        try:
            stage.rename(out)
        except OSError:
            if replaced:
                old.rename(out)
            raise
        if replaced:
            shutil.rmtree(old)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _build_dataset(cfg: dict, base_dir: Path, seed_offset: int | None = None) -> Dataset:
    """The config's dataset.  A seed_offset is added to the synthetic seed
    (0 if absent), so each ablation run draws its own blobs."""
    spec = _section(cfg, "dataset")
    if not spec:
        raise ConfigError("config needs a 'dataset' section")
    if "manifest" in spec:
        manifest_path = base_dir / spec["manifest"]
        try:
            manifest = load_manifest(manifest_path)
        except FileNotFoundError as exc:
            raise DataError(f"dataset manifest not found: {manifest_path}") from exc
        return load_dataset(manifest, base_dir=manifest_path.parent)
    if "synthetic" in spec:
        defaults = {"query_fraction": 0.1, **({} if seed_offset is None else {"seed": 0})}
        syn = {**defaults, **_section(spec, "synthetic")}
        try:
            args = {key: check_number(key, syn[key], kind)
                    for key, kind in _CONFIG_KEYS["synthetic"].items()}
            return make_synthetic(**{**args, "seed": args["seed"] + (seed_offset or 0)})
        except KeyError as exc:
            raise ConfigError(f"synthetic dataset spec missing key {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad synthetic dataset spec: {exc}") from exc
    raise ConfigError("dataset section needs either 'manifest' or 'synthetic'")


def _build_hyper(cfg: dict, seed: int | None) -> HyperParams:
    hyper = dict(_section(cfg, "hyper"))
    if seed is not None:
        hyper["seed"] = seed
    try:
        return HyperParams(**hyper)
    except TypeError as exc:
        raise ConfigError(f"bad hyper section: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_encoder_spec(cfg: dict, dataset: Dataset, hp: HyperParams) -> EncoderSpec:
    enc = _section(cfg, "encoder")
    try:
        return EncoderSpec(
            input_dim=dataset.input_dim,
            output_dim=hp.bits,
            hidden_layers=tuple((check_number("hidden layer width", w, "int"), str(a))
                                for w, a in enc.get("hidden_layers", [])),
            seed=check_number("encoder seed", enc.get("seed", hp.seed), "int"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad encoder section: {exc}") from exc


def _encode_features(state, features: np.ndarray) -> BinaryCodeMatrix:
    with np.errstate(over="ignore", invalid="ignore"):
        u, _ = forward(state, features)
    if not np.isfinite(u).all():
        raise NumericalError("encoder output is not finite: the forward pass overflowed")
    return BinaryCodeMatrix.from_values(u)


# ----------------------------------------------------------------- train


def cmd_train(args) -> int:
    cfg, base_dir = _load_config_file(args.config)
    dataset = _build_dataset(cfg, base_dir)
    hp = _build_hyper(cfg, args.seed)
    spec = _build_encoder_spec(cfg, dataset, hp)
    payload = {"command": "train", "config": cfg}
    if args.seed is not None:
        payload["seed_override"] = args.seed
    with _output(args, payload) as (stage, chash):
        report = train(dataset, hp, spec, out_dir=stage, config_hash=chash)
    print(f"trained {hp.epochs} epochs; training MAP {report.train_map:.4f}; "
          f"artifacts in {args.out} (config {chash})")
    return EXIT_OK


# ---------------------------------------------------------------- encode


def cmd_encode(args) -> int:
    from .datasets import load_features

    state = load_checkpoint(args.checkpoint)
    features = load_features(args.features)
    if features.shape[0] != state.input_dim:
        raise DataError(f"{args.features}: feature dim {features.shape[0]} != checkpoint "
                        f"input dim {state.input_dim}")
    codes = _encode_features(state, features)
    payload = {
        "command": "encode",
        "checkpoint": str(args.checkpoint),
        "features": str(args.features),
    }
    with _output(args, payload) as (stage, _):
        codes.save(stage / "codes.fhsh")
    print(f"encoded {codes.n} items at {codes.K} bits -> {Path(args.out) / 'codes.fhsh'}")
    return EXIT_OK


# ----------------------------------------------------------------- index


def cmd_index(args) -> int:
    codes = BinaryCodeMatrix.load(args.codes)
    label_sets = load_labels(args.labels, num_classes=args.classes, n_items=codes.n)
    index = {"name": args.name, "bits": codes.K, "items": codes.n, "classes": args.classes}
    with _output(args, {"command": "index", **index}) as (stage, chash):
        codes.save(stage / "codes.fhsh")
        write_labels(stage / "labels.txt", label_sets)
        write_json(stage / "index.json", {**index, "config_hash": chash})
    print(f"indexed {codes.n} items ({codes.K} bits) as {args.name!r} in {args.out}")
    return EXIT_OK


def _load_index(path) -> BinaryCodeMatrix:
    """The index's codes, once its index.json and labels.txt check out."""
    idx_dir = Path(path)
    meta_path = idx_dir / "index.json"
    if not meta_path.exists():
        raise DataError(f"not an index directory (missing index.json): {idx_dir}")
    classes = read_json(meta_path, "index metadata").get("classes")
    if type(classes) is not int:
        raise DataError(f"{meta_path}: needs an integer 'classes' field")
    codes = BinaryCodeMatrix.load(idx_dir / "codes.fhsh")
    load_labels(idx_dir / "labels.txt", num_classes=classes, n_items=codes.n)
    return codes


# ----------------------------------------------------------------- query


def cmd_query(args) -> int:
    db_codes = _load_index(args.index)
    queries = BinaryCodeMatrix.load(args.queries)
    if queries.K != db_codes.K:
        raise DataError(f"{args.queries}: {queries.K}-bit codes, but the index has {db_codes.K}")
    payload = {"command": "query", "index": str(args.index),
               "queries": str(args.queries), "k": args.k}
    with _output(args, payload) as (stage, _):
        results = search(queries, db_codes, k=args.k)
        per_chunk = max(1, _CHUNK_ROWS // args.k)  # whole queries per chunk of rows
        with open(stage / "results.csv", "w", encoding="utf-8") as fh:
            fh.write("query,rank,item,distance\n")
            for part in (results[s:s + per_chunk] for s in range(0, len(results), per_chunk)):
                table = np.column_stack([np.repeat([res.query for res in part], args.k),
                                         np.tile(np.arange(1, args.k + 1), len(part)),
                                         np.concatenate([res.indices for res in part]),
                                         np.concatenate([res.distances for res in part])])
                fh.writelines(format_rows("%d,%d,%d,%d\n", table))
    print(f"wrote top-{args.k} results for {queries.n} queries to "
          f"{Path(args.out) / 'results.csv'}")
    return EXIT_OK


# ------------------------------------------------------------------ eval


def cmd_eval(args) -> int:
    db_codes = BinaryCodeMatrix.load(args.db_codes)
    query_codes = BinaryCodeMatrix.load(args.query_codes)
    if query_codes.K != db_codes.K:
        raise DataError(f"{args.query_codes}: {query_codes.K}-bit codes, but --db-codes has {db_codes.K}")
    db_labels = load_labels(args.db_labels, num_classes=args.classes, n_items=db_codes.n)
    query_labels = load_labels(args.query_labels, num_classes=args.classes, n_items=query_codes.n)
    try:
        ks = [int(k) for k in args.ks.split(",") if k]
    except ValueError as exc:
        raise ConfigError(f"bad --ks list {args.ks!r}") from exc
    payload = {
        "command": "eval",
        "db_codes": str(args.db_codes),
        "query_codes": str(args.query_codes),
        "ks": ks,
    }
    with _output(args, payload) as (stage, chash):
        report = metrics_report(
            query_codes, db_codes, query_labels, db_labels,
            ks=ks, num_classes=args.classes, config_hash=chash,
        )
        write_metrics_csv(report, stage)
        write_metrics_json(report, stage / "report.json")
    shown = ", ".join(f"MAP@{k}={v:.4f}" for k, v in sorted(report.map_at.items()))
    print(f"evaluated {query_codes.n} queries against {db_codes.n} items: {shown}")
    return EXIT_OK


# ---------------------------------------------------------------- ablate


def _eval_split_map(out_dir: Path, dataset: Dataset) -> float:
    """Query-split MAP against the trained database codes."""
    state = load_checkpoint(out_dir / "encoder.fhnn")
    query_idx = dataset.split("query")
    if query_idx.size == 0:
        raise ConfigError("ablation needs a non-empty query split")
    q_codes = _encode_features(state, dataset.features[:, query_idx])
    db_idx = dataset.split("database") if "database" in dataset.splits else dataset.split("train")
    train_idx = dataset.split("train")
    if np.array_equal(db_idx, train_idx):
        db_codes = BinaryCodeMatrix.load(out_dir / "codes.fhsh")
    else:
        db_codes = _encode_features(state, dataset.features[:, db_idx])
    rep = metrics_report(
        q_codes, db_codes,
        dataset.subset_labels(query_idx), dataset.subset_labels(db_idx),
        ks=[db_codes.n], num_classes=dataset.num_classes, max_n=1,
    )
    return rep.map_at[db_codes.n]


def cmd_ablate(args) -> int:
    cfg, base_dir = _load_config_file(args.config)
    ablate_cfg = _section(cfg, "ablate")
    seeds = ablate_cfg.get("seeds")
    if not isinstance(seeds, list) or not seeds or any(type(s) is not int for s in seeds):
        raise ConfigError(f"ablate.seeds must be a non-empty list of integers, got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"duplicate seeds in ablate.seeds: {seeds}")
    names = tuple(ABLATIONS)
    variants = ablate_cfg.get("variants", list(names))
    if not isinstance(variants, list) or any(v not in names for v in variants) \
            or len(set(variants)) != len(variants):
        raise ConfigError(f"ablate.variants must be a list of distinct names from "
                          f"{names}, got {variants!r}")

    with _output(args, {"command": "ablate", "config": cfg}) as (stage, chash):
        rows = []
        for variant in variants:
            for seed in seeds:
                dataset = _build_dataset(cfg, base_dir, seed_offset=seed)
                hp = _build_hyper(cfg, seed).ablation(variant)
                spec = _build_encoder_spec(cfg, dataset, hp)
                run_dir = stage / f"{variant.replace('+', '_')}_seed{seed}"
                train(dataset, hp, spec, out_dir=run_dir, config_hash=chash)
                score = _eval_split_map(run_dir, dataset)
                rows.append((variant, seed, score))
                print(f"{variant:11s} seed={seed} MAP={score:.4f}")

        with open(stage / "ablation.csv", "w", encoding="utf-8") as fh:
            fh.write("variant,seed,map\n")
            for variant, seed, score in rows:
                fh.write(f"{variant},{seed},{score!r}\n")
        medians = {
            v: float(np.median([r[2] for r in rows if r[0] == v]))
            for v in variants
        }
        write_json(stage / "summary.json", {"config_hash": chash, "medians": medians})
    print("medians: " + ", ".join(f"{v}={m:.4f}" for v, m in medians.items()))
    return EXIT_OK


# ---------------------------------------------------------------- curves


def cmd_curves(args) -> int:
    try:
        margins = [float(m) for m in args.margins.split(",") if m]
    except ValueError as exc:
        raise ConfigError(f"bad --margins list {args.margins!r}") from exc
    if not margins:
        raise ConfigError("--margins needs at least one value")
    if any(m < 0 for m in margins):
        raise ConfigError("margins must be >= 0")
    payload = {"command": "curves", "margins": margins,
               "d_min": args.d_min, "d_max": args.d_max, "points": args.points}
    with _output(args, payload) as (stage, _):
        write_loss_curves(stage / "curves.csv", margins,
                          d_min=args.d_min, d_max=args.d_max, points=args.points)
    print(f"wrote loss curves for m in {margins} to {Path(args.out) / 'curves.csv'}")
    return EXIT_OK


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int,
                        help="accepted and checked (>= 1) for compatibility; fisherhash "
                             "ranks on one thread and no result depends on it")
    common.add_argument("--out", help="output directory")
    common.add_argument("--force", action="store_true",
                        help="replace a non-empty output directory once the run succeeds")
    common.add_argument("--json", action="store_true",
                        help="machine-readable errors on stderr")

    parser = argparse.ArgumentParser(
        prog="fisherhash",
        description="Binary hash code learning and Hamming retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = command("train", cmd_train, "train encoder, codes, centers")
    p.add_argument("--config", required=True, help="JSON configuration file")
    p.add_argument("--seed", type=int, help="override hyper.seed")

    p = command("encode", cmd_encode, "encode features with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)

    p = command("index", cmd_index, "bundle codes and labels into an index")
    p.add_argument("--codes", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--name", default="index")

    p = command("query", cmd_query, "top-k Hamming search against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=int, required=True)

    p = command("eval", cmd_eval, "retrieval metrics for code tables")
    p.add_argument("--db-codes", required=True)
    p.add_argument("--db-labels", required=True)
    p.add_argument("--query-codes", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--ks", default="1,10,100")

    p = command("ablate", cmd_ablate, "run loss-component ablations")
    p.add_argument("--config", required=True, help="JSON configuration file")

    p = command("curves", cmd_curves, "emit margin loss curves")
    p.add_argument("--margins", default="0,1,2")
    p.add_argument("--d-min", type=float, default=-8.0)
    p.add_argument("--d-max", type=float, default=8.0)
    p.add_argument("--points", type=int, default=161)

    return parser


def _report_error(args, exc: Exception, kind: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
    else:
        print(f"error ({kind}): {exc}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every command accepts --threads; no result depends on it, since ranking is single-threaded.
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if getattr(args, "classes", 1) < 1:  # index and eval, before any file is read
            raise ConfigError(f"--classes must be >= 1, got {args.classes}")
        return args.handler(args)
    except ConfigError as exc:
        _report_error(args, exc, "config")
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as exc:
        _report_error(args, exc, "data")
        return EXIT_DATA
    except NumericalError as exc:
        _report_error(args, exc, "numerical")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
