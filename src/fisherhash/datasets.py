"""Dataset ingestion: feature tables, label files, splits, synthetics.

Features are precomputed vectors (any upstream extractor); this module
only defines the on-disk formats and a Gaussian-blob generator for
experiments.  Labels may be multi-valued; an item with m labels gets
proportion 1/m per class in its label-matrix column.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import DataError

FEATURE_MAGIC = b"FHFT"
FEATURE_VERSION = 1


def label_matrix(label_sets, num_classes: int) -> np.ndarray:
    """Class-proportion matrix: column i has 1/m at each of item i's m labels."""
    y = np.zeros((num_classes, len(label_sets)))
    for i, labels in enumerate(label_sets):
        if not labels:
            raise DataError(f"item {i} has no labels")
        for c in labels:
            if not 0 <= c < num_classes:
                raise DataError(f"item {i}: class id {c} out of range for M={num_classes}")
            y[c, i] = 1.0 / len(labels)
    return y


def distinct_label_sets(label_sets) -> tuple[list, np.ndarray]:
    """The distinct label sets in first-seen order, and each item's index into them."""
    ids: dict = {}
    item_ids = np.fromiter(
        (ids.setdefault(frozenset(s), len(ids)) for s in label_sets),
        dtype=np.intp, count=len(label_sets),
    )
    return list(ids), item_ids


def relevance_matrix(query_label_sets, db_label_sets, num_classes: int | None = None) -> np.ndarray:
    """Boolean (n_q, n_db) matrix: entry true iff the label sets meet.

    This is the one similarity rule: for training pairs and for ranking.
    num_classes defaults to one more than the largest class id; an id
    outside [0, num_classes) is a ValueError.
    """
    both = (query_label_sets, db_label_sets)
    if num_classes is None:
        num_classes = 1 + max((c for sets in both for s in sets for c in s), default=-1)
    indicators = []
    for label_sets in both:
        ind = np.zeros((len(label_sets), num_classes), dtype=bool)
        for i, labels in enumerate(label_sets):
            labels = list(labels)
            if not all(0 <= c < num_classes for c in labels):
                raise ValueError(f"label set {sorted(labels)} has a class id outside [0, {num_classes})")
            ind[i, labels] = True
        indicators.append(ind)
    return indicators[0] @ indicators[1].T


@dataclass
class Dataset:
    """In-memory dataset: dim x N features, label sets, index splits."""

    name: str
    features: np.ndarray
    label_sets: list
    num_classes: int
    splits: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DataError(f"features must be dim x N, got shape {self.features.shape}")
        if len(self.label_sets) != self.features.shape[1]:
            raise DataError(
                f"{len(self.label_sets)} label rows for {self.features.shape[1]} items"
            )
        self.label_sets = [frozenset(s) for s in self.label_sets]
        n = self.features.shape[1]
        for name, idx in self.splits.items():
            try:
                idx = np.asarray(idx)
            except (TypeError, ValueError) as exc:
                raise DataError(f"split {name!r} is not a list of item indices") from exc
            if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
                raise DataError(f"split {name!r} is not a list of item indices")
            idx = idx.astype(np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise DataError(f"split {name!r} has out-of-range indices")
            self.splits[name] = idx
        train = set(self.splits.get("train", np.empty(0, dtype=np.int64)).tolist())
        query = set(self.splits.get("query", np.empty(0, dtype=np.int64)).tolist())
        if train & query:
            raise DataError("query and train splits must be disjoint")

    @property
    def input_dim(self) -> int:
        return self.features.shape[0]

    @property
    def n_items(self) -> int:
        return self.features.shape[1]

    def split(self, name: str) -> np.ndarray:
        if name not in self.splits:
            raise DataError(f"dataset {self.name!r} has no split {name!r}")
        return self.splits[name]

    def subset_labels(self, indices) -> list:
        return [self.label_sets[i] for i in indices]


def write_features(path, features: np.ndarray) -> None:
    """FHFT header (dim, N) then one f32 record of dim values per item."""
    features = np.asarray(features)
    if features.ndim != 2:
        raise DataError(f"features must be dim x N, got shape {features.shape}")
    write_binary(path, FEATURE_MAGIC, FEATURE_VERSION, *features.shape,
                 np.ascontiguousarray(features.T, dtype="<f4").tobytes())


def load_features(path, expected_dim: int | None = None, expected_n: int | None = None) -> np.ndarray:
    """Read a feature table back as float64, dim x N."""
    dim, n, payload = read_binary(path, FEATURE_MAGIC, FEATURE_VERSION, "feature file")
    if dim == 0 or n == 0:
        raise DataError(f"{path}: empty feature table (dim {dim}, N {n})")
    if expected_dim is not None and dim != expected_dim:
        raise DataError(f"{path}: header dim {dim} != manifest dim {expected_dim}")
    if expected_n is not None and n != expected_n:
        raise DataError(f"{path}: header N {n} != manifest N {expected_n}")
    if len(payload) != dim * n * 4:
        raise DataError(f"{path}: expected {dim * n * 4} payload bytes, got {len(payload)}")
    values = np.frombuffer(payload, dtype="<f4").reshape(n, dim).T
    if not np.isfinite(values).all():
        raise DataError(f"{path}: non-finite feature values")
    return values.astype(np.float64)


def write_labels(path, label_sets) -> None:
    """One text line per item: 'index: c1 c2 ...'."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, labels in enumerate(label_sets):
            fh.write(f"{i}: " + " ".join(str(c) for c in sorted(labels)) + "\n")


def write_binary(path, magic: bytes, version: int, a: int, b: int, *payload: bytes) -> None:
    """Write the header FHSH, FHFT and FHNN share, then the payload chunks.

    The header is 16 bytes: the 4-byte magic, then version and the
    format's two sizes as little-endian u32.
    """
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<3I", version, a, b))
        fh.writelines(payload)


def read_binary(path, magic: bytes, version: int, what: str) -> tuple[int, int, memoryview]:
    """Read a file written by `write_binary`: its two sizes and its payload.

    A directory, another magic, fewer than 16 bytes or another version
    is a DataError; a missing file still raises FileNotFoundError, as in
    `read_text`.  The sizes are not checked against the payload here.
    """
    try:
        data = Path(path).read_bytes()
    except IsADirectoryError as exc:
        raise DataError(f"{path}: is a directory, not a file") from exc
    if data[:4] != magic:
        raise DataError(f"{path}: not a {what} (magic {data[:4]!r}, expected {magic!r})")
    if len(data) < 16:
        raise DataError(f"{path}: truncated header")
    found, a, b = struct.unpack_from("<3I", data, 4)
    if found != version:
        raise DataError(f"{path}: unsupported version {found}")
    return a, b, memoryview(data)[16:]


def read_text(path) -> str:
    """A file's UTF-8 text; a directory or undecodable bytes are a DataError.

    A missing file still raises FileNotFoundError, which callers report
    with their own wording.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except IsADirectoryError as exc:
        raise DataError(f"{path}: is a directory, not a file") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


def check_number(name: str, value, kind: str):
    """value, if it is an integer (kind "int") or a finite real (kind "float"), but no bool.

    Config values come through json, which also yields bools, fractions
    where counts belong, NaN and Infinity.  A bad "int" is a TypeError,
    a bad "float" a ValueError.
    """
    if kind == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if kind == "float" and (
        isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def read_json(path, what: str) -> dict:
    """A file's JSON object, named `what` in errors.

    Invalid JSON, a value other than an object, or any `read_text` error
    is a DataError; a missing file still raises FileNotFoundError.
    """
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: {what} must be a JSON object")
    return payload


def load_labels(path, num_classes: int, n_items: int) -> list:
    """Parse a label file into per-item label sets (frozensets of class ids).

    Each distinct label text (the part after ':') is parsed once, and
    items with equal texts share one frozenset.  Raises DataError naming
    the first bad line, then the first item without labels, then the
    first item with a class id outside [0, num_classes).
    """
    sets: list = [None] * n_items
    parsed: dict = {}
    # Universal newlines turn \r\n and \r into \n, as line iteration would.
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        try:
            idx = int(head)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad item index {head!r}") from exc
        if not 0 <= idx < n_items:
            raise DataError(f"{path}:{lineno}: item index {idx} out of range")
        if sets[idx] is not None:
            raise DataError(f"{path}:{lineno}: duplicate labels for item {idx}")
        labels = parsed.get(rest)
        if labels is None:
            classes = rest.split()
            if not classes:
                raise DataError(f"{path}:{lineno}: empty label row for item {idx}")
            try:
                labels = parsed[rest] = frozenset(int(c) for c in classes)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad class id") from exc
        sets[idx] = labels
    missing = [i for i, s in enumerate(sets) if s is None]
    if missing:
        raise DataError(f"{path}: no labels for item {missing[0]}")
    bad = {s for s in parsed.values() if not all(0 <= c < num_classes for c in s)}
    if bad:
        i, labels = next((i, s) for i, s in enumerate(sets) if s in bad)
        c = next(c for c in labels if not 0 <= c < num_classes)
        raise DataError(f"item {i}: class id {c} out of range for M={num_classes}")
    return sets


@dataclass
class DatasetManifest:
    """JSON description tying feature/label files and splits together."""

    name: str
    feature_path: str
    label_path: str
    input_dim: int
    n_items: int
    num_classes: int
    splits: dict = field(default_factory=dict)


def write_json(path, payload) -> None:
    """Write payload as indented, key-sorted JSON plus a newline: every JSON artifact's layout."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def save_manifest(manifest: DatasetManifest, path) -> None:
    splits = {k: list(map(int, v)) for k, v in manifest.splits.items()}
    write_json(path, {**asdict(manifest), "splits": splits})


def load_manifest(path) -> DatasetManifest:
    """Read a manifest; its file paths must be strings and its sizes integers."""
    payload = read_json(path, "manifest")
    if not isinstance(payload.get("splits", {}), dict):
        raise DataError(f"{path}: manifest 'splits' must be a JSON object")
    kinds = {"feature_path": str, "label_path": str, "input_dim": int, "n_items": int,
             "num_classes": int}
    for key in ("name", *kinds):
        if key not in payload:
            raise DataError(f"{path}: manifest missing key {key!r}")
        if key in kinds and type(payload[key]) is not kinds[key]:
            raise DataError(f"{path}: manifest field {key!r} must be {kinds[key].__name__}, "
                            f"got {payload[key]!r}")
    return DatasetManifest(**{k: payload[k] for k in ("name", *kinds)},
                           splits=payload.get("splits", {}))


def load_dataset(manifest: DatasetManifest, base_dir=None) -> Dataset:
    """Load features and labels referenced by a manifest."""
    base = Path(base_dir) if base_dir is not None else Path(".")
    feature_path = base / manifest.feature_path
    label_path = base / manifest.label_path
    for p in (feature_path, label_path):
        if not p.exists():
            raise DataError(f"dataset file not found: {p}")
    features = load_features(feature_path, manifest.input_dim, manifest.n_items)
    label_sets = load_labels(label_path, manifest.num_classes, manifest.n_items)
    return Dataset(
        name=manifest.name,
        features=features,
        label_sets=label_sets,
        num_classes=manifest.num_classes,
        splits=dict(manifest.splits),
    )


def make_synthetic(
    classes: int,
    per_class: int,
    dim: int,
    separation: float,
    seed: int,
    query_fraction: float = 0.1,
) -> Dataset:
    """Gaussian blobs: class means on a sphere of radius `separation`,
    unit isotropic noise.  Deterministic for a fixed seed.

    A query_fraction slice of every class is held out as the query
    split; the remainder is both database and training set.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if not 0 <= query_fraction < 1:
        raise ValueError("query_fraction must be in [0, 1)")
    n_query = int(round(query_fraction * per_class))
    if n_query >= per_class:
        raise ValueError(f"query_fraction {query_fraction} of {per_class} items per class "
                         "leaves a class no training items")
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(dim, classes))
    directions /= np.linalg.norm(directions, axis=0, keepdims=True)
    means = separation * directions
    n = classes * per_class
    labels = np.repeat(np.arange(classes), per_class)
    features = means[:, labels] + rng.normal(size=(dim, n))
    query, rest = [], []
    for c in range(classes):
        idx = np.nonzero(labels == c)[0]
        query.extend(idx[:n_query])
        rest.extend(idx[n_query:])
    splits = {
        "train": np.array(rest, dtype=np.int64),
        "database": np.array(rest, dtype=np.int64),
        "query": np.array(query, dtype=np.int64),
    }
    return Dataset(
        name="synthetic",
        features=features,
        label_sets=[frozenset({int(c)}) for c in labels],
        num_classes=classes,
        splits=splits,
    )
