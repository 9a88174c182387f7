"""Seeded inputs for the benchmark.

Every input file fisherhash sees is generated here from the benchmark
seed: the training dataset and config of the `train` workload, and the
class-structured code tables of the retrieval workloads.  One seed gives
byte-identical files; each purpose draws from its own child stream, so
changing one generator never shifts another's numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fisherhash.binary_codes import BinaryCodeMatrix
from fisherhash.datasets import DatasetManifest, save_manifest, write_features, write_labels

# Acceptance-criterion-6 shape: 10 classes x 500 items, dim 32.
TRAIN_CLASSES = 10
TRAIN_PER_CLASS = 500
TRAIN_DIM = 32
TRAIN_SEPARATION = 3.0
TRAIN_QUERY_FRACTION = 0.1
TRAIN_HYPER = {
    "bits": 12, "epochs": 20, "batch_size": 64, "lr": 0.05,
    "phi": 2.0, "mu": 1.0, "nu": 1.0, "eta": 0.2, "margin": 1.0,
    "center_inner_lr": 0.05, "center_inner_steps": 30, "center_rounds": 3,
}
TRAIN_ENCODER = {"hidden_layers": [[64, "relu"]]}

# Retrieval shape: 1,000 queries against 50,000 items at 64 bits.
BITS = 64
CLASSES = 10
N_DB = 50_000
N_QUERY = 1_000
# Each bit of a code disagrees with its class center with these
# probabilities, measured on fisherhash's own codes by calibrate.py
# (train split = database, held-out split = queries; seeds 1-3 gave
# 0.0005-0.0008 and 0.053-0.071, mean 0.00062 and 0.064).  Trained
# database codes sit on their class center, so a class ties at one
# distance and rankings are nearly perfect.  Trained centers were 27 bits
# apart on average; the random centers here are 32 apart on average, so
# both leave a query about 4 bits from its own center and 15 or more from
# any other.
DB_FLIP = 0.0006
QUERY_FLIP = 0.065
TOP_K = 100
EVAL_KS = (100, N_DB)

_TRAIN_STREAM, _CODE_STREAM, _REQUEST_STREAM = 1, 2, 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def train_data(seed: int):
    """Gaussian blobs as stored on disk: (dim x N float32 features,
    labels, query indices, train indices).

    Class means lie on a sphere of radius TRAIN_SEPARATION; the first
    TRAIN_QUERY_FRACTION of every class is the held-out query split.
    """
    rng = _rng(seed, _TRAIN_STREAM)
    directions = rng.normal(size=(TRAIN_DIM, TRAIN_CLASSES))
    directions /= np.linalg.norm(directions, axis=0, keepdims=True)
    labels = np.repeat(np.arange(TRAIN_CLASSES), TRAIN_PER_CLASS)
    features = TRAIN_SEPARATION * directions[:, labels] + rng.normal(
        size=(TRAIN_DIM, labels.size))
    n_query = round(TRAIN_QUERY_FRACTION * TRAIN_PER_CLASS)
    in_class = np.arange(labels.size) % TRAIN_PER_CLASS
    query = np.flatnonzero(in_class < n_query)
    rest = np.flatnonzero(in_class >= n_query)
    return features.astype(np.float32), labels, query, rest


def write_train_inputs(seed: int, out_dir) -> Path:
    """Write the dataset files and the train config; returns the config path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    features, labels, query, rest = train_data(seed)
    write_features(out / "features.fhft", features)
    write_labels(out / "labels.txt", [{int(c)} for c in labels])
    save_manifest(DatasetManifest(
        name="bench", feature_path="features.fhft", label_path="labels.txt",
        input_dim=TRAIN_DIM, n_items=int(labels.size), num_classes=TRAIN_CLASSES,
        splits={"train": rest, "database": rest, "query": query},
    ), out / "manifest.json")
    config = {
        "dataset": {"manifest": "manifest.json"},
        "hyper": {**TRAIN_HYPER, "seed": seed},
        "encoder": TRAIN_ENCODER,
    }
    path = out / "train.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def class_codes(seed: int):
    """Class-structured codes: (query signs, query labels, db signs, db
    labels), signs as (n, BITS) int8 in {-1, +1}.

    Each class has a random center; an item is its class center with
    i.i.d. bit flips of probability QUERY_FLIP or DB_FLIP.
    """
    rng = _rng(seed, _CODE_STREAM)
    centers = rng.choice(np.array([-1, 1], dtype=np.int8), size=(CLASSES, BITS))

    def draw(n, flip):
        labels = rng.integers(0, CLASSES, size=n)
        flips = rng.random((n, BITS)) < flip
        return np.where(flips, -centers[labels], centers[labels]).astype(np.int8), labels

    q_signs, q_labels = draw(N_QUERY, QUERY_FLIP)
    db_signs, db_labels = draw(N_DB, DB_FLIP)
    return q_signs, q_labels, db_signs, db_labels


def write_retrieval_inputs(seed: int, out_dir) -> dict:
    """Write both code tables and label files; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    q_signs, q_labels, db_signs, db_labels = class_codes(seed)
    paths = {
        "queries": out / "queries.fhsh", "query_labels": out / "query_labels.txt",
        "db": out / "db.fhsh", "db_labels": out / "db_labels.txt",
    }
    BinaryCodeMatrix.from_signs(q_signs.T).save(paths["queries"])
    BinaryCodeMatrix.from_signs(db_signs.T).save(paths["db"])
    write_labels(paths["query_labels"], [{int(c)} for c in q_labels])
    write_labels(paths["db_labels"], [{int(c)} for c in db_labels])
    return paths


def request_order(seed: int, n: int) -> np.ndarray:
    """Query indices of the online workload's requests, in send order."""
    return _rng(seed, _REQUEST_STREAM).integers(0, N_QUERY, size=n)
