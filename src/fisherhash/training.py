"""Joint alternating training of encoder, codes, and centers.

Each epoch runs (1) a continuous phase: minibatch SGD on the encoder
against the pair losses plus the quantization pull toward the current
codes, then (2) a discrete phase on the full training set: re-quantize
codes, descend the relaxed centers, and apply the closed-form code
update, alternating for a few rounds.  Each epoch reports the
center, inter-center and quantization losses and the pair loss on the
epoch's codes (pairwise.code_pair_loss); the continuous pair loss over
all pairs and the weighted joint objective are computed once, after the
last epoch.  All randomness flows from the single seed, so a fixed
configuration reproduces bit-identical artifacts.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import centers as centers_mod
from . import encoder as encoder_mod
from .binary_codes import BinaryCodeMatrix
from .centers import init_centers, target_matrix, update_centers, update_codes
from .datasets import (Dataset, check_number, distinct_label_sets, label_matrix, relevance_matrix,
                       write_json)
from .evaluation import format_rows, metrics_report
from .exceptions import DataError, NumericalError
from .pairwise import _pair_coef, code_pair_loss, loss_dissimilar, loss_similar, pair_loss_full

# Each ablation variant and the weights it sets to 0; the variants stack.
ABLATIONS = {"pair": ("mu", "nu"), "pair+intra": ("nu",), "full": ()}


@dataclass(frozen=True)
class HyperParams:
    """Training weights, margin, code length, and schedule.

    phi scales the pair losses relative to the quantization pull (whose
    weight stays 1); mu and nu weigh the center pull and the center
    separation; eta anchors relaxed centers to their sign pattern.  A
    weight (or the margin) of 0 switches its term off.
    """

    bits: int
    epochs: int
    batch_size: int = 64
    lr: float = 0.01
    seed: int = 0
    phi: float = 1.0
    mu: float = 1.0
    nu: float = 0.1
    eta: float = 0.5
    margin: float = 1.0
    weight_decay: float = 0.0
    momentum: float = 0.0
    center_inner_lr: float = 1e-2
    center_inner_steps: int = 20
    center_rounds: int = 3

    def __post_init__(self):
        for f in fields(self):
            check_number(f.name, getattr(self, f.name), f.type)
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for name in ("phi", "mu", "nu", "eta", "margin", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.phi > 0 and self.batch_size < 2:
            raise ValueError("phi > 0 requires batch_size >= 2 (pairs need two items)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.center_inner_lr <= 0:
            raise ValueError("center_inner_lr must be > 0")
        if self.center_inner_steps < 1 or self.center_rounds < 1:
            raise ValueError("center_inner_steps and center_rounds must be >= 1")

    def weighted_total(self, pair: float, intra: float, inter: float, quant: float) -> float:
        """The joint objective from its raw blocks: phi, mu and nu weigh
        pair, intra and inter; quant has weight 1."""
        return self.phi * pair + self.mu * intra + self.nu * inter + quant

    def ablation(self, variant: str) -> "HyperParams":
        """This configuration with the weights of an ABLATIONS variant set to 0."""
        if variant not in ABLATIONS:
            raise ValueError(f"unknown ablation variant {variant!r}")
        return replace(self, **dict.fromkeys(ABLATIONS[variant], 0.0))


@dataclass
class EpochRecord:
    """One epoch's objective; its fields are report.csv's columns and report.json's keys.

    code_pair_loss is the margin pair loss on the epoch's codes B, over
    all pairs.  pair_loss, the same loss on the continuous U, and total,
    the weighted joint objective, are set on the last epoch's record
    only; report.json leaves them out of the other records and
    report.csv leaves their cells empty.
    """

    epoch: int
    code_pair_loss: float
    intra_loss: float
    inter_loss: float
    quant_loss: float
    pair_loss: float | None = None
    total: float | None = None

    def as_dict(self) -> dict:
        """The fields that are set, by name."""
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass
class TrainReport:
    """Per-epoch objective components plus final artifact paths.

    Wall-clock time is kept out of the serialized report so identical
    configurations produce byte-identical report files; it is written
    to a separate timing sidecar instead.
    """

    records: list = field(default_factory=list)
    train_map: float | None = None
    artifacts: dict = field(default_factory=dict)
    config_hash: str | None = None
    elapsed_seconds: float | None = None

    def as_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "train_map": self.train_map,
            "artifacts": {k: str(v) for k, v in self.artifacts.items()},
            "epochs": [r.as_dict() for r in self.records],
        }


def pair_gradient(u: np.ndarray, s: np.ndarray, m: float) -> np.ndarray:
    """pairwise.pair_gradient with psi = 0 on a ready pair-sign matrix s: the pair
    part of a minibatch step, which perfbench traces under this name."""
    return u @ _pair_coef(-0.5 * (u.T @ u), s, m)


def continuous_step_gradient(u: np.ndarray, b: np.ndarray, s: np.ndarray, hp: HyperParams) -> np.ndarray:
    """Gradient in U for one minibatch of the continuous phase.

    b holds the batch's codes as a dense K x n sign matrix and s its
    pair signs, symmetric with a zero diagonal (see pairwise.sign_matrix),
    which are used unchecked.  Pair losses are averaged over the pair
    count and the quantization pull over the item count, decoupling the
    step size from the batch size; with mu = nu = 0 and margin 0 this is
    exactly the classical pairwise logistic step with a quantization
    penalty.
    """
    n = u.shape[1]
    grad = 2.0 * (u - b) / n
    count = np.count_nonzero(s) // 2
    if hp.phi > 0 and count:
        pair_part = pair_gradient(u, s, hp.margin)
        grad = grad + hp.phi * pair_part / count
    return grad


def _discrete_phase(u_full, y, v, hp: HyperParams, a):
    """Re-quantize codes, then alternate center descent / code update."""
    b = BinaryCodeMatrix.from_values(u_full)
    if v is None:
        v = init_centers(u_full, y)
    for _ in range(hp.center_rounds):
        v, c = update_centers(v, b, y, a, hp.mu, hp.nu, hp.eta,
                              hp.center_inner_lr, hp.center_inner_steps)
        b = update_codes(u_full, c, y, hp.mu)
    return b, c, v


def train(
    dataset: Dataset,
    hp: HyperParams,
    encoder_spec: encoder_mod.EncoderSpec,
    out_dir=None,
    config_hash: str | None = None,
) -> TrainReport:
    """Run the alternating optimization and optionally save artifacts.

    Artifacts: encoder checkpoint, training-set code table, packed
    centers with a raw float64 sidecar of the relaxed centers, and the
    report (JSON + CSV).  The returned report also carries the
    training-set self-retrieval MAP.
    """
    if encoder_spec.output_dim != hp.bits:
        raise ValueError(
            f"encoder output_dim {encoder_spec.output_dim} != bits {hp.bits}"
        )
    if encoder_spec.input_dim != dataset.input_dim:
        raise ValueError(
            f"encoder input_dim {encoder_spec.input_dim} != dataset dim {dataset.input_dim}"
        )
    t_start = time.perf_counter()
    train_idx = dataset.split("train")
    label_sets = dataset.subset_labels(train_idx)
    missing = set(range(dataset.num_classes)).difference(*label_sets)
    if missing:  # an empty split misses every class
        what = f"has no item of class {min(missing)}" if label_sets else "is empty"
        raise DataError(f"dataset {dataset.name!r}: the train split {what}")
    x = dataset.features[:, train_idx]
    y = label_matrix(label_sets, dataset.num_classes)
    sets, set_of = distinct_label_sets(label_sets)
    meet = relevance_matrix(sets, sets, dataset.num_classes)
    signs = np.where(meet, 1.0, -1.0)
    n = x.shape[1]
    a = target_matrix(hp.bits, dataset.num_classes)

    rng = np.random.default_rng(hp.seed)
    state = encoder_mod.init_state(encoder_spec)
    opt = encoder_mod.SGD(hp.lr, hp.weight_decay, hp.momentum)

    u_full, _ = encoder_mod.forward(state, x)
    b = BinaryCodeMatrix.from_values(u_full)
    v = None
    report = TrainReport(config_hash=config_hash)

    for epoch in range(hp.epochs):
        perm = rng.permutation(n)
        b_dense = b.dense(np.float64)
        # A diverging step overflows; the finiteness checks report it.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, hp.batch_size):
                idx = perm[start : start + hp.batch_size]
                u_batch, cache = encoder_mod.forward(state, x[:, idx])
                g = set_of[idx]  # take() keeps s C-ordered; the BLAS products' bits need that
                s = signs.take(g, 0).take(g, 1)
                np.fill_diagonal(s, 0.0)
                du = continuous_step_gradient(u_batch, b_dense[:, idx], s, hp)
                if not np.isfinite(du).all():
                    raise NumericalError(
                        f"non-finite loss gradient at epoch {epoch}, batch {start // hp.batch_size}"
                    )
                grads, _ = encoder_mod.backward(state, cache, du)
                state = opt.step(state, grads)
            u_full, _ = encoder_mod.forward(state, x)
        if not np.isfinite(u_full).all():
            raise NumericalError(f"non-finite representations after epoch {epoch}")
        b, c, v = _discrete_phase(u_full, y, v, hp, a)

        record = EpochRecord(
            epoch, code_pair_loss(b, set_of, meet, hp.margin), centers_mod.intra_loss(b, c, y),
            centers_mod.inter_loss(c, a), centers_mod.quant_loss(b, u_full),
        )
        if epoch == hp.epochs - 1:
            record.pair_loss = pair_loss_full(u_full, set_of, meet, hp.margin)
            record.total = hp.weighted_total(
                record.pair_loss, record.intra_loss, record.inter_loss, record.quant_loss)
        if not np.isfinite(list(record.as_dict().values())).all():
            raise NumericalError(f"non-finite objective at epoch {epoch}")
        report.records.append(record)

    if hp.epochs == 0:
        # Degenerate run: codes are the sign pattern of the untrained encoder.
        v = init_centers(u_full, y)
        c = BinaryCodeMatrix.from_values(v)
    train_metrics = metrics_report(
        b, b, label_sets, label_sets, ks=[b.n], num_classes=dataset.num_classes, max_n=1
    )
    report.train_map = train_metrics.map_at[b.n]
    report.elapsed_seconds = time.perf_counter() - t_start

    if out_dir is not None:
        _save_artifacts(out_dir, state, b, c, v, report)
    return report


def _save_artifacts(out_dir, state, b, c, v, report: TrainReport) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "checkpoint": out / "encoder.fhnn",
        "codes": out / "codes.fhsh",
        "centers": out / "centers.fhsh",
        "centers_v": out / "centers.v.f64",
        "report_json": out / "report.json",
        "report_csv": out / "report.csv",
    }
    encoder_mod.save_checkpoint(state, paths["checkpoint"])
    b.save(paths["codes"])
    c.save(paths["centers"])
    with open(paths["centers_v"], "wb") as fh:
        fh.write(np.ascontiguousarray(v.T, dtype="<f8").tobytes())
    report.artifacts = {k: p.name for k, p in paths.items()}
    write_json(paths["report_json"], report.as_dict())
    with open(paths["report_csv"], "w", encoding="utf-8") as fh:
        fh.write(",".join(f.name for f in fields(EpochRecord)) + "\n")
        fh.writelines(",".join("" if v is None else repr(v) for v in astuple(r)) + "\n"
                      for r in report.records)
    # Wall-clock timing goes to a sidecar: it is the one run-dependent
    # quantity and must not break artifact reproducibility.
    with open(out / "timing.json", "w", encoding="utf-8") as fh:
        json.dump({"elapsed_seconds": report.elapsed_seconds}, fh)
        fh.write("\n")


def loss_curve_rows(m_values, d_min: float = -8.0, d_max: float = 8.0, points: int = 161):
    """Rows (D, m, loss_similar, loss_dissimilar) over a grid of D.

    When the range is symmetric around zero the grid is built by
    mirroring, so every -D is exactly representable on it.
    """
    if points < 2:
        raise ValueError("points must be >= 2")
    if d_min >= d_max:
        raise ValueError("d_min must be < d_max")
    if d_min == -d_max and points % 2 == 1:
        half = np.linspace(0.0, d_max, (points + 1) // 2)
        grid = np.concatenate([-half[:0:-1], half])
    else:
        grid = np.linspace(d_min, d_max, points)
    rows = []
    for m in m_values:
        ls = loss_similar(grid, m)
        ld = loss_dissimilar(grid, m)
        rows.extend(
            (float(d), float(m), float(s), float(o))
            for d, s, o in zip(grid, ls, ld)
        )
    return rows


def write_loss_curves(path, m_values, d_min: float = -8.0, d_max: float = 8.0, points: int = 161) -> None:
    rows = loss_curve_rows(m_values, d_min, d_max, points)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("D,m,loss_similar,loss_dissimilar\n")
        fh.writelines(format_rows("%r,%r,%r,%r\n", rows))
