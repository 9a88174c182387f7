#!/usr/bin/env python3
"""End-to-end: train on a 10-class synthetic set, then retrieve.

Held-out queries are encoded with the trained network and ranked
against the learned database codes; prints MAP and precision@N.
"""

import tempfile
from pathlib import Path

import numpy as np

from fisherhash import (
    BinaryCodeMatrix,
    EncoderSpec,
    HyperParams,
    forward,
    load_checkpoint,
    make_synthetic,
    metrics_report,
    train,
)

ds = make_synthetic(10, 100, 32, 3.0, seed=42, query_fraction=0.1)
print(f"dataset: {ds.n_items} items, {ds.num_classes} classes, dim {ds.input_dim}")
print(f"splits: train/database {len(ds.split('train'))}, query {len(ds.split('query'))}")

hp = HyperParams(
    bits=12, epochs=20, batch_size=64, lr=0.05, seed=0,
    phi=2.0, mu=1.0, nu=1.0, eta=0.2, margin=1.0,
    center_inner_lr=0.05, center_inner_steps=30, center_rounds=3,
)
spec = EncoderSpec(input_dim=32, output_dim=12, hidden_layers=((64, "relu"),), seed=0)

with tempfile.TemporaryDirectory() as td:
    report = train(ds, hp, spec, out_dir=td)
    state = load_checkpoint(Path(td) / "encoder.fhnn")
    db_codes = BinaryCodeMatrix.load(Path(td) / "codes.fhsh")

print(f"\ntrained {hp.epochs} epochs; pair loss on the codes "
      f"{report.records[0].code_pair_loss:.0f} -> {report.records[-1].code_pair_loss:.0f}; "
      f"final objective {report.records[-1].total:.0f}")

q_idx = ds.split("query")
u_q, _ = forward(state, ds.features[:, q_idx])
q_codes = BinaryCodeMatrix.from_values(u_q)

rep = metrics_report(
    q_codes, db_codes,
    ds.subset_labels(q_idx), ds.subset_labels(ds.split("train")),
    ks=[10, 100, db_codes.n], num_classes=ds.num_classes,
)
print(f"\nretrieval over {db_codes.n} database items, {q_codes.n} held-out queries:")
for k, v in sorted(rep.map_at.items()):
    print(f"  MAP@{k:<5d} = {v:.4f}")
for n in (1, 10, 100):
    row = rep.top_n[n - 1]
    print(f"  P@{n:<6d} = {row[1]:.4f}   R@{n:<4d} = {row[2]:.4f}")
