from unittest import mock

import numpy as np
import pytest

from fisherhash import centers as centers_mod
from fisherhash import pairwise, training
from fisherhash.binary_codes import BinaryCodeMatrix, dense_signs
from fisherhash.centers import (
    check_label_matrix,
    inter_loss,
    intra_loss,
    quant_loss,
    target_matrix,
    update_centers,
    update_codes,
)
from fisherhash.datasets import Dataset, distinct_label_sets, make_synthetic, relevance_matrix
from fisherhash.encoder import EncoderSpec, forward, load_checkpoint
from fisherhash.pairwise import MarginParams, PairSets, pair_gradient, pair_objective, sign_matrix
from fisherhash.training import (
    HyperParams,
    TrainReport,
    continuous_step_gradient,
    loss_curve_rows,
    pair_loss_full,
    train,
    write_loss_curves,
)

from test_pairwise import _full_loss


def tiny_hp(**overrides):
    base = dict(bits=2, epochs=2, batch_size=16, lr=0.05, seed=3,
                center_inner_steps=10, center_rounds=2)
    base.update(overrides)
    return HyperParams(**base)


class TestHyperParams:
    def test_pairs_need_two_items(self):
        with pytest.raises(ValueError, match="batch_size"):
            HyperParams(bits=4, epochs=1, batch_size=1)

    def test_quant_only_batch_of_one_allowed(self):
        HyperParams(bits=4, epochs=1, batch_size=1, phi=0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nu"):
            HyperParams(bits=4, epochs=1, nu=-0.1)

    def test_ablation_variants(self):
        hp = tiny_hp()
        pair_only = hp.ablation("pair")
        assert pair_only.mu == 0.0 and pair_only.nu == 0.0
        with_intra = hp.ablation("pair+intra")
        assert with_intra.mu == hp.mu and with_intra.nu == 0.0
        full = hp.ablation("full")
        assert full.mu == hp.mu and full.nu == hp.nu
        assert full == hp
        with pytest.raises(ValueError):
            hp.ablation("bogus")


class TestJointObjective:
    """The joint objective is HyperParams.weighted_total of the four loss blocks."""

    def test_quant_only_zero_when_codes_match(self):
        signs = np.ones((3, 4))
        b = BinaryCodeMatrix.from_signs(signs)
        c = BinaryCodeMatrix.from_signs(np.ones((3, 2)))
        y = np.tile([[1.0], [0.0]], (1, 4))
        hp = HyperParams(bits=3, epochs=0, phi=0.0, mu=0.0, nu=0.0)
        u = signs.astype(float)
        quant = quant_loss(b, u)
        total = hp.weighted_total(
            pair_objective(u, b, PairSets(), MarginParams(m=hp.margin, psi=0.0)),
            intra_loss(b, c, y), inter_loss(c, target_matrix(3, 2)), quant)
        assert total == 0.0
        assert quant == 0.0

    def test_components_match_module_operations(self):
        rng = np.random.default_rng(0)
        k, m, n = 4, 3, 10
        u = rng.normal(size=(k, n))
        b = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(k, n)))
        c = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(k, m)))
        labels = rng.integers(0, m, size=n)
        y = np.zeros((m, n))
        y[labels, np.arange(n)] = 1.0
        pairs = PairSets.all_pairs_from_label_sets([frozenset({int(c_)}) for c_ in labels])
        hp = HyperParams(bits=k, epochs=0, phi=0.7, mu=1.3, nu=0.2, margin=1.0)
        pair = pair_objective(u, b, pairs, MarginParams(m=1.0, psi=0.0))
        intra = intra_loss(b, c, y)
        inter = inter_loss(c, target_matrix(k, m))
        quant = quant_loss(b, u)
        assert hp.weighted_total(pair, intra, inter, quant) == pytest.approx(
            0.7 * pair + 1.3 * intra + 0.2 * inter + quant, rel=1e-15,
        )

    def test_hand_built_two_item_instance(self):
        # K=2, N=2, M=2; worked with a plain calculator-style reference.
        u = np.array([[1.0, -1.0], [0.5, -0.5]])
        b_signs = np.array([[1.0, -1.0], [1.0, -1.0]])
        c_signs = np.array([[1.0, -1.0], [1.0, -1.0]])
        y = np.eye(2)
        pairs = PairSets(dissimilar=np.array([[0, 1]]))
        hp = HyperParams(bits=2, epochs=0, phi=1.0, mu=1.0, nu=1.0, margin=0.0)
        d01 = -0.5 * (1.0 * -1.0 + 0.5 * -0.5)
        want_pair = np.log1p(np.exp(-d01))
        want_quant = (0.5 - 1.0) ** 2 + (-0.5 + 1.0) ** 2
        want_inter = 2 * ((-1 * 1 + -1 * 1) + 2) ** 2  # <c0,c1> = -2 = -K exactly
        pair = pair_objective(u, b_signs, pairs, MarginParams(m=hp.margin, psi=0.0))
        intra = intra_loss(b_signs, c_signs, y)
        inter = inter_loss(c_signs, target_matrix(2, 2))
        quant = quant_loss(b_signs, u)
        assert pair == pytest.approx(want_pair, rel=1e-12)
        assert intra == 0.0
        assert inter == pytest.approx(want_inter, abs=1e-12)
        assert quant == pytest.approx(want_quant, rel=1e-12)
        total = hp.weighted_total(pair, intra, inter, quant)
        assert total == pytest.approx(want_pair + want_quant, rel=1e-12)


class TestPairLossFull:
    def test_matches_explicit_pairs(self):
        rng = np.random.default_rng(5)
        n = 37
        u = rng.normal(size=(6, n))
        label_sets = [frozenset({int(c)}) for c in rng.integers(0, 4, size=n)]
        pairs = PairSets.all_pairs_from_label_sets(label_sets)
        want = pair_objective(u, np.zeros((6, n)), pairs, MarginParams(m=1.5, psi=0.0))
        with mock.patch.object(pairwise, "_GRAM_BLOCK", 8):
            got = _full_loss(u, label_sets, 1.5)
        assert got == pytest.approx(want, rel=1e-12)


class TestContinuousStepGradient:
    def test_reduces_to_classical_pairwise_step(self):
        # mu = nu = 0 and margin 0: the step must be exactly the
        # normalized pairwise logistic gradient plus quantization pull.
        rng = np.random.default_rng(7)
        n = 10
        u = rng.normal(size=(4, n))
        signs = rng.choice([-1, 1], size=(4, n))
        label_sets = [frozenset({int(c)}) for c in rng.integers(0, 3, size=n)]
        pairs = PairSets.all_pairs_from_label_sets(label_sets)
        hp = HyperParams(bits=4, epochs=1, phi=0.8, mu=0.0, nu=0.0, margin=0.0)
        got = continuous_step_gradient(u, signs.astype(float), sign_matrix(pairs, n), hp)
        classical = (
            0.8 * pair_gradient(u, signs, pairs, MarginParams(m=0.0, psi=0.0)) / pairs.count
            + 2.0 * (u - signs) / n
        )
        np.testing.assert_allclose(got, classical, rtol=1e-14)

    def test_pair_flag_off_leaves_quant_pull(self):
        u = np.zeros((2, 4))
        signs = np.ones((2, 4))
        hp = HyperParams(bits=2, epochs=1, phi=0.0)
        got = continuous_step_gradient(u, signs, sign_matrix(PairSets(), 4), hp)
        np.testing.assert_allclose(got, 2.0 * (u - signs) / 4)

    @pytest.mark.parametrize("case", ["random", "phi-zero", "one-item", "one-class"])
    def test_matches_step_on_codes_and_pair_sets(self, case):
        # The step on train's dense codes and sign matrix equals, bit for
        # bit, the quantization pull plus the pair gradient taken on the
        # packed codes and the explicit pair sets of the same batch.
        rng = np.random.default_rng(["random", "phi-zero", "one-item", "one-class"].index(case))
        for _ in range(25):
            k = int(rng.integers(1, 70))
            n = 1 if case == "one-item" else int(rng.integers(2, 40))
            classes = 1 if case == "one-class" else int(rng.integers(2, 6))
            label_sets = [frozenset(int(c) for c in rng.choice(classes, rng.integers(1, classes + 1),
                                                                 replace=False))
                          for _ in range(n)]
            u = rng.normal(scale=rng.uniform(0.1, 4.0), size=(k, n))
            b = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(k, n)))
            phi = 0.0 if case == "phi-zero" else float(rng.uniform(0.1, 4.0))
            hp = HyperParams(bits=k, epochs=1, phi=phi, margin=float(rng.uniform(0.0, 3.0)))
            # The batch's pair signs as train builds them, from the meet table.
            sets, set_of = distinct_label_sets(label_sets)
            s = np.where(relevance_matrix(sets, sets)[np.ix_(set_of, set_of)], 1.0, -1.0)
            np.fill_diagonal(s, 0.0)
            pairs = PairSets.all_pairs_from_label_sets(label_sets)
            assert np.array_equal(s, sign_matrix(pairs, n))
            if case == "one-class":
                assert pairs.dissimilar.size == 0

            got = continuous_step_gradient(u, b.dense(np.float64), s, hp)
            want = 2.0 * (u - dense_signs(b)) / n
            if hp.phi > 0 and pairs.count:
                pair_part = pair_gradient(u, b, pairs, MarginParams(m=hp.margin, psi=0.0))
                want = want + hp.phi * pair_part / pairs.count
            assert np.array_equal(got, want)


class TestDiscreteProgress:
    def test_code_update_never_increases_center_objective(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k, m, n = 6, 3, 15
            u = rng.normal(size=(k, n))
            c = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(k, m)))
            labels = rng.integers(0, m, size=n)
            y = np.zeros((m, n))
            y[labels, np.arange(n)] = 1.0
            mu = float(rng.uniform(0, 2))
            b_old = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(k, n)))
            b_new = update_codes(u, c, y, mu)
            before = mu * intra_loss(b_old, c, y) + quant_loss(b_old, u)
            after = mu * intra_loss(b_new, c, y) + quant_loss(b_new, u)
            assert after <= before + 1e-12


class TestLossCurves:
    def test_origin_row(self):
        rows = loss_curve_rows([0.0], d_min=-8, d_max=8, points=161)
        at_zero = [r for r in rows if r[0] == 0.0]
        assert len(at_zero) == 1
        _, _, ls, ld = at_zero[0]
        assert ls == pytest.approx(np.log(2), abs=1e-15)
        assert ld == pytest.approx(np.log(2), abs=1e-15)

    def test_symmetry_exact_on_grid(self):
        rows = loss_curve_rows([0.0, 1.0, 2.0])
        by_m = {}
        for d, m, ls, ld in rows:
            by_m.setdefault(m, {})[d] = (ls, ld)
        for m, table in by_m.items():
            for d, (ls, ld) in table.items():
                assert -d in table
                assert ls == table[-d][1]

    def test_margin_dominance_pointwise(self):
        rows = loss_curve_rows([0.0, 2.0])
        zeros = [r for r in rows if r[1] == 0.0]
        twos = [r for r in rows if r[1] == 2.0]
        for (d0, _, ls0, ld0), (d2, _, ls2, ld2) in zip(zeros, twos):
            assert d0 == d2
            assert ls2 > ls0 and ld2 > ld0

    def test_csv_file(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_loss_curves(path, [0.0, 1.0], points=21)
        lines = path.read_text().splitlines()
        assert lines[0] == "D,m,loss_similar,loss_dissimilar"
        assert len(lines) == 1 + 2 * 21


class TestTrain:
    def dataset(self, seed=0):
        return make_synthetic(2, 30, 4, 6.0, seed=seed, query_fraction=0.2)

    def spec(self, ds, bits=2, seed=1):
        return EncoderSpec(input_dim=ds.input_dim, output_dim=bits,
                           hidden_layers=((8, "relu"),), seed=seed)

    def test_report_has_one_record_per_epoch(self):
        ds = self.dataset()
        hp = tiny_hp(epochs=3)
        report = train(ds, hp, self.spec(ds))
        assert len(report.records) == 3
        assert [r.epoch for r in report.records] == [0, 1, 2]
        for r in report.records:
            for v in (r.code_pair_loss, r.intra_loss, r.inter_loss, r.quant_loss):
                assert np.isfinite(v)
        # The continuous pair loss and the total are the last record's only.
        assert all(r.pair_loss is None and r.total is None for r in report.records[:-1])
        assert np.isfinite(report.records[-1].pair_loss) and np.isfinite(report.records[-1].total)

    @pytest.mark.parametrize("epochs, calls", [(0, 0), (1, 1), (3, 1)])
    def test_continuous_pair_loss_runs_once_per_run(self, monkeypatch, epochs, calls):
        seen = []

        def spy(*args, **kwargs):
            seen.append(args)
            return pair_loss_full(*args, **kwargs)

        monkeypatch.setattr(training, "pair_loss_full", spy)
        ds = self.dataset()
        train(ds, tiny_hp(epochs=epochs), self.spec(ds))
        assert len(seen) == calls

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_labels_checked_and_summed_once_per_run(self, monkeypatch, epochs):
        # Every center descent of a run reads one Y Y^T; Y is checked by
        # train and by init_centers only, however many descents there are.
        checks, grams = [], []

        def check_spy(y):
            checks.append(y.shape)
            return check_label_matrix(y)

        def descent_spy(*args):
            grams.append(args[-1])
            return update_centers(*args)

        monkeypatch.setattr(centers_mod, "check_label_matrix", check_spy)
        monkeypatch.setattr(training, "update_centers", descent_spy)
        ds = self.dataset()
        hp = tiny_hp(epochs=epochs)
        train(ds, hp, self.spec(ds))
        assert len(checks) == 2
        assert len(grams) == epochs * hp.center_rounds
        y = ds.y_matrix(ds.split("train"))
        assert all(g is grams[0] for g in grams)
        np.testing.assert_array_equal(grams[0], y @ y.T)

    def test_minibatch_sign_matrices_are_c_ordered_meet_table_rows(self, monkeypatch):
        # Multi-label sets, some meeting without being equal, and a ragged last batch.
        rng = np.random.default_rng(6)
        n, classes = 45, 4
        label_sets = [rng.choice(classes, size=rng.integers(1, 3), replace=False).tolist()
                      for _ in range(n)]
        ds = Dataset("multi", rng.normal(size=(3, n)), label_sets, classes,
                     splits={"train": np.arange(n)})
        hp = tiny_hp(epochs=3, batch_size=16)
        seen = []

        def spy(u, b, s, hp_):
            seen.append((s.copy(), s.flags.c_contiguous))
            return continuous_step_gradient(u, b, s, hp_)

        monkeypatch.setattr(training, "continuous_step_gradient", spy)
        train(ds, hp, self.spec(ds))
        # train draws each epoch's batch order from default_rng(hp.seed).
        sets, set_of = distinct_label_sets(ds.label_sets)
        meet = relevance_matrix(sets, sets, classes)
        order = np.random.default_rng(hp.seed)
        want = []
        for _ in range(hp.epochs):
            perm = order.permutation(n)
            for start in range(0, n, hp.batch_size):
                g = set_of[perm[start:start + hp.batch_size]]
                s = np.where(meet[np.ix_(g, g)], 1.0, -1.0)
                np.fill_diagonal(s, 0.0)
                want.append(s)
        assert len(seen) == len(want) == 9
        for (got, c_ordered), s in zip(seen, want):
            assert c_ordered
            np.testing.assert_array_equal(got, s)
            assert not np.signbit(got).any(where=got == 0)
        assert any((s == 1).any() and (s == -1).any() for s in want)

    def test_minibatch_step_builds_no_pair_api_inputs(self):
        # The step reads train's sign matrix as it is: no minibatch builds
        # or checks a sign matrix, or makes a MarginParams.
        ds = self.dataset()
        with mock.patch.object(pairwise, "sign_matrix", wraps=sign_matrix) as signs, \
                mock.patch.object(MarginParams, "__post_init__", autospec=True,
                                  side_effect=MarginParams.__post_init__) as params:
            report = train(ds, tiny_hp(epochs=2), self.spec(ds))
        assert len(report.records) == 2
        assert (signs.call_count, params.call_count) == (0, 0)

    def test_zero_epochs_gives_untrained_sign_codes(self, tmp_path):
        ds = self.dataset()
        hp = tiny_hp(epochs=0)
        spec = self.spec(ds)
        report = train(ds, hp, spec, out_dir=tmp_path)
        assert report.records == []
        codes = BinaryCodeMatrix.load(tmp_path / "codes.fhsh")
        state = load_checkpoint(tmp_path / "encoder.fhnn")
        u, _ = forward(state, ds.features[:, ds.split("train")])
        assert codes == BinaryCodeMatrix.from_values(u)

    def test_deterministic_given_seed(self):
        ds = self.dataset()
        hp = tiny_hp(epochs=2)
        r1 = train(ds, hp, self.spec(ds))
        r2 = train(ds, hp, self.spec(ds))
        assert r1.as_dict() == r2.as_dict()
        assert r1.train_map == r2.train_map

    def test_two_blob_training_reaches_perfect_map(self):
        ds = self.dataset(seed=4)
        hp = tiny_hp(epochs=12, lr=0.05, mu=4.0, nu=8.0, eta=0.2,
                     center_inner_lr=0.02, center_inner_steps=60)
        report = train(ds, hp, self.spec(ds))
        assert report.train_map >= 0.99

    def test_artifacts_written_and_objective_reproducible(self, tmp_path):
        ds = self.dataset(seed=2)
        hp = tiny_hp(epochs=2)
        report = train(ds, hp, self.spec(ds), out_dir=tmp_path, config_hash="deadbeef")
        for name in ("encoder.fhnn", "codes.fhsh", "centers.fhsh", "centers.v.f64",
                     "report.json", "report.csv", "timing.json"):
            assert (tmp_path / name).exists(), name
        # the relaxed-center sidecar quantizes back to the saved centers
        from fisherhash.centers import sign_plus
        v = np.fromfile(tmp_path / "centers.v.f64", "<f8").reshape(2, 2).T
        cents = BinaryCodeMatrix.load(tmp_path / "centers.fhsh")
        np.testing.assert_array_equal(sign_plus(v), cents.dense(np.float64))
        # recompute the final-epoch components offline from artifacts
        state = load_checkpoint(tmp_path / "encoder.fhnn")
        codes = BinaryCodeMatrix.load(tmp_path / "codes.fhsh")
        cents = BinaryCodeMatrix.load(tmp_path / "centers.fhsh")
        train_idx = ds.split("train")
        u, _ = forward(state, ds.features[:, train_idx])
        pairs = PairSets.all_pairs_from_label_sets(ds.subset_labels(train_idx))
        y = ds.y_matrix(train_idx)
        pair = pair_objective(u, codes, pairs, MarginParams(m=hp.margin, psi=0.0))
        intra = intra_loss(codes, cents, y)
        inter = inter_loss(cents, target_matrix(hp.bits, y.shape[0]))
        quant = quant_loss(codes, u)
        last = report.records[-1]
        assert last.pair_loss == pytest.approx(pair, abs=1e-9)
        assert last.intra_loss == pytest.approx(intra, abs=1e-9)
        assert last.inter_loss == pytest.approx(inter, abs=1e-9)
        assert last.quant_loss == pytest.approx(quant, abs=1e-9)
        assert last.total == pytest.approx(hp.weighted_total(pair, intra, inter, quant), abs=1e-9)

    @pytest.mark.parametrize("knob, artifact", [
        ({"momentum": 0.9}, "encoder.fhnn"),
        ({"weight_decay": 0.05}, "encoder.fhnn"),
        ({"center_rounds": 3}, "centers.v.f64"),
        ({"center_inner_steps": 20}, "centers.v.f64"),
        ({"center_inner_lr": 0.05}, "centers.v.f64"),
        ({"eta": 0.1}, "centers.v.f64"),
    ], ids=["momentum", "weight-decay", "center-rounds", "center-inner-steps", "center-inner-lr", "eta"])
    def test_sgd_knob_changes_the_checkpoint_reproducibly(self, tmp_path, knob, artifact):
        # The SGD knobs move the encoder; the center schedule and eta move
        # the relaxed centers.
        ds = self.dataset()

        def checkpoint(run, **overrides):
            train(ds, tiny_hp(**overrides), self.spec(ds), out_dir=tmp_path / run)
            return (tmp_path / run / artifact).read_bytes()

        first = checkpoint("first", **knob)
        assert checkpoint("again", **knob) == first
        assert checkpoint("default") != first

    def test_encoder_dataset_shape_mismatch_rejected(self):
        ds = self.dataset()
        bad_spec = EncoderSpec(input_dim=ds.input_dim + 1, output_dim=2)
        with pytest.raises(ValueError, match="input_dim"):
            train(ds, tiny_hp(), bad_spec)
        bad_bits = EncoderSpec(input_dim=ds.input_dim, output_dim=3)
        with pytest.raises(ValueError, match="bits"):
            train(ds, tiny_hp(), bad_bits)
