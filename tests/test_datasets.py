import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fisherhash.datasets import (
    Dataset,
    DatasetManifest,
    label_matrix,
    load_dataset,
    load_features,
    load_labels,
    load_manifest,
    make_synthetic,
    save_manifest,
    write_features,
    write_labels,
)
from fisherhash.exceptions import DataError

from oracles import reference_decode_features, reference_load_labels


class TestFeatureFile:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(17, 40)).astype(np.float32)
        path = tmp_path / "x.fhft"
        write_features(path, x)
        got = load_features(path)
        np.testing.assert_array_equal(got, x.astype(np.float64))

    def test_truncated_file_names_byte_counts(self, tmp_path):
        path = tmp_path / "x.fhft"
        write_features(path, np.ones((4, 10), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-6])
        with pytest.raises(DataError, match="expected 160 payload bytes, got 154"):
            load_features(path)

    def test_header_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.fhft"
        write_features(path, np.ones((4, 3), dtype=np.float32))
        with pytest.raises(DataError, match="header dim 4 != manifest dim 5"):
            load_features(path, expected_dim=5)

    def test_nan_rejected(self, tmp_path):
        x = np.ones((2, 3), dtype=np.float32)
        x[1, 2] = np.nan
        path = tmp_path / "x.fhft"
        write_features(path, x)
        with pytest.raises(DataError, match="non-finite"):
            load_features(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.fhft"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(DataError, match="not a feature file"):
            load_features(path)



def fhft_bytes(x):
    """The bytes `write_features` writes for a dim x N float32 table."""
    return b"FHFT" + struct.pack("<3I", 1, *x.shape) + x.T.astype("<f4").tobytes()


@st.composite
def feature_tables(draw):
    """1 to 4 dims, 1 to 5 items, float32 values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(draw(st.integers(1, 4)), draw(st.integers(1, 5)))).astype(np.float32)


class TestFeatureLoaderFuzz:
    """Damaged FHFT files load as the table they describe or raise DataError."""

    @staticmethod
    def load_or_data_error(path, data):
        path.write_bytes(data)
        try:
            return load_features(path)
        except DataError:
            return None

    def assert_loads_as_described(self, path, data):
        loaded = self.load_or_data_error(path, data)
        want = reference_decode_features(data)
        if want is None:
            assert loaded is None
        else:
            assert np.array_equal(loaded, want)

    @given(feature_tables())
    @settings(max_examples=30, deadline=None)
    def test_truncation_at_every_length(self, tmp_path_factory, x):
        data = fhft_bytes(x)
        path = tmp_path_factory.mktemp("fhft") / "t.fhft"
        write_features(path, x)
        assert path.read_bytes() == data
        assert np.array_equal(self.load_or_data_error(path, data), x)
        for length in range(len(data)):
            assert self.load_or_data_error(path, data[:length]) is None, length

    @given(feature_tables(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_byte_flip(self, tmp_path_factory, x, data):
        flipped = bytearray(fhft_bytes(x))
        flipped[data.draw(st.integers(0, len(flipped) - 1))] ^= data.draw(st.integers(1, 255))
        self.assert_loads_as_described(tmp_path_factory.mktemp("fhft") / "f.fhft", bytes(flipped))

    @given(feature_tables(), st.sampled_from(["version", "dim", "N"]),
           st.sampled_from([0, 1, 2**32 - 1]))
    @settings(max_examples=60, deadline=None)
    def test_header_field_set_to_an_extreme(self, tmp_path_factory, x, field, value):
        raw = fhft_bytes(x)
        at = 4 + 4 * ["version", "dim", "N"].index(field)
        data = raw[:at] + value.to_bytes(4, "little") + raw[at + 4:]
        self.assert_loads_as_described(tmp_path_factory.mktemp("fhft") / "h.fhft", data)

    @pytest.mark.parametrize("dim, n", [(2**32 - 1, 1), (4, 2**32 - 1), (2**32 - 1, 2**32 - 1)])
    def test_claimed_sizes_are_checked_before_allocating(self, tmp_path, dim, n):
        path = tmp_path / "huge.fhft"
        path.write_bytes(b"FHFT" + struct.pack("<3I", 1, dim, n) + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="expected"):
                load_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestLabelFile:
    def test_single_label_one_hot(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels(path, [frozenset({2}), frozenset({0})])
        sets = load_labels(path, num_classes=3, n_items=2)
        y = label_matrix(sets, 3)
        np.testing.assert_array_equal(y, [[0, 1], [0, 0], [1, 0]])
        assert sets == [frozenset({2}), frozenset({0})]

    def test_multi_label_half_weights(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels(path, [frozenset({2, 5})])
        y = label_matrix(load_labels(path, num_classes=8, n_items=1), 8)
        assert y[2, 0] == 0.5 and y[5, 0] == 0.5
        assert y[:, 0].sum() == 1.0

    def test_column_sums_are_one(self, tmp_path):
        rng = np.random.default_rng(3)
        sets = [frozenset(rng.choice(10, size=rng.integers(1, 4), replace=False).tolist())
                for _ in range(50)]
        path = tmp_path / "labels.txt"
        write_labels(path, sets)
        y = label_matrix(load_labels(path, num_classes=10, n_items=50), 10)
        np.testing.assert_allclose(y.sum(axis=0), 1.0, atol=1e-9)

    def test_empty_label_row_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0: 1\n1:\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty label row"):
            load_labels(path, num_classes=3, n_items=2)

    def test_class_id_out_of_range(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0: 7\n", encoding="utf-8")
        with pytest.raises(DataError, match="out of range"):
            load_labels(path, num_classes=3, n_items=1)

    def test_missing_item_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0: 1\n", encoding="utf-8")
        with pytest.raises(DataError, match="no labels for item 1"):
            load_labels(path, num_classes=3, n_items=2)

    def test_equal_texts_share_one_set(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0: 1 2\n1: 2 1\n2: 1 2\n", encoding="utf-8")
        sets = load_labels(path, num_classes=3, n_items=3)
        assert sets == [frozenset({1, 2})] * 3
        assert sets[0] is sets[2]

    def test_first_item_with_out_of_range_class_is_named(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("2: 0 5\n0: 1\n1: 4 0\n", encoding="utf-8")
        with pytest.raises(DataError, match="item 1: class id 4 out of range for M=3"):
            load_labels(path, num_classes=3, n_items=3)


# Label texts that repeat across lines, with equal sets written in other
# orders, spacings and integer spellings; the last three are bad.
LABEL_TEXTS = ["0", "1", "2", "0 1", "1 0", " 2  1 ", "+1", "01", "1 1", "7", "-1", "x"]


@st.composite
def label_file_bytes(draw):
    """A label file built from repeated texts, with blank and
    whitespace-only lines and LF, CRLF or CR line ends, then maybe
    damaged: lines repeated or dropped, bytes flipped, the end cut off."""
    n_items = draw(st.integers(1, 12))
    texts = st.sampled_from(LABEL_TEXTS[:-3] * 6 + LABEL_TEXTS[-3:])
    lines = draw(st.permutations([f"{i}:{draw(texts)}" for i in range(n_items)]))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t", " \x0b "])))
    damage = draw(st.sets(st.sampled_from(["repeat", "drop", "flip", "cut"]), max_size=2))
    if "repeat" in damage:
        lines.append(draw(st.sampled_from(lines)))
    if "drop" in damage:
        del lines[draw(st.integers(0, len(lines) - 1))]
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = bytearray("".join(line + ending for line in lines).encode("utf-8"))
    if "flip" in damage and data:
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    if "cut" in damage:
        data = data[:draw(st.integers(0, len(data)))]
    return bytes(data), n_items, draw(st.sampled_from([1, 3, 8, 8]))


class TestLabelParserAgainstOracle:
    @given(label_file_bytes())
    # A bad line, then an incomplete UTF-8 sequence at the end of the file.
    @example((b"  \n" + b"".join(b"%d:0\n" % i for i in range(11)) + b"11:x\n  \xc2", 12, 1))
    @settings(max_examples=500, deadline=None)
    def test_same_sets_or_a_data_error(self, tmp_path_factory, case):
        data, n_items, num_classes = case
        path = tmp_path_factory.mktemp("labels") / "labels.txt"
        path.write_bytes(data)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            # Undecodable bytes are reported before any bad line: the
            # oracle reads line by line, so only decodable files go to it.
            with pytest.raises(DataError, match="not UTF-8 text"):
                load_labels(path, num_classes, n_items)
            return
        try:
            _, want = reference_load_labels(path, num_classes, n_items)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                load_labels(path, num_classes, n_items)
            assert str(got.value) == str(exc)
            return
        assert load_labels(path, num_classes, n_items) == want


class TestLabelMatrixAndSimilarity:
    def test_label_matrix_rejects_empty(self):
        with pytest.raises(DataError, match="no labels"):
            label_matrix([frozenset()], 3)


class TestDatasetValidation:
    def test_query_train_overlap_rejected(self):
        with pytest.raises(DataError, match="disjoint"):
            Dataset(
                name="d",
                features=np.ones((2, 4)),
                label_sets=[{0}] * 4,
                num_classes=1,
                splits={"train": [0, 1], "query": [1, 2]},
            )

    def test_out_of_range_split_rejected(self):
        with pytest.raises(DataError, match="out-of-range"):
            Dataset(
                name="d",
                features=np.ones((2, 4)),
                label_sets=[{0}] * 4,
                num_classes=1,
                splits={"train": [0, 9]},
            )


class TestManifestRoundtrip:
    def test_save_load_and_dataset(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 12)).astype(np.float32)
        write_features(tmp_path / "x.fhft", x)
        sets = [frozenset({int(i % 3)}) for i in range(12)]
        write_labels(tmp_path / "labels.txt", sets)
        manifest = DatasetManifest(
            name="toy",
            feature_path="x.fhft",
            label_path="labels.txt",
            input_dim=6,
            n_items=12,
            num_classes=3,
            splits={"train": list(range(9)), "query": [9, 10, 11], "database": list(range(9))},
        )
        save_manifest(manifest, tmp_path / "manifest.json")
        loaded = load_manifest(tmp_path / "manifest.json")
        ds = load_dataset(loaded, base_dir=tmp_path)
        assert ds.n_items == 12 and ds.input_dim == 6
        np.testing.assert_array_equal(ds.features, x.astype(np.float64))
        assert ds.label_sets == sets
        assert ds.split("query").tolist() == [9, 10, 11]

    def test_missing_file_named_in_error(self, tmp_path):
        manifest = DatasetManifest(
            name="gone", feature_path="nope.fhft", label_path="l.txt",
            input_dim=2, n_items=2, num_classes=1,
        )
        with pytest.raises(DataError, match="nope.fhft"):
            load_dataset(manifest, base_dir=tmp_path)


class TestSynthetic:
    def test_deterministic(self):
        a = make_synthetic(3, 10, 5, 2.0, seed=42)
        b = make_synthetic(3, 10, 5, 2.0, seed=42)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.label_sets == b.label_sets

    def test_zero_separation_collapses_means(self):
        ds = make_synthetic(4, 200, 8, 0.0, seed=1)
        means = np.stack(
            [ds.features[:, [c in s for s in ds.label_sets]].mean(axis=1) for c in range(4)]
        )
        # class means concentrate near the origin: O(1/sqrt(200)) noise
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
        assert dists.max() < 0.5

    def test_two_classes_linearly_separable_at_large_separation(self):
        ds = make_synthetic(2, 150, 16, 10.0, seed=7)
        targets = np.array([1.0 if 0 in s else -1.0 for s in ds.label_sets])
        x = np.vstack([ds.features, np.ones(ds.n_items)])
        coef, *_ = np.linalg.lstsq(x.T, targets, rcond=None)
        accuracy = ((x.T @ coef > 0) == (targets > 0)).mean()
        assert accuracy >= 0.99

    def test_splits_partition_each_class(self):
        ds = make_synthetic(3, 20, 4, 1.0, seed=0, query_fraction=0.25)
        q, tr = ds.split("query"), ds.split("train")
        assert len(q) == 15 and len(tr) == 45
        assert set(q.tolist()) & set(tr.tolist()) == set()
        assert sorted([*q.tolist(), *tr.tolist()]) == list(range(60))
