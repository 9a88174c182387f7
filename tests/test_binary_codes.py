import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fisherhash.binary_codes import (
    BinaryCodeMatrix,
    code_patterns,
    dissimilarity,
    hamming_cross,
    hamming_distance,
    pack,
    unpack,
)
from fisherhash.exceptions import DataError

from oracles import reference_decode_codes


def codes_from_signs(signs):
    return BinaryCodeMatrix.from_signs(np.asarray(signs))


class TestPack:
    def test_sign_of_each_entry(self):
        assert list(unpack(pack([0.3, -2.5]))) == [1, -1]

    def test_zero_maps_to_plus_one(self):
        assert list(unpack(pack([0.0]))) == [1]

    def test_mixed_small_values(self):
        assert list(unpack(pack([-0.0001, 0.0001, 5.0]))) == [-1, 1, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            pack([1.0, bad, 2.0])

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            pack(np.zeros((2, 2)))


class TestRoundTrip:
    @given(
        st.integers(min_value=1, max_value=130),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_unpack_identity(self, k, seed):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1, 1], size=k)
        code = pack(signs.astype(float))
        assert np.array_equal(unpack(code), signs)
        assert pack(unpack(code).astype(float)) == code

    def test_matrix_dense_roundtrip(self):
        rng = np.random.default_rng(7)
        signs = rng.choice([-1, 1], size=(37, 11))
        codes = codes_from_signs(signs)
        assert np.array_equal(codes.dense(), signs)
        assert codes.column(4) == codes_from_signs(signs[:, 4])

    @pytest.mark.parametrize("k", [1, 37, 64, 65, 130])
    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_dense_keeps_values_dtype_and_f_order(self, k, dtype):
        # Products with the dense codes read them in this layout; another
        # layout gives equal values but can change the products' last bits.
        signs = np.random.default_rng(k).choice([-1, 1], size=(k, 50))
        got = codes_from_signs(signs).dense(dtype)
        assert got.dtype == dtype and got.flags.f_contiguous and np.array_equal(got, signs)


class TestHammingDistance:
    def test_identical_codes(self):
        a = pack(np.ones(12))
        assert hamming_distance(a, a) == 0

    def test_complementary_codes(self):
        a = pack(np.ones(12))
        b = pack(-np.ones(12))
        assert hamming_distance(a, b) == 12

    def test_hand_counted(self):
        a = codes_from_signs([1, 1, -1, -1])
        b = codes_from_signs([1, -1, -1, 1])
        assert hamming_distance(a, b) == 2

    def test_mismatched_k_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            hamming_distance(pack(np.ones(4)), pack(np.ones(5)))

    @pytest.mark.parametrize("k", [1, 12, 64, 100])
    def test_identities_vs_inner_product_and_euclidean(self, k):
        rng = np.random.default_rng(k)
        for _ in range(250):
            a = rng.choice([-1, 1], size=k)
            b = rng.choice([-1, 1], size=k)
            d = hamming_distance(codes_from_signs(a), codes_from_signs(b))
            assert 2 * d == k - int(a @ b)
            assert 4 * d == int(((a - b) ** 2).sum())


class TestDissimilarity:
    def test_equal_binary_columns(self):
        a = pack(np.ones(12))
        assert dissimilarity(a, a) == -6.0

    def test_half_bits_differ(self):
        a = codes_from_signs([1, 1, 1, 1, -1, -1, -1, -1])
        b = codes_from_signs([1, 1, -1, -1, 1, 1, -1, -1])
        assert hamming_distance(a, b) == 4
        assert dissimilarity(a, b) == 0.0

    def test_real_columns(self):
        assert dissimilarity(np.array([1.0, 2.0]), np.array([-1.0, 0.5])) == 0.0

    def test_symmetric_and_monotone_in_distance(self):
        rng = np.random.default_rng(3)
        k = 16
        base = codes_from_signs(rng.choice([-1, 1], size=k))
        prev = dissimilarity(base, base)
        signs = base.dense()[:, 0].astype(float)
        for flip in range(k):
            signs[flip] *= -1
            other = pack(signs)
            cur = dissimilarity(base, other)
            assert dissimilarity(other, base) == cur
            assert cur > prev
            prev = cur

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            dissimilarity(np.ones(3), np.ones(4))


class TestInnerProductMatrix:
    """<a_i, b_j> = K - 2 * hamming_cross, equal to the unpacked integer product."""

    def test_all_plus_ones(self):
        a = pack(np.ones(16))
        assert (16 - 2 * hamming_cross(a, a).astype(np.int64)).tolist() == [[16]]

    def test_negated_column(self):
        # 200 bits: distances come back as uint8, and K - 2 * 200 must
        # not wrap.
        for k in (5, 200):
            a = pack(np.ones(k))
            b = pack(-np.ones(k))
            assert (k - 2 * hamming_cross(a, b).astype(np.int64)).tolist() == [[-k]]

    def test_packed_matches_unpacked_oracle(self):
        rng = np.random.default_rng(42)
        k = 37
        for _ in range(100):
            a = rng.choice([-1, 1], size=(k, 3))
            b = rng.choice([-1, 1], size=(k, 4))
            got = k - 2 * hamming_cross(codes_from_signs(a), codes_from_signs(b)).astype(np.int64)
            want = a.T @ b
            assert np.array_equal(got, want)

    def test_mismatched_k_rejected(self):
        with pytest.raises(ValueError):
            hamming_cross(pack(np.ones(4)), pack(np.ones(6)))


class TestPaddingAndFileFormat:
    def test_padding_bits_are_plus_one(self):
        # K=5 leaves 59 padding bits; the canonical +1 fill means the
        # lone word of an all +1 column is all ones.
        code = pack(np.ones(5))
        assert code.words[0, 0] == np.uint64(0xFFFFFFFFFFFFFFFF)

    def test_padding_does_not_leak_into_distances(self):
        a = pack(np.ones(5))
        b = pack(-np.ones(5))
        assert hamming_distance(a, b) == 5

    def test_bit_layout_golden_bytes(self, tmp_path):
        # Entry j of word w is bit j (LSB first); +1 <-> bit value 1.
        code = codes_from_signs([1, -1, 1, 1, -1])
        path = tmp_path / "one.fhsh"
        code.save(path)
        raw = path.read_bytes()
        assert raw[:4] == b"FHSH"
        version, k, n = np.frombuffer(raw[4:16], dtype="<u4")
        assert (version, k, n) == (1, 5, 1)
        word = int.from_bytes(raw[16:24], "little")
        assert word & 0b11111 == 0b01101
        assert word >> 5 == (1 << 59) - 1  # +1 padding

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        codes = codes_from_signs(rng.choice([-1, 1], size=(100, 23)))
        path = tmp_path / "table.fhsh"
        codes.save(path)
        assert BinaryCodeMatrix.load(path) == codes

    def test_load_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fhsh"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(DataError, match="magic"):
            BinaryCodeMatrix.load(path)

    def test_load_rejects_truncated_payload(self, tmp_path):
        codes = codes_from_signs(np.ones((65, 4)))
        path = tmp_path / "trunc.fhsh"
        codes.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DataError, match="expected .* bytes"):
            BinaryCodeMatrix.load(path)

    def test_foreign_zero_padding_is_normalized(self, tmp_path):
        # A table written with zeroed padding bits must behave exactly
        # like the canonical +1-padded encoding.
        header = b"FHSH" + np.array([1, 5, 1], dtype="<u4").tobytes()
        word = np.uint64(0b01101)  # entries [+,-,+,+,-], padding zeroed
        path = tmp_path / "foreign.fhsh"
        path.write_bytes(header + word.tobytes())
        loaded = BinaryCodeMatrix.load(path)
        canonical = codes_from_signs([1, -1, 1, 1, -1])
        assert loaded == canonical
        assert hamming_distance(loaded, canonical) == 0


def fhsh_bytes(table):
    """The bytes `BinaryCodeMatrix.save` writes for a table."""
    header = b"FHSH" + np.array([1, table.K, table.n], dtype="<u4").tobytes()
    return header + table.words.astype("<u8").tobytes()


@st.composite
def code_tables(draw):
    """One or two words per item, 1 to 5 items."""
    k = draw(st.sampled_from([1, 5, 63, 64, 65, 128]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return codes_from_signs(rng.choice([-1, 1], size=(k, draw(st.integers(1, 5)))))


class TestLoaderFuzz:
    """Damaged FHSH files load as the table they describe or raise DataError."""

    @staticmethod
    def load_or_data_error(path, data):
        path.write_bytes(data)
        try:
            return BinaryCodeMatrix.load(path)
        except DataError:
            return None

    def assert_loads_as_described(self, path, data):
        loaded = self.load_or_data_error(path, data)
        want = reference_decode_codes(data)
        if want is None:
            assert loaded is None
        else:
            assert loaded.K == want.shape[0] and np.array_equal(loaded.dense(), want)

    @given(code_tables())
    @settings(max_examples=30, deadline=None)
    def test_truncation_at_every_length(self, tmp_path_factory, table):
        data = fhsh_bytes(table)
        path = tmp_path_factory.mktemp("fhsh") / "t.fhsh"
        assert self.load_or_data_error(path, data) == table
        for length in range(len(data)):
            assert self.load_or_data_error(path, data[:length]) is None, length

    @given(code_tables(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_single_byte_flip(self, tmp_path_factory, table, data):
        flipped = bytearray(fhsh_bytes(table))
        flipped[data.draw(st.integers(0, len(flipped) - 1))] ^= data.draw(st.integers(1, 255))
        self.assert_loads_as_described(tmp_path_factory.mktemp("fhsh") / "f.fhsh", bytes(flipped))

    @given(code_tables(), st.sampled_from(["version", "K", "N"]),
           st.sampled_from([0, 1, 2**32 - 1]))
    @example(codes_from_signs(np.ones((5, 2))), "K", 0)
    @example(codes_from_signs(np.ones((5, 2))), "N", 0)
    @settings(max_examples=60, deadline=None)
    def test_header_field_set_to_an_extreme(self, tmp_path_factory, table, field, value):
        raw = fhsh_bytes(table)
        at = 4 + 4 * ["version", "K", "N"].index(field)
        data = raw[:at] + value.to_bytes(4, "little") + raw[at + 4:]
        self.assert_loads_as_described(tmp_path_factory.mktemp("fhsh") / "h.fhsh", data)

    @pytest.mark.parametrize("k, n", [(2**32 - 1, 1), (64, 2**32 - 1), (2**32 - 1, 2**32 - 1)])
    def test_claimed_sizes_are_checked_before_allocating(self, tmp_path, k, n):
        path = tmp_path / "huge.fhsh"
        path.write_bytes(b"FHSH" + np.array([1, k, n], dtype="<u4").tobytes() + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="expected"):
                BinaryCodeMatrix.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestGroups:
    @pytest.mark.parametrize("k", [5, 64, 130])
    def test_matches_np_unique(self, k):
        rng = np.random.default_rng(k)
        protos = rng.choice([-1, 1], size=(k, 9))
        signs = protos[:, rng.integers(0, 9, size=200)]
        signs[:, ::17] = rng.choice([-1, 1], size=signs[:, ::17].shape)
        m = BinaryCodeMatrix.from_signs(signs)
        codes, inverse, counts = np.unique(
            m.words, axis=0, return_inverse=True, return_counts=True)
        g = m.groups()
        assert np.array_equal(g.codes.words, codes) and g.codes.K == k
        assert np.array_equal(g.code_of, inverse.ravel())
        assert np.array_equal(g.counts, counts)
        assert np.array_equal(g.starts, np.cumsum(counts) - counts)
        for c in range(codes.shape[0]):
            members = g.items[g.starts[c]:g.starts[c] + g.counts[c]]
            assert np.array_equal(members, np.flatnonzero(inverse.ravel() == c))

    def test_cached_per_table(self):
        m = BinaryCodeMatrix.from_signs(np.array([[1, -1, 1], [1, 1, 1]]))
        assert m.groups() is m.groups()
        sub = m.take([2, 1])
        assert sub.groups() is not m.groups()
        assert sub.groups().code_of.tolist() == [1, 0]
        assert m.column(1).groups().counts.tolist() == [1]


class TestCodePatterns:
    @pytest.mark.parametrize("k, n, n_codes", [
        (1, 60, 2), (64, 300, 7), (65, 300, 7), (12, 1, 1), (64, 40, 1),
    ])
    def test_matches_counter(self, k, n, n_codes):
        # n_codes = 1 with n > 1 is a table that is all one code.
        rng = np.random.default_rng(k + n)
        protos = rng.choice([-1, 1], size=(k, n_codes))
        b = BinaryCodeMatrix.from_signs(protos[:, rng.integers(0, n_codes, n)])
        set_of = rng.integers(0, 5, n)
        code, label_set, counts, _, _ = code_patterns(b, set_of)
        words = b.groups().codes.take(code).words
        got = {(w.tobytes(), s): c for w, s, c in zip(words, label_set.tolist(), counts.tolist())}
        assert len(got) == len(code)
        assert got == Counter(zip((w.tobytes() for w in b.words), set_of.tolist()))
        assert counts.sum() == n
        assert np.array_equal(np.lexsort((label_set, code)), np.arange(len(code)))

    @pytest.mark.parametrize("k", [1, 63, 64, 65, 130])
    def test_matches_the_row_unique_of_words_and_set_ids(self, k):
        # The oracle is metrics_report's former query grouping: np.unique
        # over the rows of (code words, set id), which orders by words
        # then set id and numbers the patterns in that order.
        rng = np.random.default_rng(k)
        for _ in range(20):
            n, n_codes = int(rng.integers(1, 200)), int(rng.integers(1, 12))
            protos = rng.choice([-1, 1], size=(k, n_codes))
            b = BinaryCodeMatrix.from_signs(protos[:, rng.integers(0, n_codes, n)])
            ids = rng.choice(30, size=int(rng.integers(1, 6)), replace=False)
            set_of = rng.choice(ids, size=n)  # set ids with gaps
            _, _, counts, first, pattern = code_patterns(b, set_of)
            _, want_first, want_pattern, want_counts = np.unique(
                np.column_stack([b.words, set_of.astype(np.uint64)]), axis=0,
                return_index=True, return_inverse=True, return_counts=True)
            assert np.array_equal(counts, want_counts)
            assert np.array_equal(first, want_first)
            assert np.array_equal(pattern, want_pattern.ravel())


class TestHammingCross:
    def test_matches_dense_oracle(self):
        # One word, a partial second word, and both sides of the
        # uint8/uint16 boundary at K = 255/256.
        rng = np.random.default_rng(5)
        for k, dtype in ((1, np.uint8), (64, np.uint8), (65, np.uint8),
                         (255, np.uint8), (256, np.uint16), (300, np.uint16)):
            a = rng.choice([-1, 1], size=(k, 9))
            b = rng.choice([-1, 1], size=(k, 13))
            b[:, 0] = -a[:, 0]  # one pair at the maximum distance K
            got = hamming_cross(codes_from_signs(a), codes_from_signs(b))
            want = (k - a.T @ b) // 2
            assert got.dtype == dtype, k
            assert np.array_equal(got, want), k
