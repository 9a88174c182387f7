import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherhash import evaluation
from fisherhash.binary_codes import BinaryCodeMatrix, hamming_cross
from fisherhash.evaluation import (
    MetricsReport,
    metrics_report,
    relevance_matrix,
    search,
    write_metrics_csv,
    write_metrics_json,
)

from oracles import (
    average_precision,
    reference_hamming_cross,
    reference_metrics_report,
    reference_search,
    reference_write_metrics_csv,
    reference_write_metrics_json,
)

# ---------------------------------------------------------------------
# Hand-computed fixture: K=4, five database items, three queries.
#
# db:   d0=[+,+,+,+] {0}   d1=[+,+,+,-] {1}   d2=[+,+,-,-] {1}
#       d3=[+,-,-,-] {0}   d4=[-,-,-,-] {2}
# q0=[+,+,+,+] {0}:  ranking 0,1,2,3,4  flags 1,0,0,1,0  (R=2)
# q1=[-,-,-,-] {2}:  ranking 4,3,2,1,0  flags 1,0,0,0,0  (R=1)
# q2=[-,+,-,+] {0,1}: dists (2,3,2,3,2) -> ranking 0,2,4,1,3,
#                     flags 1,1,0,1,1  (R=4)
# ---------------------------------------------------------------------

DB_SIGNS = np.array([
    [1, 1, 1, 1, -1],
    [1, 1, 1, -1, -1],
    [1, 1, -1, -1, -1],
    [1, -1, -1, -1, -1],
])
Q_SIGNS = np.array([
    [1, -1, -1],
    [1, -1, 1],
    [1, -1, -1],
    [1, -1, 1],
])
DB_LABELS = [frozenset({0}), frozenset({1}), frozenset({1}), frozenset({0}), frozenset({2})]
Q_LABELS = [frozenset({0}), frozenset({2}), frozenset({0, 1})]

# Worked by hand from the rankings above.
EXPECTED_MAP = {1: 1.0, 2: 2.5 / 3, 5: (0.75 + 1.0 + 0.8875) / 3}
EXPECTED_P_AT_N = [1.0, 2 / 3, 4 / 9, 0.5, 7 / 15]
EXPECTED_R_AT_N = [7 / 12, 2 / 3, 2 / 3, 11 / 12, 1.0]
EXPECTED_PR_PRECISION = [1.0, 0.5, 4 / 9, 1.55 / 3, 7 / 15]
EXPECTED_PR_RECALL = [0.5, 0.5, 2 / 3, 1.0, 1.0]


@pytest.fixture
def fixture_tables():
    return BinaryCodeMatrix.from_signs(Q_SIGNS), BinaryCodeMatrix.from_signs(DB_SIGNS)


class TestSearch:
    def test_query_in_database_ranks_first(self):
        rng = np.random.default_rng(0)
        signs = rng.choice([-1, 1], size=(16, 30))
        db = BinaryCodeMatrix.from_signs(signs)
        q = BinaryCodeMatrix.from_signs(signs[:, 17])
        top = search(q, db, k=3)[0]
        assert top.indices[0] == 17
        assert top.distances[0] == 0

    def test_two_bit_enumeration_with_tie_break(self):
        db = BinaryCodeMatrix.from_signs(np.array([
            [1, 1, -1, -1],
            [1, -1, 1, -1],
        ]))
        q = BinaryCodeMatrix.from_signs(np.array([[1], [1]]))
        res = search(q, db, k=4)[0]
        assert res.indices.tolist() == [0, 1, 2, 3]
        assert res.distances.tolist() == [0, 1, 1, 2]

    def test_matches_unpacked_brute_force(self):
        rng = np.random.default_rng(9)
        k = 37
        db_signs = rng.choice([-1, 1], size=(k, 200))
        q_signs = rng.choice([-1, 1], size=(k, 8))
        res = search(
            BinaryCodeMatrix.from_signs(q_signs),
            BinaryCodeMatrix.from_signs(db_signs),
            k=200,
        )
        for qi in range(8):
            dists = ((db_signs != q_signs[:, qi : qi + 1]).sum(axis=0)).astype(int)
            order = np.argsort(dists, kind="stable")
            assert res[qi].indices.tolist() == order.tolist()
            assert res[qi].distances.tolist() == dists[order].tolist()

    def test_database_permutation_invariance(self):
        rng = np.random.default_rng(11)
        signs = rng.choice([-1, 1], size=(8, 50))
        q = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(8, 1)))
        perm = rng.permutation(50)
        base = search(q, BinaryCodeMatrix.from_signs(signs), k=50)[0]
        shuf = search(q, BinaryCodeMatrix.from_signs(signs[:, perm]), k=50)[0]
        assert base.distances.tolist() == shuf.distances.tolist()
        # identical item sets at every distance level
        for d in np.unique(base.distances):
            want = set(base.indices[base.distances == d].tolist())
            got = set(perm[shuf.indices[shuf.distances == d]].tolist())
            assert want == got

    def test_k_out_of_range_rejected(self):
        db = BinaryCodeMatrix.from_signs(np.ones((4, 3)))
        q = BinaryCodeMatrix.from_signs(np.ones((4, 1)))
        with pytest.raises(ValueError, match="k must be"):
            search(q, db, k=4)

    def test_small_k_shortcut_agrees_with_full_ranking(self):
        # K=6 over 3000 items guarantees heavy distance ties, so a top-k
        # cut falls inside a run of equal distances.
        rng = np.random.default_rng(12)
        db = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(6, 3000)))
        q = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(6, 5)))
        full = search(q, db, k=3000)
        for k in (1, 7, 50):
            top = search(q, db, k=k)
            for a, b in zip(top, full):
                assert a.indices.tolist() == b.indices[:k].tolist()
                assert a.distances.tolist() == b.distances[:k].tolist()

    def test_code_length_mismatch_rejected(self):
        db = BinaryCodeMatrix.from_signs(np.ones((4, 3)))
        q = BinaryCodeMatrix.from_signs(np.ones((5, 1)))
        with pytest.raises(ValueError, match="mismatch"):
            search(q, db, k=1)

    def test_results_own_their_arrays(self):
        # A view into a block's full argsort would keep that block alive
        # for as long as the caller holds the result.
        rng = np.random.default_rng(13)
        db = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(8, 300)))
        q = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(8, 4)))
        for res in search(q, db, k=5):
            assert res.indices.base is None and res.distances.base is None
            assert res.distances.dtype == np.int64


def assert_same_results(found, expected):
    """Equal queries, items and distances, dtypes included."""
    assert len(found) == len(expected)
    for a, b in zip(found, expected):
        assert a.query == b.query
        assert a.indices.dtype == b.indices.dtype and a.distances.dtype == b.distances.dtype
        assert a.indices.tobytes() == b.indices.tobytes()
        assert a.distances.tobytes() == b.distances.tobytes()


class TestCodeLevelTopK:
    """`search` picks each row from the distances to the distinct codes."""

    @staticmethod
    def tied_database():
        # 8-bit codes: N is 1 bit from `base`, A, B and C are 2 bits
        # from it and F is 5.  A, B and C are neighbours in np.unique
        # order, and their items interleave by index, so the k-th item
        # of a query at `base` is often shared by three codes.
        base = np.ones(8, dtype=int)

        def flipped(*bits):
            code = base.copy()
            code[list(bits)] *= -1
            return code

        codes = np.column_stack([flipped(7), flipped(0, 1), flipped(0, 2), flipped(1, 2),
                                 flipped(3, 4, 5, 6, 7)])
        code_of = np.random.default_rng(3).permutation(np.repeat(np.arange(5), [3, 30, 30, 30, 20]))
        db = BinaryCodeMatrix.from_signs(codes[:, code_of])
        queries = BinaryCodeMatrix.from_signs(np.column_stack([base, flipped(0), -base]))
        return db, queries, code_of

    def test_kth_distance_shared_by_interleaved_codes(self):
        db, queries, code_of = self.tied_database()
        groups = db.groups()
        tied = [groups.code_of[np.flatnonzero(code_of == c)[0]] for c in (1, 2, 3)]
        assert sorted(tied) == list(range(min(tied), min(tied) + 3))
        for a, b in [(1, 2), (2, 3), (1, 3)]:
            a_items, b_items = np.flatnonzero(code_of == a), np.flatnonzero(code_of == b)
            assert a_items.min() < b_items.max() and b_items.min() < a_items.max()
        for k in range(1, db.n + 1):
            assert_same_results(search(queries, db, k=k), reference_search(queries, db, k=k))

    @pytest.mark.parametrize("layout", ["all-distinct", "one-code", "few-codes"])
    @pytest.mark.parametrize("k", ["1", "n_db"])
    def test_k_at_the_ends(self, layout, k):
        rng = np.random.default_rng(7)
        n_db, bits = 150, 20
        signs = rng.choice([-1, 1], size=(bits, n_db))
        if layout == "one-code":
            signs[:] = signs[:, :1]
        elif layout == "few-codes":
            signs = signs[:, rng.integers(0, 4, size=n_db)]
        db = BinaryCodeMatrix.from_signs(signs)
        assert db.groups().codes.n == {"all-distinct": n_db, "one-code": 1, "few-codes": 4}[layout]
        queries = BinaryCodeMatrix.from_signs(
            np.column_stack([signs[:, :3], rng.choice([-1, 1], size=(bits, 3))]))
        k = 1 if k == "1" else n_db
        assert_same_results(search(queries, db, k=k), reference_search(queries, db, k=k))

    def test_measures_exactly_the_distinct_codes(self):
        db, queries, _ = self.tied_database()
        queries = queries.take(np.arange(10) % 3)
        measured = []

        def counting_hamming_cross(a, b):
            measured.append((a.n, b))
            return hamming_cross(a, b)

        with mock.patch.object(evaluation, "_BLOCK_ENTRIES", 3 * db.n), \
                mock.patch.object(evaluation, "hamming_cross", counting_hamming_cross):
            found = search(queries, db, k=40)
        distinct = np.unique(db.words, axis=0)
        assert [n for n, _ in measured] == [3, 3, 3, 1]
        assert all(np.array_equal(b.words, distinct) for _, b in measured)
        assert_same_results(found, reference_search(queries, db, k=40))

    def test_grouping_is_built_once_per_code_table(self, fixture_tables):
        q, db = fixture_tables
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            first = search(q, db, k=3)
            second = search(q.column(1), db, k=2)
            metrics_report(q, db, Q_LABELS, DB_LABELS, ks=[2])
            assert lexsort.call_count == 1
            search(q, db.take(range(db.n)), k=3)
            assert lexsort.call_count == 2
        assert_same_results(first, reference_search(q, db, k=3))
        assert_same_results(second, reference_search(q.column(1), db, k=2))


class TestAveragePrecision:
    def test_hand_example(self):
        assert average_precision([1, 0, 1], 2) == pytest.approx((1 + 2 / 3) / 2, abs=1e-12)

    def test_perfect_prefix(self):
        assert average_precision([1, 1, 1], 3) == 1.0

    def test_nothing_relevant(self):
        assert average_precision([0, 0, 0], 5) == 0.0

    def test_truncation_normalizes_by_retrievable(self):
        # 10 relevant overall, only 2 retrievable in a list of 2
        assert average_precision([1, 1], 10) == 1.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            average_precision([], 1)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            flags = rng.integers(0, 2, size=20)
            r = max(1, int(flags.sum()) + rng.integers(0, 5))
            assert 0.0 <= average_precision(flags, r) <= 1.0


class TestRelevanceMatrix:
    def test_share_any_label(self):
        rel = relevance_matrix(Q_LABELS, DB_LABELS, num_classes=3)
        want = np.array([
            [1, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
            [1, 1, 1, 1, 0],
        ], dtype=bool)
        np.testing.assert_array_equal(rel, want)


class TestMetricsReport:
    def test_hand_computed_fixture(self, fixture_tables):
        q, db = fixture_tables
        report = metrics_report(q, db, Q_LABELS, DB_LABELS, ks=[1, 2, 5], num_classes=3)
        for k, want in EXPECTED_MAP.items():
            assert report.map_at[k] == pytest.approx(want, abs=1e-9)
        np.testing.assert_allclose(report.top_n[:, 1], EXPECTED_P_AT_N, atol=1e-9)
        np.testing.assert_allclose(report.top_n[:, 2], EXPECTED_R_AT_N, atol=1e-9)
        np.testing.assert_allclose(report.pr_radius[:, 1], EXPECTED_PR_PRECISION, atol=1e-9)
        np.testing.assert_allclose(report.pr_radius[:, 2], EXPECTED_PR_RECALL, atol=1e-9)

    def test_self_queries_with_unique_labels(self):
        rng = np.random.default_rng(2)
        signs = rng.choice([-1, 1], size=(10, 6))
        codes = BinaryCodeMatrix.from_signs(signs)
        labels = [frozenset({i}) for i in range(6)]
        report = metrics_report(codes, codes, labels, labels, ks=[1])
        assert report.map_at[1] == 1.0

    def test_precision_at_full_depth_is_base_rate(self):
        rng = np.random.default_rng(3)
        q = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(6, 20)))
        db = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(6, 50)))
        q_labels = [frozenset({int(c)}) for c in rng.integers(0, 4, size=20)]
        db_labels = [frozenset({int(c)}) for c in rng.integers(0, 4, size=50)]
        report = metrics_report(q, db, q_labels, db_labels, ks=[1])
        rel = relevance_matrix(q_labels, db_labels, 4)
        base_rate = rel.sum() / rel.size
        assert report.top_n[-1, 1] == pytest.approx(base_rate, abs=1e-12)
        assert report.pr_radius[-1, 1] == pytest.approx(base_rate, abs=1e-12)

    def test_recall_nondecreasing_in_radius(self, fixture_tables):
        q, db = fixture_tables
        report = metrics_report(q, db, Q_LABELS, DB_LABELS, ks=[1], num_classes=3)
        assert (np.diff(report.pr_radius[:, 2]) >= 0).all()

    def test_removing_labels_never_raises_map(self):
        rng = np.random.default_rng(4)
        q = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(8, 10)))
        db = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(8, 40)))
        db_labels = [frozenset(rng.choice(5, size=2, replace=False).tolist()) for _ in range(40)]
        q_rich = [frozenset(rng.choice(5, size=2, replace=False).tolist()) for _ in range(10)]
        q_poor = [frozenset({min(s)}) for s in q_rich]
        rich = metrics_report(q, db, q_rich, db_labels, ks=[40], num_classes=5)
        poor = metrics_report(q, db, q_poor, db_labels, ks=[40], num_classes=5)
        # stricter relevance can only drop per-query AP contributions
        assert poor.map_at[40] <= rich.map_at[40] + 1e-12

    def test_zero_relevant_queries_excluded_from_map(self):
        signs = np.ones((4, 2))
        codes = BinaryCodeMatrix.from_signs(signs)
        labels_q = [frozenset({0}), frozenset({7})]
        labels_db = [frozenset({0}), frozenset({0})]
        report = metrics_report(codes, codes, labels_q, labels_db, ks=[2], num_classes=8)
        assert report.map_at[2] == 1.0

    def test_k_out_of_range_rejected(self, fixture_tables):
        q, db = fixture_tables
        with pytest.raises(ValueError, match="k must be"):
            metrics_report(q, db, Q_LABELS, DB_LABELS, ks=[6], num_classes=3)

    def test_max_n_below_one_rejected(self, fixture_tables):
        q, db = fixture_tables
        with pytest.raises(ValueError, match="max_n must be"):
            metrics_report(q, db, Q_LABELS, DB_LABELS, ks=[1], num_classes=3, max_n=0)

    @pytest.mark.parametrize("side, bad, num_classes", [
        ("query", -1, 3), ("query", 3, 3), ("database", -1, 3), ("database", 5, 3),
        ("query", -1, None),
    ], ids=["negative-query", "large-query", "negative-db", "large-db", "negative-inferred"])
    def test_class_id_out_of_range_rejected(self, fixture_tables, side, bad, num_classes):
        q, db = fixture_tables
        q_labels, db_labels = list(Q_LABELS), list(DB_LABELS)
        labels = q_labels if side == "query" else db_labels
        labels[1] = {bad}
        with pytest.raises(ValueError, match="class id"):
            metrics_report(q, db, q_labels, db_labels, ks=[1], num_classes=num_classes)


class TestMetricsOutput:
    def test_csv_and_json_outputs(self, tmp_path, fixture_tables):
        q, db = fixture_tables
        report = metrics_report(q, db, Q_LABELS, DB_LABELS, ks=[1, 5], num_classes=3,
                                config_hash="abc123")
        paths = write_metrics_csv(report, tmp_path)
        assert paths["map"].read_text().splitlines()[0] == "k,map"
        assert len(paths["prn"].read_text().splitlines()) == 1 + 5
        assert len(paths["pr"].read_text().splitlines()) == 1 + 5
        write_metrics_json(report, tmp_path / "report.json")
        text = (tmp_path / "report.json").read_text()
        assert '"config_hash": "abc123"' in text


# Floats whose text forms differ between repr, json and %.17g, or that
# sit at the ends of the double range.
EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1e-7,
               1.0, 1 / 3, 0.1, 2.5e-5, 123456789.125]


@st.composite
def metric_reports(draw):
    """Reports with edge-case floats and empty or one-row tables."""
    values = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
    finite = draw(st.booleans())
    cell = st.floats(allow_nan=False, allow_infinity=False) if finite else values

    def table(n_rows, first):
        rows = [[float(first + i), draw(cell), draw(cell)] for i in range(n_rows)]
        return np.array(rows, dtype=np.float64).reshape(n_rows, 3)

    ks = draw(st.lists(st.integers(1, 10**6), max_size=4, unique=True))
    return MetricsReport(
        map_at={k: draw(values) for k in ks},
        top_n=table(draw(st.sampled_from([0, 1, 1, 2, 7])), 1),
        pr_radius=table(draw(st.sampled_from([0, 1, 2, 65])), 0),
        n_queries=draw(st.integers(0, 10**6)),
        n_database=draw(st.integers(0, 10**6)),
        config_hash=draw(st.one_of(st.none(), st.text(alphabet="0123456789abcdef", max_size=12))),
    )


class TestWritersAgainstOracle:
    @given(metric_reports())
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_per_row_writers(self, tmp_path_factory, report):
        out = tmp_path_factory.mktemp("writers")
        want = reference_write_metrics_csv(report, out / "want")
        got = write_metrics_csv(report, out / "got")
        assert got.keys() == want.keys()
        for name in want:
            assert got[name] == out / "got" / f"{name}.csv"
            assert got[name].read_bytes() == want[name].read_bytes(), name
        reference_write_metrics_json(report, out / "want.json")
        write_metrics_json(report, out / "got.json")
        assert (out / "got.json").read_bytes() == (out / "want.json").read_bytes()

    # format_rows formats _CHUNK_ROWS rows per `%`.  Rows SEAM - 2 ..
    # SEAM + 1, the last two of one chunk and the first two of the next,
    # hold NaN, +-inf and -0.0.
    SEAM = evaluation._CHUNK_ROWS
    EDGE = np.array([[np.nan, -0.0], [np.inf, -np.inf], [-0.0, np.nan], [-np.inf, np.inf]])

    @pytest.mark.parametrize("n_rows", [SEAM - 1, SEAM, SEAM + 1])
    def test_rows_across_a_chunk_seam(self, tmp_path, n_rows):
        cells = np.random.default_rng(n_rows).normal(size=(n_rows, 2))
        edge = cells[self.SEAM - 2:self.SEAM + 2]
        edge[:] = self.EDGE[:len(edge)]
        report = MetricsReport(
            map_at={1: -0.0, n_rows: np.nan},
            top_n=np.column_stack([np.arange(1.0, n_rows + 1), cells]),
            pr_radius=np.column_stack([np.arange(float(n_rows)), cells[:, ::-1]]),
            n_queries=3, n_database=n_rows, config_hash="abc",
        )
        want = reference_write_metrics_csv(report, tmp_path / "want")
        got = write_metrics_csv(report, tmp_path / "got")
        for name in want:
            assert got[name].read_bytes() == want[name].read_bytes(), name
        assert len(got["prn"].read_bytes().splitlines()) == n_rows + 1
        reference_write_metrics_json(report, tmp_path / "want.json")
        write_metrics_json(report, tmp_path / "got.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_metrics_report_outputs(self, tmp_path, fixture_tables):
        q, db = fixture_tables
        for max_n in (1, None):
            report = metrics_report(q, db, Q_LABELS, DB_LABELS, ks=[1, 2, 5], num_classes=3,
                                    max_n=max_n, config_hash="abc123")
            reference_write_metrics_json(report, tmp_path / "want.json")
            write_metrics_json(report, tmp_path / "got.json")
            assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


class TestPureRowHits:
    """Rows whose buckets are each all relevant or all irrelevant take
    their hits at N from the bucket counts, with no item ranking."""

    SIZES = [3, 4, 2, 5, 1, 6, 3, 2, 4]  # bucket d: the items d bits from the query

    def instance(self, max_n):
        # K = 8: bucket d holds codes with the first d bits flipped, class
        # d % 2, so relevance alternates by bucket; items interleave.
        rng = np.random.default_rng(8)
        bucket = rng.permutation(np.repeat(np.arange(9), self.SIZES))
        codes = np.where(np.arange(8)[:, None] < bucket, -1, 1)
        # Class 0 again for a kept row, class 1 for the other buckets,
        # class 2 for a row with no relevant item.
        q_labels = [{0}, {1}, {0}, {2}, {0}]
        return dict(queries=BinaryCodeMatrix.from_signs(np.ones((8, len(q_labels)), dtype=int)),
                    database=BinaryCodeMatrix.from_signs(codes),
                    query_label_sets=q_labels, db_label_sets=[{int(d) % 2} for d in bucket],
                    ks=[1, 6, bucket.size], num_classes=3, max_n=max_n)

    @pytest.mark.parametrize("max_n", [1, 5, 9, None],
                             ids=["first", "inside-bucket", "bucket-end", "full"])
    def test_matches_reference_without_item_ranking(self, max_n):
        inst = self.instance(max_n)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = metrics_report(**inst)
        assert not argsort.called
        want = reference_metrics_report(**inst)
        assert got.map_at == want.map_at
        assert got.top_n.tobytes() == want.top_n.tobytes()
        assert got.pr_radius.tobytes() == want.pr_radius.tobytes()
        assert len(got.top_n) == (max_n or sum(self.SIZES))


class TestRunBuiltRows:
    """A pure row is scored from its runs: consecutive buckets that are
    all relevant, or all irrelevant, to the query."""

    SIZES = [3, 4, 2, 5, 1, 6, 3, 2, 4]    # bucket d: the items d bits from the all-ones code
    RELEVANT = [0, 0, 1, 1, 0, 1, 0, 0, 1]  # bucket d is class 0 where 1, else class 1
    # From the all-ones code, class 0 finds ranks [0, 7) irrelevant, so
    # with no hits, then [7, 14) relevant, [14, 15) not, [15, 21)
    # relevant, and so on; class 1 finds the same runs the other way round.
    INSIDE = [5, 10, 17, 28]
    AT_ENDS = [7, 14, 15, 21, 26, 30]

    def instance(self, ks, max_n):
        rng = np.random.default_rng(22)
        bucket = rng.permutation(np.repeat(np.arange(9), self.SIZES))
        codes = np.ones((8, bucket.size), dtype=int)
        for j, d in enumerate(bucket):
            codes[rng.choice(8, size=d, replace=False), j] = -1
        # Queries 0, 2 and 6 share a pattern, as do 1 and 5; query 3 has
        # no relevant item; query 4, the all-minus code, meets the
        # buckets farthest first.
        q_codes = np.ones((8, 7), dtype=int)
        q_codes[:, 4] = -1
        return dict(queries=BinaryCodeMatrix.from_signs(q_codes),
                    database=BinaryCodeMatrix.from_signs(codes),
                    query_label_sets=[{0}, {1}, {0}, {2}, {0}, {1}, {0}],
                    db_label_sets=[{1 - self.RELEVANT[d]} for d in bucket],
                    ks=ks, num_classes=3, max_n=max_n)

    def test_runs_merge_buckets_and_stop_at_n_max(self):
        # Class 0 from the all-ones code: the leading run has no hits and
        # is left out, buckets 2 and 3 make one run, and the runs end as
        # the comment above says.
        stops = np.cumsum(self.SIZES).tolist()
        counts = [float(size * rel) for size, rel in zip(self.SIZES, self.RELEVANT)]
        runs, _ = evaluation._pure_runs(stops, counts, stops[-1], stops[-1])
        assert [run[:2] for run in runs] == list(zip(self.AT_ENDS, self.AT_ENDS[1:]))
        assert not set(self.INSIDE) & set(stops)
        # With n_max 10 and largest k 17, no run starts at or after N = 10.
        runs, ranks = evaluation._pure_runs(stops, counts, 10, 17)
        assert runs == [(7, 14, -7.0, True)]
        assert ranks.tolist() == [*range(7, 14), 15, 16]

    @pytest.mark.parametrize("ks", [INSIDE, AT_ENDS], ids=["k-inside-runs", "k-at-run-ends"])
    @pytest.mark.parametrize("max_n", [1, 10, 14, None],
                             ids=["first", "inside-run", "at-run-end", "full"])
    def test_matches_reference(self, ks, max_n):
        inst = self.instance(ks, max_n)
        got, want = metrics_report(**inst), reference_metrics_report(**inst)
        assert np.array([*got.map_at.items()]).tobytes() == np.array([*want.map_at.items()]).tobytes()
        assert got.top_n.tobytes() == want.top_n.tobytes()
        assert got.pr_radius.tobytes() == want.pr_radius.tobytes()

    def test_pure_rows_build_no_item_long_row(self):
        # No relevance row repeated out to the items, and no sort of one.
        inst = self.instance(self.AT_ENDS, None)
        with mock.patch.object(np, "repeat", wraps=np.repeat) as repeat, \
                mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            metrics_report(**inst)
        assert not (repeat.called or argsort.called)


def load_perfbench_gen():
    """perfbench/gen.py, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


class TestBenchmarkShapedEval:
    def test_pure_rows_write_the_oracle_bytes(self, tmp_path):
        # The benchmark's `eval` codes at a tenth of the queries and the
        # database: single-label classes, 64 bits, its flip rates.
        gen = load_perfbench_gen()
        gen.N_QUERY, gen.N_DB = 200, 5000
        q_signs, q_classes, db_signs, db_classes = gen.class_codes(22)
        q, db = BinaryCodeMatrix.from_signs(q_signs.T), BinaryCodeMatrix.from_signs(db_signs.T)
        assert (q.n, db.n, q.K) == (200, 5000, 64)
        # Every row is pure: no distance bucket holds both relevant and
        # irrelevant items.
        for dist, cls in zip(reference_hamming_cross(q, db), q_classes):
            size, relc = np.bincount(dist), np.bincount(dist, db_classes == cls)
            assert ((relc == 0) | (relc == size)).all()
        inst = dict(queries=q, database=db, query_label_sets=[{int(c)} for c in q_classes],
                    db_label_sets=[{int(c)} for c in db_classes], ks=[100, db.n],
                    num_classes=gen.CLASSES)
        got, want = metrics_report(**inst), reference_metrics_report(**inst)
        got_paths = write_metrics_csv(got, tmp_path / "got")
        want_paths = reference_write_metrics_csv(want, tmp_path / "want")
        for name in want_paths:
            assert got_paths[name].read_bytes() == want_paths[name].read_bytes(), name
        write_metrics_json(got, tmp_path / "got.json")
        reference_write_metrics_json(want, tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


@st.composite
def retrieval_instances(draw):
    """Codes clustered around a few prototypes (so distances tie), label
    sets (set or frozenset) with several labels per item, shared by many
    items or drawn per item, queries with no relevant item, repeated
    queries (equal codes with equal and with different label sets), every
    kind of max_n and k, and a block size giving one block, several blocks
    or a ragged last block.  Separated instances give each item the one
    class of its prototype, so that where prototypes lie far apart every
    bucket is all relevant or all irrelevant, in several alternating runs."""
    k_bits = draw(st.sampled_from([1, 7, 64, 65, 256, 300]))
    n_q = draw(st.integers(1, 24))
    n_db = draw(st.integers(1, 40))
    classes = draw(st.integers(1, 12))
    container = draw(st.sampled_from([set, frozenset]))
    shared = draw(st.booleans())
    separated = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    protos = rng.choice([-1, 1], size=(k_bits, draw(st.integers(3, 6) if separated else st.integers(1, 4))))
    flip = draw(st.sampled_from([0.0, 0.02] if separated else [0.0, 0.02, 0.5]))
    proto_class = np.arange(protos.shape[1]) % min(classes, 3)

    def codes(n):
        which = rng.integers(0, protos.shape[1], size=n)
        signs = protos[:, which]
        return BinaryCodeMatrix.from_signs(np.where(rng.random(signs.shape) < flip, -signs, signs)), which

    def label_sets(which, num):
        # Class `classes` appears only among queries: its queries have
        # no relevant database item.  Shared: every item takes one of at
        # most three label sets.
        if separated:
            # Each item takes its prototype's class; a tenth of the
            # queries take class `classes` instead.
            return [container({classes if num > classes and rng.random() < 0.1 else int(proto_class[w])})
                    for w in which]

        def one():
            return container(rng.choice(num, size=rng.integers(1, 4), replace=True).tolist())
        if not shared:
            return [one() for _ in which]
        pool = [one() for _ in range(rng.integers(1, 4))]
        return [pool[j] for j in rng.integers(0, len(pool), size=len(which))]

    max_n = draw(st.one_of(st.none(), st.integers(1, max(1, n_db - 1)),
                           st.integers(n_db + 1, n_db + 5)))
    queries, q_which = codes(n_q)
    query_label_sets = label_sets(q_which, classes + 1)
    database, db_which = codes(n_db)
    if draw(st.booleans()):
        # Each query copies the code of one of a few seed queries and, half
        # the time, that seed's label set, else another seed's label set.
        seeds = rng.integers(0, n_q, size=rng.integers(1, 4))
        code_src = rng.choice(seeds, size=n_q)
        label_src = np.where(rng.random(n_q) < 0.5, code_src, rng.choice(seeds, size=n_q))
        queries = queries.take(code_src)
        query_label_sets = [query_label_sets[j] for j in label_src]
    return dict(
        queries=queries,
        database=database,
        query_label_sets=query_label_sets,
        db_label_sets=label_sets(db_which, classes),
        num_classes=classes + 1,
        ks=draw(st.lists(st.integers(1, n_db), min_size=1, max_size=3)),
        max_n=max_n,
        k=draw(st.integers(1, n_db)),
        block_rows=draw(st.integers(1, n_q + 1)),
    )


class TestStreamingEngineAgainstOracle:
    @given(retrieval_instances())
    @settings(max_examples=250, deadline=None)
    def test_search_and_metrics_match_whole_matrix_reference(self, inst):
        k, block_rows = inst.pop("k"), inst.pop("block_rows")
        q, db = inst["queries"], inst["database"]
        with mock.patch.object(evaluation, "_BLOCK_ENTRIES", block_rows * db.n):
            got = metrics_report(**inst)
            found = search(q, db, k=k)
        want = reference_metrics_report(**inst)
        assert got.map_at == want.map_at
        assert got.top_n.tobytes() == want.top_n.tobytes()
        assert got.pr_radius.tobytes() == want.pr_radius.tobytes()
        expected = reference_search(q, db, k=k)
        assert len(found) == len(expected)
        for a, b in zip(found, expected):
            assert a.query == b.query
            assert a.indices.dtype == b.indices.dtype and a.distances.dtype == b.distances.dtype
            assert a.indices.tobytes() == b.indices.tobytes()
            assert a.distances.tobytes() == b.distances.tobytes()

    def test_eval_width_instance_matches_whole_matrix_reference(self):
        # 150 queries in blocks of 40 leave a ragged last block of 30.
        rng = np.random.default_rng(11)
        centers = rng.choice([-1, 1], size=(64, 10))

        def codes_and_labels(n):
            first = rng.integers(0, 10, size=n)
            second = rng.integers(0, 10, size=n)
            signs = centers[:, first]
            signs = np.where(rng.random(signs.shape) < 0.2, -signs, signs)
            labels = [frozenset({int(a)}) if rng.random() < 0.7 else {int(a), int(b)}
                      for a, b in zip(first, second)]
            return BinaryCodeMatrix.from_signs(signs), labels

        q, q_labels = codes_and_labels(150)
        db, db_labels = codes_and_labels(4000)
        inst = dict(queries=q, database=db, query_label_sets=q_labels,
                    db_label_sets=db_labels, ks=[1, 100, 4000], num_classes=10)
        with mock.patch.object(evaluation, "_BLOCK_ENTRIES", 40 * db.n):
            got = metrics_report(**inst)
        want = reference_metrics_report(**inst)
        assert got.map_at == want.map_at
        assert got.top_n.tobytes() == want.top_n.tobytes()
        assert got.pr_radius.tobytes() == want.pr_radius.tobytes()

    @pytest.mark.parametrize("max_n", [1, None], ids=["max_n-1", "full-prn"])
    def test_repeated_query_patterns_rank_once_and_match_reference(self, max_n):
        # 600 queries drawn from 15 codes, each with one of two label sets
        # (one shared by all, one of its own): about 30 patterns, ranked
        # in blocks of 8 rows.
        rng = np.random.default_rng(23)
        centers = rng.choice([-1, 1], size=(32, 5))
        signs = centers[:, rng.integers(0, 5, size=15)]
        protos = np.where(rng.random(signs.shape) < 0.1, -signs, signs)
        own = [{int(c), int(c + 1) % 6} for c in rng.integers(0, 6, size=15)]
        pick = rng.integers(0, 15, size=600)
        q_labels = [own[j] if rng.random() < 0.5 else frozenset({0}) for j in pick]
        q = BinaryCodeMatrix.from_signs(protos[:, pick])
        db_signs = centers[:, rng.integers(0, 5, size=500)]
        db = BinaryCodeMatrix.from_signs(np.where(rng.random(db_signs.shape) < 0.1, -db_signs, db_signs))
        db_labels = [frozenset({int(c)}) for c in rng.integers(0, 6, size=500)]
        inst = dict(queries=q, database=db, query_label_sets=q_labels,
                    db_label_sets=db_labels, ks=[1, 50, 500], num_classes=6, max_n=max_n)
        ranked_rows = []

        def counting_hamming_cross(a, b):
            ranked_rows.append(a.n)
            return hamming_cross(a, b)

        with mock.patch.object(evaluation, "_BLOCK_ENTRIES", 8 * db.n), \
                mock.patch.object(evaluation, "hamming_cross", counting_hamming_cross):
            got = metrics_report(**inst)
        patterns = {(tuple(q.words[i]), frozenset(q_labels[i])) for i in range(q.n)}
        assert sum(ranked_rows) == len(patterns) and len(ranked_rows) > 2
        want = reference_metrics_report(**inst)
        assert got.map_at == want.map_at
        assert got.top_n.tobytes() == want.top_n.tobytes()
        assert got.pr_radius.tobytes() == want.pr_radius.tobytes()

    @pytest.mark.parametrize("max_n", [1, None], ids=["max_n-1", "full-prn"])
    def test_database_ranked_through_distinct_codes(self, max_n):
        # 400 database items on 6 codes.  Codes A and B both lie 2 bits
        # from query code 0, items of A (labels {0}) and of B (labels {1})
        # are interleaved by index, so relevant and irrelevant items tie
        # at one distance.  Code C carries three label sets.
        rng = np.random.default_rng(5)
        base = rng.choice([-1, 1], size=16)

        def flipped(*bits):
            code = base.copy()
            code[list(bits)] *= -1
            return code

        codes = np.column_stack([flipped(0, 1), flipped(2, 3), flipped(4), flipped(),
                                 flipped(5, 6, 7, 8), -base])
        code_of = rng.integers(0, codes.shape[1], size=400)
        label_pool = {0: [{0}], 1: [{1}], 2: [{0}, {1, 2}, {3}], 3: [{2}], 4: [{1}], 5: [{3}]}
        db_labels = [frozenset(label_pool[c][rng.integers(len(label_pool[c]))]) for c in code_of]
        db = BinaryCodeMatrix.from_signs(codes[:, code_of])
        q_codes = np.column_stack([flipped(), flipped(0), -base, flipped(2, 3), flipped()])
        q = BinaryCodeMatrix.from_signs(q_codes)
        q_labels = [{0}, {1, 3}, {2}, {0}, {3}]
        a_items, b_items = np.flatnonzero(code_of == 0), np.flatnonzero(code_of == 1)
        assert a_items.min() < b_items.max() and b_items.min() < a_items.max()
        inst = dict(queries=q, database=db, query_label_sets=q_labels,
                    db_label_sets=db_labels, ks=[1, 30, 400], num_classes=4, max_n=max_n)
        measured = []

        def counting_hamming_cross(a, b):
            measured.append(b)
            return hamming_cross(a, b)

        with mock.patch.object(evaluation, "_BLOCK_ENTRIES", 2 * db.n), \
                mock.patch.object(evaluation, "hamming_cross", counting_hamming_cross):
            got = metrics_report(**inst)
        distinct = np.unique(db.words, axis=0)
        assert len(measured) > 1 and all(np.array_equal(b.words, distinct) for b in measured)
        want = reference_metrics_report(**inst)
        assert got.map_at == want.map_at
        assert got.top_n.tobytes() == want.top_n.tobytes()
        assert got.pr_radius.tobytes() == want.pr_radius.tobytes()


def assert_same_report(got, want):
    assert got.map_at == want.map_at
    for name in ("top_n", "pr_radius"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.n_queries, got.n_database) == (want.n_queries, want.n_database)


@pytest.mark.parametrize("max_n", [1, None], ids=["max_n-1", "full-prn"])
class TestBucketBuiltRows:
    """`metrics_report` ranks items only for rows with a mixed distance bucket."""

    BASE = np.ones(8, dtype=int)

    @classmethod
    def flipped(cls, *bits):
        code = cls.BASE.copy()
        code[list(bits)] *= -1
        return code

    @staticmethod
    def report_and_item_rankings(inst):
        """The report, checked against the whole-matrix reference, and the
        number of argsorts over all n_db items it took."""
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = metrics_report(**inst)
        assert_same_report(got, reference_metrics_report(**inst))
        return sum(np.size(call.args[0]) == inst["database"].n for call in argsort.call_args_list)

    def instance(self, codes, code_labels, counts, q_codes, q_labels, max_n, seed=0):
        # Items of every code interleave by index; code_labels[c] lists
        # the label sets its items take in turn.
        rng = np.random.default_rng(seed)
        code_of = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        turn = np.zeros(len(counts), dtype=int)
        db_labels = []
        for c in code_of:
            db_labels.append(frozenset(code_labels[c][turn[c] % len(code_labels[c])]))
            turn[c] += 1
        return dict(queries=BinaryCodeMatrix.from_signs(np.column_stack(q_codes)),
                    database=BinaryCodeMatrix.from_signs(np.column_stack(codes)[:, code_of]),
                    query_label_sets=q_labels, db_label_sets=db_labels,
                    ks=[1, 7, len(code_of)], num_classes=3, max_n=max_n), code_of

    def test_uniform_buckets_take_no_item_ranking(self, max_n):
        # From every query, codes at one distance are all relevant or all
        # irrelevant; flipped(1, 2) and flipped(4, 5) tie at every query.
        f = self.flipped
        codes = [f(), f(0), f(1, 2), f(4, 5), -self.BASE]
        inst, _ = self.instance(codes, [[{0}], [{1}], [{0}], [{0}], [{2}]], [20, 15, 25, 12, 10],
                                [f(), f(0), -self.BASE, f(3)], [{0}, {1}, {2}, {0, 2}], max_n)
        assert self.report_and_item_rankings(inst) == 0

    def test_relevant_and_irrelevant_codes_tied(self, max_n):
        # flipped(0) {0} and flipped(1) {1} are both 1 bit from the first
        # query and 7 from the second, and their items interleave.
        f = self.flipped
        inst, code_of = self.instance([f(), f(0), f(1), -self.BASE], [[{0}], [{0}], [{1}], [{1}]],
                                      [10, 30, 30, 10], [f(), -self.BASE, f(5)],
                                      [{0}, {1}, {2}], max_n)
        a, b = np.flatnonzero(code_of == 1), np.flatnonzero(code_of == 2)
        assert a.min() < b.max() and b.min() < a.max()
        # The third query has no relevant item: every bucket is irrelevant.
        assert self.report_and_item_rankings(inst) == 2

    def test_one_code_holding_relevant_and_irrelevant_items(self, max_n):
        f = self.flipped
        inst, _ = self.instance([f(), f(0, 1, 2), -self.BASE], [[{0}, {1}, {1}], [{1}], [{2}]],
                                [40, 20, 20], [f(), f(0, 1, 2), -self.BASE], [{0}, {1}, {2}], max_n)
        # Only the rows where the first code is relevant in part mix.
        assert self.report_and_item_rankings(inst) == 2

    def test_code_wholly_relevant_to_one_label_set_and_partly_to_another(self, max_n):
        # Every item of the first code has class 0, some also class 1.
        f = self.flipped
        inst, _ = self.instance([f(), f(0, 1, 2, 3)], [[{0}, {0, 1}, {0}], [{1}]], [45, 15],
                                [f(), f(), f(), f(7)], [{0}, {1}, {0, 1}, {2}], max_n)
        assert self.report_and_item_rankings(inst) == 1
