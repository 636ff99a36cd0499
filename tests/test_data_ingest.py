import numpy as np
import pytest

from noisygbdt.data_ingest import (DataIngestError, SplitSpec, load_csv,
                                   prepare, preprocess)


def write_csv(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_numeric_and_categorical_inference(self, tmp_path):
        path = write_csv(tmp_path, "a,b,label\n1.5,x,0\n2.5,y,1\n3.5,x,0\n")
        table = load_csv(path)
        assert table.n_rows == 3
        assert table.column("a").kind == "numeric"
        assert table.column("b").kind == "categorical"

    def test_missing_marker_keeps_numeric(self, tmp_path):
        # a "?" cell marks a missing value, not a categorical column
        path = write_csv(tmp_path, "a,label\n1,0\n?,1\n3,0\n")
        table = load_csv(path)
        col = table.column("a")
        assert col.kind == "numeric"
        assert col.n_missing == 1
        assert np.isnan(col.values[1])

    def test_empty_file_errors(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(DataIngestError, match="no rows"):
            load_csv(path)

    def test_header_only_errors(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n")
        with pytest.raises(DataIngestError, match="no rows"):
            load_csv(path)

    def test_ragged_rows_error(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n1,2,3\n")
        with pytest.raises(DataIngestError, match="ragged"):
            load_csv(path)

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(DataIngestError):
            load_csv(tmp_path / "nope.csv")

    def test_label_column_absent(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
        table = load_csv(path)
        with pytest.raises(DataIngestError, match="no column"):
            table.column("label")

    def test_bundled_breast_cancer_shape(self):
        import noisygbdt

        from pathlib import Path
        path = Path(noisygbdt.__file__).parent / "data" / "breast_cancer.csv"
        table = load_csv(path)
        assert table.n_rows == 569
        assert len(table.columns) == 31  # 30 features + diagnosis


class TestPreprocess:
    def test_median_impute_then_standardize(self, tmp_path):
        path = write_csv(tmp_path, "a,label\n1,0\n2,1\n,0\n3,1\n")
        ds = preprocess(load_csv(path), "label")
        # impute median 2 -> [1, 2, 2, 3], standardized to mean 0, pop std 1
        col = ds.features[:, 0]
        expected = np.array([1.0, 2.0, 2.0, 3.0])
        expected = (expected - expected.mean()) / expected.std()
        assert np.allclose(col, expected)
        assert abs(col.mean()) < 1e-9
        assert abs(col.std() - 1.0) < 1e-9

    def test_one_hot_exactly_one_per_row(self, tmp_path):
        path = write_csv(tmp_path, "c,label\nA,0\nB,1\nA,0\nB,1\n")
        ds = preprocess(load_csv(path), "label")
        assert ds.features.shape[1] == 2
        assert np.array_equal(ds.features.sum(axis=1), np.ones(4))

    def test_mode_impute_categorical(self, tmp_path):
        path = write_csv(tmp_path, "c,label\nA,0\nA,1\nB,0\n,1\n")
        ds = preprocess(load_csv(path), "label")
        names = ds.feature_names
        a_col = ds.features[:, names.index("c=A")]
        assert a_col[3] == 1.0  # missing filled with mode A

    def test_constant_column_becomes_zeros_with_warning(self, tmp_path):
        path = write_csv(tmp_path, "a,b,label\n5,1,0\n5,2,1\n5,3,0\n")
        with pytest.warns(UserWarning, match="constant"):
            ds = preprocess(load_csv(path), "label")
        assert np.array_equal(ds.features[:, 0], np.zeros(3))
        assert any("constant" in n for n in ds.notes)

    def test_single_class_label_errors(self, tmp_path):
        path = write_csv(tmp_path, "a,label\n1,0\n2,0\n")
        with pytest.raises(DataIngestError, match="single class"):
            preprocess(load_csv(path), "label")

    def test_lexicographic_label_encoding(self, tmp_path):
        path = write_csv(tmp_path, "a,label\n1,zebra\n2,apple\n3,mango\n4,apple\n")
        ds = preprocess(load_csv(path), "label")
        assert ds.label_names == ["apple", "mango", "zebra"]
        assert ds.clean_labels.tolist() == [2, 0, 1, 0]

    def test_deterministic_bit_identical(self, tmp_path):
        path = write_csv(tmp_path, "a,c,label\n1,x,0\n2,y,1\n,x,0\n4,z,1\n")
        d1 = preprocess(load_csv(path), "label")
        d2 = preprocess(load_csv(path), "label")
        assert np.array_equal(d1.features, d2.features)
        assert np.array_equal(d1.clean_labels, d2.clean_labels)

    def test_fit_rows_prevents_leakage(self, tmp_path):
        path = write_csv(tmp_path, "a,label\n1,0\n2,1\n3,0\n100,1\n")
        fit = np.array([True, True, True, False])
        ds = preprocess(load_csv(path), "label", fit_rows=fit)
        # standardization fit on the first three rows only
        assert abs(ds.features[fit, 0].mean()) < 1e-9
        assert abs(ds.features[fit, 0].std() - 1.0) < 1e-9
        assert ds.features[3, 0] > 3  # the held-out outlier stays extreme


def make_balanced(tmp_path, n=100):
    rows = [f"{i},{i % 2}" for i in range(n)]
    return write_csv(tmp_path, "a,label\n" + "\n".join(rows) + "\n")


class TestSplit:
    def test_balanced_stratified_counts(self, tmp_path):
        train, test = prepare(load_csv(make_balanced(tmp_path)), "label",
                              SplitSpec(test_fraction=0.2, seed=3))
        assert len(train) == 80 and len(test) == 20
        assert (test.clean_labels == 0).sum() == 10
        assert (test.clean_labels == 1).sum() == 10

    def test_partition_disjoint_exhaustive(self, tmp_path):
        table = load_csv(make_balanced(tmp_path))
        train, test = prepare(table, "label",
                              SplitSpec(test_fraction=0.3, seed=0))
        ids = set(train.instance_ids) | set(test.instance_ids)
        assert len(train) + len(test) == table.n_rows
        assert ids == set(range(table.n_rows))
        assert not (set(train.instance_ids) & set(test.instance_ids))

    def test_same_seed_identical(self, tmp_path):
        table = load_csv(make_balanced(tmp_path))
        t1, _ = prepare(table, "label", SplitSpec(seed=7))
        t2, _ = prepare(table, "label", SplitSpec(seed=7))
        assert np.array_equal(t1.instance_ids, t2.instance_ids)

    def test_proportions_within_one_instance(self, tmp_path):
        rows = ["%d,%d" % (i, 0 if i < 70 else (1 if i < 90 else 2))
                for i in range(100)]
        path = write_csv(tmp_path, "a,label\n" + "\n".join(rows) + "\n")
        _, test = prepare(load_csv(path), "label",
                          SplitSpec(test_fraction=0.2, seed=1))
        for cls, total in ((0, 70), (1, 20), (2, 10)):
            got = (test.clean_labels == cls).sum()
            assert abs(got - 0.2 * total) <= 1

    def test_tiny_class_errors_with_name(self, tmp_path):
        path = write_csv(tmp_path, "a,label\n1,0\n2,0\n3,0\n4,1\n")
        with pytest.raises(DataIngestError, match="class 1"):
            prepare(load_csv(path), "label",
                    SplitSpec(test_fraction=0.5, seed=0))

    def test_invalid_fraction(self):
        with pytest.raises(DataIngestError):
            SplitSpec(test_fraction=1.5)

    def test_prepare_fits_stats_on_train_only(self, tmp_path):
        ds_path = make_balanced(tmp_path, n=50)
        train, test = prepare(load_csv(ds_path), "label",
                              SplitSpec(test_fraction=0.2, seed=11))
        assert abs(train.features[:, 0].mean()) < 1e-9
        assert abs(train.features[:, 0].std() - 1.0) < 1e-9
        # test column distribution reflects the train statistics, not its own
        assert abs(test.features[:, 0].mean()) > 1e-12
