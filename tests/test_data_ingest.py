import numpy as np
import pytest

from conftest import make_dataset
from noisygbdt.data_ingest import (Column, DataIngestError, RawTable,
                                   SplitSpec, load_csv, prepare, preprocess,
                                   subsample_table)
from noisygbdt.experiment import _carve_validation


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
        assert np.isnan(col.values).sum() == 1
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

    @pytest.mark.parametrize("header", ["a,label,a,label", "a,label, a,b"])
    def test_duplicate_header_name_fails_the_load(self, tmp_path, header):
        # the table looks columns up by name, so a second column of a name
        # would be dropped from the features or kept under a clashing name
        path = write_csv(tmp_path, header + "\n1,0,2,1\n3,1,4,0\n")
        with pytest.raises(DataIngestError,
                           match="column 'a' appears twice in the header"):
            load_csv(path)

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(DataIngestError):
            load_csv(tmp_path / "nope.csv")

    def test_label_column_absent(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
        table = load_csv(path)
        with pytest.raises(DataIngestError, match="no column"):
            table.column("label")

    def test_column_kinds_and_values_from_one_cast(self, tmp_path):
        # missing markers, an all-missing column, padding, Python float
        # spellings, and numeric labels whose tokens sort as text
        path = write_csv(tmp_path, "q,gone,pad,under,big,word,label\n"
                         "1,,  2 ,1_000,1e300,x,10\n"
                         "?,?,3,2,-2.5E-1,1,2\n"
                         "4,, 5,3,+1e3,?,10\n")
        table = load_csv(path)
        assert [(c.name, c.kind) for c in table.columns] == [
            ("q", "numeric"), ("gone", "categorical"), ("pad", "numeric"),
            ("under", "numeric"), ("big", "numeric"), ("word", "categorical"),
            ("label", "numeric")]
        assert np.array_equal(table.column("q").values, [1.0, np.nan, 4.0],
                              equal_nan=True)
        assert table.column("gone").values.tolist() == [None, None, None]
        assert table.column("pad").values.tolist() == [2.0, 3.0, 5.0]
        assert table.column("under").values.tolist() == [1000.0, 2.0, 3.0]
        assert table.column("big").values.tolist() == [1e300, -0.25, 1e3]
        assert table.column("word").values.tolist() == ["x", "1", None]
        with pytest.raises(DataIngestError, match="'gone' has no observed"):
            preprocess(table, "label")
        finite = RawTable([c for c in table.columns
                           if c.name not in ("gone", "big")], table.n_rows)
        ds = preprocess(finite, "label")
        assert ds.label_names == ["10", "2"]
        assert ds.clean_labels.tolist() == [0, 1, 0]
        # "1" and "x" tie on the fit rows; the first in sorted order fills
        assert ds.feature_names == ["q", "pad", "under", "word=1", "word=x"]
        assert ds.features[:, 3:].tolist() == [[0, 1], [1, 0], [1, 0]]

    @pytest.mark.parametrize("label, message", [
        ("100000.5", "must be categorical or integer-coded"),
        # an infinite label fails at load, as any infinite numeric cell does
        ("inf", "column 'label' has an infinite value in row 2")],
        ids=["100000.5", "inf"])
    def test_numeric_labels_must_be_exact_integers(self, tmp_path, label,
                                                   message):
        path = write_csv(tmp_path, f"a,label\n1,{label}\n2,200000\n")
        with pytest.raises(DataIngestError, match=message):
            preprocess(load_csv(path), "label")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
    def test_infinite_cell_fails_the_load(self, tmp_path, cell):
        # named by column and by its row in the file, header first
        path = write_csv(tmp_path, f"a,b,label\n1,2,0\n3,4,1\n5,{cell},0\n"
                         "7,-inf,1\n")
        with pytest.raises(DataIngestError,
                           match="column 'b' has an infinite value in row 4"):
            load_csv(path)

    def test_nan_cell_loads_as_missing(self, tmp_path):
        path = write_csv(tmp_path, "a,label\n1,0\nnan,1\n3,0\nNaN,1\n")
        col = load_csv(path).column("a")
        assert col.kind == "numeric"
        assert np.isnan(col.values).tolist() == [False, True, False, True]

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

    @pytest.mark.parametrize("fit_rows", [np.array([0, 1, 2]),
                                          np.array([True, True, False])])
    def test_fit_rows_must_be_a_boolean_mask_of_every_row(self, tmp_path,
                                                          fit_rows):
        path = write_csv(tmp_path, "a,label\n1,0\n2,1\n3,0\n100,1\n")
        with pytest.raises(DataIngestError, match="boolean mask"):
            preprocess(load_csv(path), "label", fit_rows=fit_rows)

    def test_unobserved_numeric_column_warns_and_fills_zero(self, tmp_path):
        path = write_csv(tmp_path, "a,b,label\n1,?,0\n2,?,1\n3,5,0\n")
        fit = np.array([True, True, False])
        with pytest.warns(UserWarning) as record:
            ds = preprocess(load_csv(path), "label", fit_rows=fit)
        # filled with 0, the column is then constant on the fit rows
        assert [str(w.message) for w in record] == [
            "column 'b': no observed values to fit, filled 0",
            "column 'b' is constant on the fit rows; standardized to zeros"]
        assert ds.features[:, 1].tolist() == [0.0, 0.0, 0.0]


class TestDataset:
    def test_noise_mask_follows_the_labels(self):
        ds = make_dataset(np.zeros((4, 1)), [0, 1, 2, 1])
        assert not ds.noise_mask.any()
        noisy = ds.with_noise([0, 2, 2, 0])
        assert noisy.noise_mask.tolist() == [False, True, False, True]
        part = noisy.take(np.array([3, 1]))
        assert part.noise_mask.tolist() == [True, True]
        assert part.instance_ids.tolist() == [3, 1]
        assert len(ds.noise_mask) == 4 and not ds.noise_mask.any()


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


# --------------------------------------------------------------------------
# the stratified sampler against the per-class loops it replaced
# --------------------------------------------------------------------------

def reference_codes(tokens):
    classes = sorted(set(tokens))
    index = {c: i for i, c in enumerate(classes)}
    return np.array([index[t] for t in tokens], dtype=np.int64)


def reference_test_mask(labels, class_count, fraction, seed):
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(labels), dtype=bool)
    for cls in range(class_count):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < 2:
            raise DataIngestError(
                f"class {cls} has {len(idx)} instance(s); stratified split needs at least 2")
        n_test = int(round(fraction * len(idx)))
        n_test = min(max(n_test, 0), len(idx) - 1)
        chosen = rng.permutation(idx)[:n_test]
        mask[chosen] = True
    return mask


def reference_subsample_rows(tokens, n, seed):
    classes = sorted(set(tokens))
    token_arr = np.array(tokens)
    rng = np.random.default_rng(seed)
    keep = []
    for cls in classes:
        idx = np.flatnonzero(token_arr == cls)
        k = max(1, int(round(n * len(idx) / len(tokens))))
        keep.append(rng.permutation(idx)[:k])
    return np.sort(np.concatenate(keep))


def reference_carve_mask(noisy_labels, class_count, fraction, seed):
    rng = np.random.default_rng(seed)
    val_mask = np.zeros(len(noisy_labels), dtype=bool)
    for cls in range(class_count):
        idx = np.flatnonzero(noisy_labels == cls)
        if len(idx) < 2:
            continue
        k = max(1, int(round(fraction * len(idx))))
        val_mask[rng.permutation(idx)[:k]] = True
    return val_mask


# class values whose tokens sort differently from their numbers
CLASS_VALUES = np.array([10, 2, 33, 4, 100, 7, 1, 25])


def random_label_values(seed, tiny):
    """Label values of 2-8 classes; ``tiny`` of them have 1-3 rows and the
    rest have odd and even sizes up to 40."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(max(2, tiny), 9))
    sizes = np.concatenate([rng.integers(1, 4, size=tiny),
                            rng.integers(4, 41, size=c - tiny)])
    values = np.repeat(CLASS_VALUES[:c], rng.permutation(sizes))
    return rng.permutation(values).astype(np.float64)


def label_table(values):
    n = len(values)
    return RawTable([Column("row", "numeric", np.arange(n, dtype=np.float64)),
                     Column("label", "numeric", values)], n)


# 0.25 and 0.5 of an odd class size and 0.1 of 5 or 25 land on .5 exactly
FRACTIONS = (0.1, 0.25, 0.3, 0.5, 0.75)


class TestStratifiedSamplerOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_test_split_matches_per_class_loop(self, seed):
        for tiny in (0, 1, 2):
            values = random_label_values(seed * 10 + tiny, tiny)
            table = label_table(values)
            labels = reference_codes([str(int(v)) for v in values])
            for fraction in FRACTIONS:
                spec = SplitSpec(test_fraction=fraction, seed=seed)
                try:
                    expected = reference_test_mask(
                        labels, int(labels.max()) + 1, fraction, seed)
                except DataIngestError as exc:
                    with pytest.raises(DataIngestError) as got:
                        prepare(table, "label", spec)
                    assert str(got.value) == str(exc)
                    continue
                train, test = prepare(table, "label", spec)
                assert test.instance_ids.tolist() == np.flatnonzero(
                    expected).tolist()
                assert train.instance_ids.tolist() == np.flatnonzero(
                    ~expected).tolist()

    @pytest.mark.parametrize("seed", range(6))
    def test_subsample_matches_per_class_loop(self, seed):
        for tiny in (0, 1, 3):
            values = random_label_values(seed * 10 + tiny, tiny)
            table = label_table(values)
            tokens = [str(int(v)) for v in values]
            n_rows = len(values)
            for n in (1, 2, n_rows // 2, n_rows // 3, n_rows - 1):
                expected = reference_subsample_rows(tokens, n, seed)
                sub = subsample_table(table, "label", n, seed)
                assert sub.column("row").values.tolist() == expected.tolist()
                assert sub.column("label").values.tolist() == (
                    values[expected].tolist())

    @pytest.mark.parametrize("seed", range(6))
    def test_validation_carve_matches_per_class_loop(self, seed):
        rng = np.random.default_rng(seed)
        for tiny in (0, 1, 3):
            values = random_label_values(seed * 10 + tiny, tiny)
            clean = reference_codes([str(int(v)) for v in values])
            c = int(clean.max()) + 1
            ds = make_dataset(np.zeros((len(clean), 1)), clean, class_count=c)
            # noisy labels can leave a class empty or with one row
            noisy = np.where(rng.random(len(clean)) < 0.3,
                             rng.integers(0, c, len(clean)), clean)
            noisy[noisy == c - 1] = 0
            ds = ds.with_noise(noisy)
            for fraction in FRACTIONS[:3]:
                expected = reference_carve_mask(noisy, c, fraction, seed)
                fit, val = _carve_validation(ds, fraction, seed)
                assert val.instance_ids.tolist() == np.flatnonzero(
                    expected).tolist()
                assert fit.instance_ids.tolist() == np.flatnonzero(
                    ~expected).tolist()
