import csv
import re

import numpy as np
import pytest

from treatalloc.data import (CSV_BLOCK_ROWS, CURVE_COLUMNS, GENERATOR_FAMILIES,
                             CounterfactualMatrix, GeneratorConfig, RctDataset, _write_table,
                             config_section, generate_synthetic, generator_config, load_csv,
                             load_counterfactual_csv, read_config, split,
                             write_counterfactual_csv, write_csv)
from treatalloc.exceptions import ConfigError, ParseError, ValidationError
from treatalloc.solver import PredictionMatrix, solve_budget

from conftest import make_dataset, same_dataset


def test_load_csv_empirical_counts(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(
        "id,f0,treatment,revenue,cost\n"
        "0,0.5,0,1.0,0.1\n"
        "1,-1.0,1,2.0,0.2\n"
        "2,0.25,0,3.0,0.0\n"
    )
    data = load_csv(f)
    assert data.n == 3
    assert np.array_equal(data.treatment_counts, [2, 1])
    assert np.allclose(data.propensities, [2 / 3, 1 / 3])


@pytest.mark.parametrize("t7, t9, error", [(0, 1, "row id 8: treatment -1 outside [0, 2)"),
                                            (-3, -2, "row id 7: treatment -3 outside [0, 0)")],
                         ids=["some", "all"])
def test_load_csv_negative_treatment_names_row(tmp_path, t7, t9, error):
    f = tmp_path / "d.csv"
    f.write_text(
        f"id,f0,treatment,revenue,cost\n7,0.0,{t7},1.0,0.0\n8,0.0,-1,1.0,0.0\n"
        f"9,0.0,{t9},1.0,0.0\n"
    )
    with pytest.raises(ValidationError, match=re.escape(error)):
        load_csv(f)


def test_load_csv_malformed_row_reports_line(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(
        "id,f0,treatment,revenue,cost\n0,0.0,0,1.0,0.0\n1,oops,1,1.0,0.0\n"
    )
    with pytest.raises(ParseError, match="line 3"):
        load_csv(f)


@pytest.mark.parametrize("top", [2, 2 ** 40], ids=["two", "huge"])
def test_load_csv_missing_treatment_errors(tmp_path, top):
    # no array of M = top + 1 entries is made, however large top is
    f = tmp_path / "d.csv"
    f.write_text(f"id,f0,treatment,revenue,cost\n0,0.0,0,1.0,0.0\n1,0.0,{top},1.0,0.0\n")
    with pytest.raises(ValidationError, match="treatment 1 has no samples"):
        load_csv(f)


def test_load_csv_propensity_column_overrides_empirical(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(
        "id,f0,treatment,revenue,cost,propensity\n"
        "0,0.0,0,1.0,0.0,0.8\n"
        "1,0.0,1,1.0,0.0,0.2\n"
        "2,0.0,0,1.0,0.0,0.8\n"
    )
    data = load_csv(f)
    assert np.allclose(data.propensities, [0.8, 0.2])


def test_load_csv_propensity_disagreement(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(
        "id,f0,treatment,revenue,cost,propensity\n"
        "0,0.0,0,1.0,0.0,0.8\n"
        "1,0.0,1,1.0,0.0,0.2\n"
        "2,0.0,0,1.0,0.0,0.7\n"
    )
    with pytest.raises(ValidationError, match="disagrees"):
        load_csv(f)


@pytest.mark.parametrize("p0, p1, message", [("0.0", "1.0", r"propensity > 0"),
                                             ("nan", "nan", "sum to 1")],
                         ids=["zero", "nan"])
def test_load_csv_rejects_zero_or_nan_propensity(tmp_path, p0, p1, message):
    # evaluation divides by each present treatment's propensity unguarded
    f = tmp_path / "d.csv"
    f.write_text(
        "id,f0,treatment,revenue,cost,propensity\n"
        f"0,0.0,0,1.0,0.0,{p0}\n"
        f"1,0.0,1,1.0,0.0,{p1}\n"
    )
    with pytest.raises(ValidationError, match=message):
        load_csv(f)


def test_dataset_treatment_counts_are_derived_not_given():
    with pytest.raises(TypeError, match="treatment_counts"):
        RctDataset(
            ids=np.arange(2), features=np.zeros((2, 1)),
            treatment=np.array([0, 1]), revenue=np.ones(2), cost=np.zeros(2),
            num_treatments=2, treatment_counts=np.array([1, 1]),
        )


def test_generate_deterministic_under_seed():
    config = GeneratorConfig(n=200, m=5, d=10)
    d1, t1 = generate_synthetic(config, seed=7)
    d2, t2 = generate_synthetic(config, seed=7)
    assert same_dataset(d1, d2)
    assert np.array_equal(t1.revenue, t2.revenue)
    assert np.array_equal(t1.cost, t2.cost)


@pytest.mark.parametrize("noise", [0.0, 0.5])
@pytest.mark.parametrize("family", ["saturating", "linear", "hetero"])
def test_generate_counterfactual_consistency(noise, family):
    config = GeneratorConfig(n=500, m=4, d=6, noise=noise, family=family)
    data, truth = generate_synthetic(config, seed=3)
    rows = np.arange(data.n)  # observed outcomes are the matrix entries, bit-exactly
    assert truth.revenue.shape == (data.n, data.num_treatments)
    assert np.array_equal(truth.revenue[rows, data.treatment], data.revenue)
    assert np.array_equal(truth.cost[rows, data.treatment], data.cost)


@pytest.mark.parametrize("family", ["saturating", "linear", "hetero"])
def test_generate_cost_monotone_in_treatment(family):
    config = GeneratorConfig(n=800, m=5, d=6, noise=0.3, family=family)
    _, truth = generate_synthetic(config, seed=11)
    assert (np.diff(truth.cost, axis=1) >= 0).all()
    assert (truth.cost[:, 0] == 0).all()


def test_generate_uniform_propensities_within_3_sigma():
    n, m = 4000, 5
    config = GeneratorConfig(n=n, m=m, d=4)
    data, _ = generate_synthetic(config, seed=5)
    sigma = np.sqrt((1 / m) * (1 - 1 / m) / n)
    assert np.all(np.abs(data.propensities - 1 / m) <= 3 * sigma)


def test_generate_config_errors():
    with pytest.raises(ConfigError):
        GeneratorConfig(n=0, m=2, d=3)
    with pytest.raises(ConfigError):
        GeneratorConfig(n=10, m=1, d=3)
    with pytest.raises(ConfigError):
        GeneratorConfig(n=10, m=2, d=3, family="nope")


def test_generate_config_rejects_nan_noise():
    with pytest.raises(ConfigError, match="noise"):
        GeneratorConfig(n=10, m=2, d=3, noise=float("nan"))


def test_generate_rejects_a_noise_level_that_overflows():
    with pytest.raises(ConfigError, match=r"noise level 1e\+308 overflows"):
        generate_synthetic(GeneratorConfig(n=50, m=3, d=2, noise=1e308), seed=0)


def test_load_csv_rejects_duplicate_ids(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("id,f0,treatment,revenue,cost\n"
                 "1,0.5,0,1.0,0.0\n"
                 "1,0.2,1,2.0,1.0\n")
    with pytest.raises(ValidationError, match="id 1 "):
        load_csv(f)


def test_split_sizes_and_partition():
    data, _ = generate_synthetic(GeneratorConfig(n=10, m=2, d=2), seed=1)
    a, b = split(data, 0.7, seed=9)
    assert (a.n, b.n) == (7, 3)
    assert set(a.ids) | set(b.ids) == set(data.ids)
    assert not set(a.ids) & set(b.ids)


def test_split_deterministic():
    data, _ = generate_synthetic(GeneratorConfig(n=50, m=3, d=2), seed=1)
    a1, b1 = split(data, 0.5, seed=4)
    a2, b2 = split(data, 0.5, seed=4)
    assert same_dataset(a1, a2) and same_dataset(b1, b2)


def test_split_recomputes_propensities():
    data, _ = generate_synthetic(GeneratorConfig(n=300, m=3, d=2), seed=2)
    a, _ = split(data, 0.5, seed=0)
    assert np.allclose(a.propensities, a.treatment_counts / a.n)


class TestTake:
    """``take`` builds its batch without re-checking rows that were checked
    with the parent; the batch must equal one built through the constructor."""

    @pytest.mark.parametrize("indices", [[4, 0, 4, 17], list(range(20)), [-1, 3], [9]],
                             ids=["repeats", "all", "negative", "one"])
    def test_equals_a_checked_construction(self, indices):
        data, _ = generate_synthetic(GeneratorConfig(n=20, m=4, d=3), seed=3)
        idx = np.array(indices)
        batch = data.take(idx)
        expected = RctDataset(ids=data.ids[idx], features=data.features[idx],
                              treatment=data.treatment[idx], revenue=data.revenue[idx],
                              cost=data.cost[idx], num_treatments=data.num_treatments)
        for name in ("ids", "features", "treatment", "revenue", "cost",
                     "treatment_counts", "propensities"):
            got, want = getattr(batch, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
        assert batch.num_treatments == expected.num_treatments

    def test_writing_to_the_parent_does_not_reach_the_batch(self):
        features = np.arange(12.0).reshape(6, 2)
        data = make_dataset(treatment=[0, 1, 0, 1, 0, 1], revenue=np.ones(6),
                            cost=np.zeros(6), num_treatments=2, features=features)
        batch = data.take(np.array([1, 2]))
        before = batch.features.copy()
        data.features.flags.writeable = True  # the parent owns its memory
        data.features[:] = -1.0
        assert np.array_equal(batch.features, before)

    def test_empty_take_raises_validation_error(self):
        data, _ = generate_synthetic(GeneratorConfig(n=5, m=2, d=2), seed=1)
        with pytest.raises(ValidationError):
            data.take(np.array([], dtype=np.int64))

    @pytest.mark.parametrize("bad", [5, -6])
    def test_out_of_range_index_raises_index_error(self, bad):
        data, _ = generate_synthetic(GeneratorConfig(n=5, m=2, d=2), seed=1)
        with pytest.raises(IndexError):
            data.take(np.array([0, bad]))


def test_split_rejects_empty():
    data, _ = generate_synthetic(GeneratorConfig(n=5, m=2, d=2), seed=1)
    with pytest.raises(ValidationError):
        split(data, 0.01, seed=0)


def test_csv_round_trip(tmp_path):
    data, truth = generate_synthetic(GeneratorConfig(n=40, m=3, d=4, noise=0.2), seed=8)
    f = tmp_path / "round.csv"
    write_csv(f, data)
    again = load_csv(f)
    assert same_dataset(data, again)

    g = tmp_path / "truth.csv"
    write_counterfactual_csv(g, data.ids, truth)
    ids, matrix = load_counterfactual_csv(g)
    assert np.array_equal(ids, data.ids)
    assert np.array_equal(matrix.revenue, truth.revenue)
    assert np.array_equal(matrix.cost, truth.cost)


def test_generator_config_rejects_unknown_keys_ignores_other_sections(tmp_path):
    f = tmp_path / "gen.cfg"
    f.write_text("n=100\nm=3\nd=4\ntrain.epochs=5\n")
    config, _ = generator_config(read_config(f))
    assert config.n == 100
    f.write_text("n=100\nm=3\nd=4\nnosie=5\n")
    with pytest.raises(ConfigError, match="nosie"):
        generator_config(read_config(f))


@pytest.mark.parametrize("section, values, message", [
    ("train", {"train.epochs": "3", "train.typo": "1"}, "unknown train config keys: train.typo"),
    ("train", {"train.lr": "1", "epochs": "3"}, "train config needs key train.epochs"),
    ("train", {"train.epochs": "3", "train.lr": "fast"}, "bad train.lr='fast'"),
    ("", {"epochs": "3", "lr": "x", "train.lr": "1"}, "bad lr='x'"),
], ids=["unknown", "missing", "unparsable", "unprefixed"])
def test_config_section_errors_name_the_key(section, values, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_section(values, section, {"epochs": int, "lr": float}, required=("epochs",))


def test_generator_config_file(tmp_path):
    f = tmp_path / "gen.cfg"
    f.write_text("n=100\nm=3\nd=4\nnoise=0.5\nseed=42\nfamily=linear\n")
    config, seed = generator_config(read_config(f))
    assert (config.n, config.m, config.d, config.noise, config.family) == \
        (100, 3, 4, 0.5, "linear")
    assert seed == 42


def test_counterfactual_matrix_validation():
    with pytest.raises(ValidationError):
        CounterfactualMatrix(np.zeros((3, 2)), np.zeros((2, 2)))


def test_views_of_a_writeable_base_are_copied():
    base = np.arange(12.0).reshape(2, 6)
    data = RctDataset(ids=np.arange(2), features=base[:, :2], treatment=np.arange(2),
                      revenue=base[:, 2], cost=base[:, 3], num_treatments=2)
    truth = CounterfactualMatrix(base[:, 4:5], base[:, 5:])
    before = base.copy()
    base += 1.0
    assert data.features.tolist() == before[:, :2].tolist()
    assert data.revenue.tolist() == before[:, 2].tolist()
    assert data.cost.tolist() == before[:, 3].tolist()
    assert truth.revenue.tolist() == before[:, 4:5].tolist()
    assert truth.cost.tolist() == before[:, 5:].tolist()
    assert base.flags.writeable


@pytest.mark.parametrize("order", ["C", "F"])
def test_truth_copies_the_arrays_handed_to_it(order):
    revenue, cost = (np.array(a, order=order) for a in (np.arange(6.0).reshape(3, 2),
                                                         np.ones((3, 2))))
    truth = CounterfactualMatrix(revenue, cost)
    assert revenue.flags.writeable and cost.flags.writeable
    revenue += 1.0
    cost[0, 0] = 9.0
    assert truth.revenue.tolist() == (revenue - 1.0).tolist()
    assert truth.cost.tolist() == np.ones((3, 2)).tolist()
    assert not (truth.revenue.flags.writeable or truth.cost.flags.writeable)


def test_a_view_taken_before_the_hand_over_cannot_write_into_the_dataset():
    rev = np.array([1.0, 2.0, 3.0])
    alias = rev[:]
    data = make_dataset(treatment=[0, 1, 0], revenue=rev, cost=np.zeros(3), num_treatments=2)
    alias[0] = -5.0  # revenue was checked >= 0 when the dataset was built
    assert data.revenue.tolist() == [1.0, 2.0, 3.0]


def test_the_arrays_handed_over_stay_writeable():
    given = {"ids": np.arange(4), "features": np.ones((4, 2)), "treatment": np.array([0, 1, 1, 0]),
             "revenue": np.ones(4), "cost": np.zeros(4), "propensities": np.array([0.25, 0.75])}
    data = RctDataset(**given, num_treatments=2)
    for name, arr in given.items():
        assert arr.flags.writeable, name
        assert not getattr(data, name).flags.writeable, name
        assert not np.shares_memory(arr, getattr(data, name)), name
    given["revenue"][:] = -1.0
    assert data.revenue.tolist() == [1.0] * 4


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_generated_dataset_equals_a_checked_construction(family, m, seed):
    """``generate_synthetic`` builds its dataset through the trusted
    ``RctDataset._owning``, unchecked; it must be what the checking
    constructor makes of the same arrays, bit for bit, and read-only."""
    data, _ = generate_synthetic(GeneratorConfig(n=37, m=m, d=3, noise=0.5, family=family), seed)
    expected = RctDataset(ids=data.ids, features=data.features, treatment=data.treatment,
                          revenue=data.revenue, cost=data.cost, num_treatments=m)
    for name in ("ids", "features", "treatment", "revenue", "cost",
                 "treatment_counts", "propensities"):
        got, want = getattr(data, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name
    assert data.num_treatments == expected.num_treatments == m


def test_truth_and_predictions_are_one_type():
    assert CounterfactualMatrix is PredictionMatrix
    _, truth = generate_synthetic(GeneratorConfig(n=7, m=3, d=2), seed=1)
    for treatment_major in (truth.revenue.T, truth.cost.T):
        assert treatment_major.shape == (3, 7)
        assert treatment_major.flags.c_contiguous and not treatment_major.flags.writeable


def test_loaded_outcome_matrix_goes_to_the_solver_as_is(tmp_path):
    _, truth = generate_synthetic(GeneratorConfig(n=50, m=3, d=2), seed=5)
    write_counterfactual_csv(tmp_path / "t.csv", np.arange(50), truth)
    _, matrix = load_counterfactual_csv(tmp_path / "t.csv")
    budget = 0.5 * float(truth.cost.max(axis=1).sum())
    got, want = solve_budget(matrix, budget), solve_budget(truth, budget)
    assert got.lam == want.lam
    assert got.allocation.choice.tolist() == want.allocation.choice.tolist()
    assert got.allocation.objective == want.allocation.objective


def test_truth_take_equals_the_fancy_indexed_rows():
    _, truth = generate_synthetic(GeneratorConfig(n=20, m=3, d=2), seed=2)
    idx = np.array([5, 0, 19, 5])
    part = truth.take(idx)
    assert part.revenue.tolist() == truth.revenue[idx].tolist()
    assert part.cost.tolist() == truth.cost[idx].tolist()


DATASET = "id,f0,treatment,revenue,cost\n0,0.5,0,1.0,0.25\n1,-1.5,1,2.0,0.5\n"
MATRIX = "id,r0,r1,c0,c1\n0,1.0,2.0,0.0,0.5\n1,1.5,2.5,0.0,0.75\n"
DATASET_ROWS = [[0.5, 0, 1.0, 0.25], [-1.5, 1, 2.0, 0.5]]
MATRIX_ROWS = [[1.0, 2.0, 0.0, 0.5], [1.5, 2.5, 0.0, 0.75]]


def _reader_cases():
    """(id, layout, file text, outcome): the values read, as (ids, rows of the
    other columns), or the exception type and its line (None without one)."""
    cases = []
    for layout, text, rows in (("dataset", DATASET, DATASET_ROWS),
                               ("matrix", MATRIX, MATRIX_ROWS)):
        header, first, second = text.splitlines()
        value = first.split(",")[1]  # a feature or an outcome, not the id
        same = ([0, 1], rows)
        empty_error = (ParseError, 2) if layout == "dataset" else (ValidationError, None)
        for name, body, outcome in [
            ("empty-file", "", (ParseError, 1)),
            ("header-only", header + "\n", empty_error),
            ("blank-line", f"{header}\n{first}\n\n{second}\n", same),
            ("whitespace-line", f"{header}\n{first}\n  \n{second}\n", (ParseError, 3)),
            ("hash-line", f"{header}\n# note\n{first}\n{second}\n", (ParseError, 2)),
            ("trailing-comma", f"{header}\n{first},\n{second}\n", (ParseError, 2)),
            ("int-underscores", text.replace("\n1,", "\n1_000,"), ([0, 1000], rows)),
            ("int-exponent", text.replace("\n1,", "\n1e3,"), (ParseError, 3)),
            ("int-fraction", text.replace("\n1,", "\n1.5,"), (ParseError, 3)),
            ("int-non-ascii-letter", text.replace("\n1,", "\n\u01fe1,"), (ParseError, 3)),
            ("unit-separator", text.replace(first, first.replace(value, value + "\x1f", 1)),
             (ParseError, 2)),
            ("quoted-field", text.replace(",1.5,", ',"1.5",').replace(",-1.5,", ',"-1.5",'),
             same),
            ("quoted-id-and-blank-line", f'{header}\n"0"{first[1:]}\n\n{second}\n', same),
            ("cr-line-ends", text.replace("\n", "\r"), same),
            ("crlf-line-ends", text.replace("\n", "\r\n"), same),
            ("no-final-newline", text.rstrip("\n"), same),
            ("nan-value", text.replace(first, first.replace(value, "nan", 1)),
             (ValidationError, None)),
            ("inf-value", text.replace(first, first.replace(value, "inf", 1)),
             (ValidationError, None)),
        ]:
            cases.append(pytest.param(layout, body, outcome, id=f"{layout}-{name}"))
    return cases


@pytest.mark.parametrize("layout, text, outcome", _reader_cases())
def test_reader_contract(tmp_path, layout, text, outcome):
    f = tmp_path / "t.csv"
    f.write_bytes(text.encode("utf-8"))
    load = load_csv if layout == "dataset" else load_counterfactual_csv
    if isinstance(outcome[0], type):
        kind, line = outcome
        with pytest.raises(kind) as info:
            load(f)
        assert getattr(info.value, "line", None) == line
        return
    loaded = load(f)
    if layout == "dataset":
        ids = loaded.ids
        rows = np.column_stack([loaded.features, loaded.treatment, loaded.revenue,
                                loaded.cost])
    else:
        ids, matrix = loaded
        rows = np.hstack([matrix.revenue, matrix.cost])
    assert ids.dtype == np.int64 and ids.tolist() == outcome[0]
    assert rows.tolist() == outcome[1]


@pytest.mark.parametrize("bad_row", ["1,oops,1,2.0,0.5", '1,"oops\n",1,2.0,0.5'],
                         ids=["after-a-two-line-record", "inside-a-two-line-record"])
def test_parse_error_names_the_physical_line(tmp_path, bad_row):
    """Record 1's quoted f0 spans lines 2-3, so the bad record starts on line 4."""
    f = tmp_path / "t.csv"
    f.write_text('id,f0,treatment,revenue,cost\n0,"0.5\n",0,1.0,0.25\n' + bad_row + "\n")
    with pytest.raises(ParseError) as info:
        load_csv(f)
    assert info.value.line == 4


def _odd_floats(rng, shape):
    """Floats across the exponent range, with signed zeros and subnormals."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    x.flat[:4] = [-0.0, 5e-324, 1e16, 0.1][:x.size]
    return x


@pytest.mark.parametrize("n", [1, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 7])
@pytest.mark.parametrize("layout", ["dataset", "matrix", "allocation", "curve", "gradients"])
def test_writer_matches_csv_writer(tmp_path, layout, n):
    """Each layout's file equals ``csv.writer`` fed ``int`` and ``repr(float)``
    cells row by row, which is how these files used to be written."""
    rng = np.random.default_rng(n)
    ids = rng.permutation(10 * n)[:n].astype(np.int64)
    out = tmp_path / "out.csv"
    if layout == "dataset":
        data, _ = generate_synthetic(GeneratorConfig(n=n, m=3, d=2), seed=n)
        write_csv(out, data)
        header = ["id", "f0", "f1", "treatment", "revenue", "cost", "propensity"]
        prop = data.sample_propensity()
        rows = [[int(data.ids[i])] + [repr(float(v)) for v in data.features[i]]
                + [int(data.treatment[i]), repr(float(data.revenue[i])),
                   repr(float(data.cost[i])), repr(float(prop[i]))] for i in range(n)]
    elif layout == "matrix":
        truth = CounterfactualMatrix(_odd_floats(rng, (n, 3)), _odd_floats(rng, (n, 3)))
        write_counterfactual_csv(out, ids, truth)
        header = ["id", "r0", "r1", "r2", "c0", "c1", "c2"]
        rows = [[int(ids[i])] + [repr(float(v)) for v in truth.revenue[i]]
                + [repr(float(v)) for v in truth.cost[i]] for i in range(n)]
    elif layout == "allocation":
        choice = rng.integers(0, 4, size=n)
        _write_table(out, ["id", "choice"], [ids, choice])
        header = ["id", "choice"]
        rows = [[int(ids[i]), int(choice[i])] for i in range(n)]
    elif layout == "curve":
        values = _odd_floats(rng, (n, 4))
        _write_table(out, CURVE_COLUMNS, list(values.T))
        header = CURVE_COLUMNS
        rows = [[repr(float(v)) for v in values[i]] for i in range(n)]
    else:
        d_rev, d_cost = _odd_floats(rng, (n, 3)), _odd_floats(rng, (n, 3))
        header = ["id", "treatment", "d_revenue", "d_cost"]
        _write_table(out, header, [np.repeat(ids, 3), np.tile(np.arange(3), n),
                                   d_rev.ravel(), d_cost.ravel()])
        rows = [[int(ids[i]), j, repr(float(d_rev[i, j])), repr(float(d_cost[i, j]))]
                for i in range(n) for j in range(3)]
    ref = tmp_path / "ref.csv"
    with ref.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert out.read_bytes() == ref.read_bytes()
