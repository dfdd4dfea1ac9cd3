import csv

import numpy as np
import pytest

from treatalloc.data import (CSV_BLOCK_ROWS, CURVE_COLUMNS, CounterfactualMatrix,
                             GeneratorConfig, RctDataset, _write_table,
                             generate_synthetic, load_csv, load_counterfactual_csv,
                             load_generator_config, split, validate_counterfactual,
                             write_counterfactual_csv, write_csv)
from treatalloc.exceptions import ConfigError, ParseError, ValidationError


def test_load_csv_empirical_counts(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(
        "id,f0,treatment,revenue,cost\n"
        "0,0.5,0,1.0,0.1\n"
        "1,-1.0,1,2.0,0.2\n"
        "2,0.25,0,3.0,0.0\n"
    )
    data = load_csv(f, num_treatments=2)
    assert data.n == 3
    assert np.array_equal(data.treatment_counts, [2, 1])
    assert np.allclose(data.propensities, [2 / 3, 1 / 3])


def test_load_csv_treatment_out_of_declared_range(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(
        "id,f0,treatment,revenue,cost\n0,0.0,0,1.0,0.0\n1,0.0,5,1.0,0.0\n"
    )
    with pytest.raises(ValidationError, match="treatment 5"):
        load_csv(f, num_treatments=2)


@pytest.mark.parametrize("num_treatments", [2, None], ids=["declared-m", "inferred-m"])
def test_load_csv_negative_treatment_names_row(tmp_path, num_treatments):
    f = tmp_path / "d.csv"
    f.write_text(
        "id,f0,treatment,revenue,cost\n7,0.0,0,1.0,0.0\n8,0.0,-1,1.0,0.0\n"
        "9,0.0,1,1.0,0.0\n"
    )
    with pytest.raises(ValidationError, match="row id 8: treatment -1"):
        load_csv(f, num_treatments=num_treatments)


def test_load_csv_malformed_row_reports_line(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text(
        "id,f0,treatment,revenue,cost\n0,0.0,0,1.0,0.0\n1,oops,1,1.0,0.0\n"
    )
    with pytest.raises(ParseError, match="line 3"):
        load_csv(f)


def test_load_csv_missing_treatment_errors(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("id,f0,treatment,revenue,cost\n0,0.0,0,1.0,0.0\n")
    with pytest.raises(ValidationError, match="treatment 1 has no samples"):
        load_csv(f, num_treatments=2)


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


def test_dataset_validation_rejects_bad_counts():
    with pytest.raises(ValidationError, match="counts"):
        RctDataset(
            ids=np.arange(2), features=np.zeros((2, 1)),
            treatment=np.array([0, 1]), revenue=np.ones(2), cost=np.zeros(2),
            num_treatments=2, treatment_counts=np.array([2, 0]),
        )


def test_generate_deterministic_under_seed():
    config = GeneratorConfig(n=200, m=5, d=10)
    d1, t1 = generate_synthetic(config, seed=7)
    d2, t2 = generate_synthetic(config, seed=7)
    assert d1.equals(d2)
    assert np.array_equal(t1.revenue, t2.revenue)
    assert np.array_equal(t1.cost, t2.cost)


@pytest.mark.parametrize("noise", [0.0, 0.5])
@pytest.mark.parametrize("family", ["saturating", "linear", "hetero"])
def test_generate_counterfactual_consistency(noise, family):
    config = GeneratorConfig(n=500, m=4, d=6, noise=noise, family=family)
    data, truth = generate_synthetic(config, seed=3)
    validate_counterfactual(data, truth)  # bit-exact by contract
    rows = np.arange(data.n)
    assert np.array_equal(truth.revenue[rows, data.treatment], data.revenue)


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
    assert a1.equals(a2) and b1.equals(b2)


def test_split_recomputes_propensities():
    data, _ = generate_synthetic(GeneratorConfig(n=300, m=3, d=2), seed=2)
    a, _ = split(data, 0.5, seed=0)
    assert np.allclose(a.propensities, a.treatment_counts / a.n)


def test_split_rejects_empty():
    data, _ = generate_synthetic(GeneratorConfig(n=5, m=2, d=2), seed=1)
    with pytest.raises(ValidationError):
        split(data, 0.01, seed=0)


def test_csv_round_trip(tmp_path):
    data, truth = generate_synthetic(GeneratorConfig(n=40, m=3, d=4, noise=0.2), seed=8)
    f = tmp_path / "round.csv"
    write_csv(f, data)
    again = load_csv(f)
    assert data.equals(again)

    g = tmp_path / "truth.csv"
    write_counterfactual_csv(g, data.ids, truth)
    ids, matrix = load_counterfactual_csv(g)
    assert np.array_equal(ids, data.ids)
    assert np.array_equal(matrix.revenue, truth.revenue)
    assert np.array_equal(matrix.cost, truth.cost)


def test_generator_config_rejects_unknown_keys_ignores_other_sections(tmp_path):
    f = tmp_path / "gen.cfg"
    f.write_text("n=100\nm=3\nd=4\ntrain.epochs=5\n")
    config, _ = load_generator_config(f)
    assert config.n == 100
    f.write_text("n=100\nm=3\nd=4\nnosie=5\n")
    with pytest.raises(ConfigError, match="nosie"):
        load_generator_config(f)


def test_generator_config_file(tmp_path):
    f = tmp_path / "gen.cfg"
    f.write_text("n=100\nm=3\nd=4\nnoise=0.5\nseed=42\nfamily=linear\n")
    config, seed = load_generator_config(f)
    assert (config.n, config.m, config.d, config.noise, config.family) == \
        (100, 3, 4, 0.5, "linear")
    assert seed == 42


def test_counterfactual_matrix_validation():
    with pytest.raises(ValidationError):
        CounterfactualMatrix(np.zeros((3, 2)), np.zeros((2, 2)))


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
