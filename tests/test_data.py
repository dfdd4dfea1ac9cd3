import numpy as np
import pytest

from treatalloc.data import (CounterfactualMatrix, GeneratorConfig, RctDataset,
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
