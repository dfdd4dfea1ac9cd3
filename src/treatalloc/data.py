"""Randomized-trial datasets: loading, validation, synthesis, splitting.

A dataset holds one observed (treatment, revenue, cost) triple per individual
plus per-treatment assignment propensities. Synthetic datasets additionally
come with a full counterfactual outcome matrix covering every treatment,
which downstream modules use as a ground-truth oracle.

CSV layout: header row, columns ``id, f0..f{d-1}, treatment, revenue, cost``
with an optional trailing ``propensity`` column, UTF-8, ``.`` decimal
separator. Counterfactual matrices use ``id, r0..r{M-1}, c0..c{M-1}``.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, ParseError, ValidationError

GENERATOR_FAMILIES = ("saturating", "linear", "hetero")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(eq=False)
class RctDataset:
    """Immutable randomized-trial sample set.

    ``propensities[j]`` is the probability that a sample was assigned
    treatment ``j``; it defaults to the empirical share ``N_j / N`` and is
    overridden when the source file carries an explicit propensity column.
    """

    ids: np.ndarray          # (n,) int64
    features: np.ndarray     # (n, d) float64
    treatment: np.ndarray    # (n,) int64 in [0, m)
    revenue: np.ndarray      # (n,) float64, observed outcome
    cost: np.ndarray         # (n,) float64, observed cost
    num_treatments: int
    treatment_counts: np.ndarray = field(default=None)  # (m,) int64
    propensities: np.ndarray = field(default=None)      # (m,) float64

    def __post_init__(self):
        self.ids = _freeze(np.asarray(self.ids, dtype=np.int64))
        self.features = _freeze(np.asarray(self.features, dtype=np.float64))
        self.treatment = _freeze(np.asarray(self.treatment, dtype=np.int64))
        self.revenue = _freeze(np.asarray(self.revenue, dtype=np.float64))
        self.cost = _freeze(np.asarray(self.cost, dtype=np.float64))

        n = self.ids.shape[0]
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValidationError("features must be a (n, d) matrix matching ids")
        for name in ("treatment", "revenue", "cost"):
            if getattr(self, name).shape != (n,):
                raise ValidationError(f"{name} must have one entry per sample")
        m = self.num_treatments = int(self.num_treatments)
        if m < 1:
            raise ValidationError("num_treatments must be >= 1")
        if n and (self.treatment.min() < 0 or self.treatment.max() >= m):
            bad = int(np.argmax((self.treatment < 0) | (self.treatment >= m)))
            raise ValidationError(
                f"sample id {int(self.ids[bad])}: treatment {int(self.treatment[bad])} "
                f"outside [0, {m})"
            )
        if not np.isfinite(self.features).all():
            raise ValidationError("features contain non-finite values")
        if not np.isfinite(self.revenue).all() or not np.isfinite(self.cost).all():
            raise ValidationError("revenue/cost contain non-finite values")
        if n and (self.revenue.min() < 0 or self.cost.min() < 0):
            raise ValidationError("observed revenue and cost must be >= 0")

        counts = np.bincount(self.treatment, minlength=m).astype(np.int64)
        if self.treatment_counts is None:
            self.treatment_counts = counts
        else:
            self.treatment_counts = np.asarray(self.treatment_counts, dtype=np.int64)
            if not np.array_equal(self.treatment_counts, counts):
                raise ValidationError("treatment_counts do not match empirical counts")
        _freeze(self.treatment_counts)

        if self.propensities is None:
            self.propensities = counts / max(n, 1)
        self.propensities = np.asarray(self.propensities, dtype=np.float64)
        if self.propensities.shape != (m,):
            raise ValidationError("propensities must have one entry per treatment")
        if abs(float(self.propensities.sum()) - 1.0) > 1e-9:
            raise ValidationError("propensities must sum to 1")
        if np.any((counts > 0) & (self.propensities <= 0.0)):
            raise ValidationError("every present treatment needs propensity > 0")
        _freeze(self.propensities)

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def sample_propensity(self) -> np.ndarray:
        """Per-sample propensity of the treatment each sample received."""
        return self.propensities[self.treatment]

    def take(self, indices: np.ndarray) -> "RctDataset":
        """Subset by row index; counts and propensities are recomputed."""
        idx = np.asarray(indices, dtype=np.int64)
        return RctDataset(
            ids=self.ids[idx].copy(),
            features=self.features[idx].copy(),
            treatment=self.treatment[idx].copy(),
            revenue=self.revenue[idx].copy(),
            cost=self.cost[idx].copy(),
            num_treatments=self.num_treatments,
        )

    def equals(self, other: "RctDataset") -> bool:
        return (
            self.num_treatments == other.num_treatments
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.treatment, other.treatment)
            and np.array_equal(self.revenue, other.revenue)
            and np.array_equal(self.cost, other.cost)
            and np.array_equal(self.propensities, other.propensities)
        )


@dataclass(eq=False)
class CounterfactualMatrix:
    """Ground-truth outcomes for every individual x treatment (synthetic only)."""

    revenue: np.ndarray  # (n, m)
    cost: np.ndarray     # (n, m)

    def __post_init__(self):
        self.revenue = _freeze(np.asarray(self.revenue, dtype=np.float64))
        self.cost = _freeze(np.asarray(self.cost, dtype=np.float64))
        if self.revenue.ndim != 2 or self.revenue.shape != self.cost.shape:
            raise ValidationError("revenue and cost matrices must share shape (n, m)")
        if not (np.isfinite(self.revenue).all() and np.isfinite(self.cost).all()):
            raise ValidationError("counterfactual matrices must be finite")

    @property
    def n(self) -> int:
        return self.revenue.shape[0]

    @property
    def num_treatments(self) -> int:
        return self.revenue.shape[1]

    def take(self, indices: np.ndarray) -> "CounterfactualMatrix":
        idx = np.asarray(indices, dtype=np.int64)
        return CounterfactualMatrix(self.revenue[idx].copy(), self.cost[idx].copy())


def validate_counterfactual(data: RctDataset, truth: CounterfactualMatrix) -> None:
    """Check that observed outcomes equal the matrix entries bit-exactly."""
    if truth.revenue.shape != (data.n, data.num_treatments):
        raise ValidationError("counterfactual matrix shape does not match dataset")
    rows = np.arange(data.n)
    if not (
        np.array_equal(truth.revenue[rows, data.treatment], data.revenue)
        and np.array_equal(truth.cost[rows, data.treatment], data.cost)
    ):
        raise ValidationError("observed outcomes differ from counterfactual entries")


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape and response family of a synthetic randomized trial.

    Families (all assign treatments uniformly at random and price
    treatment 0 at zero cost; cost grows linearly with treatment level):

    - ``saturating``: revenue rises with treatment level and saturates at a
      per-individual rate; per-individual responsiveness and cost slope.
    - ``linear``: revenue rises linearly with treatment level.
    - ``hetero``: saturating response whose per-individual responsiveness
      rises along one feature direction through the bulk of the population
      but reverses sharply in the upper tail ("sleeping dogs"). The deep,
      rare reversal dominates a squared-error fit of limited capacity far
      more than it matters for allocation value, so outcome accuracy and
      decision quality pull a misspecified model in different directions.

    ``noise`` is the standard deviation of revenue noise baked into the
    counterfactual matrix itself (observed rows are copied from the matrix,
    so matrix and observations agree exactly at any noise level).
    """

    n: int
    m: int
    d: int
    noise: float = 0.1
    family: str = "saturating"

    def __post_init__(self):
        if self.n <= 0:
            raise ConfigError("generator needs n > 0")
        if self.m < 2:
            raise ConfigError("generator needs m >= 2")
        if self.d < 1:
            raise ConfigError("generator needs d >= 1")
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise ConfigError("noise level must be finite and >= 0")
        if self.family not in GENERATOR_FAMILIES:
            raise ConfigError(
                f"unknown family {self.family!r}; choose from {GENERATOR_FAMILIES}"
            )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function; shared with the model's cross-entropy warm start."""
    with np.errstate(over="ignore"):  # exp(-z) is inf below z = -709; 1/inf = 0 is exact
        return 1.0 / (1.0 + np.exp(-z))


def generate_synthetic(config: GeneratorConfig, seed: int
                       ) -> tuple[RctDataset, CounterfactualMatrix]:
    """Draw a synthetic randomized trial with full counterfactual outcomes.

    Features are i.i.d. standard normal. Treatments are assigned uniformly
    at random, independent of features. Revenue noise lives inside the
    counterfactual matrix, so the observed columns match it bit-exactly;
    revenues are clipped at zero to keep observations nonnegative. Costs are
    noise-free and nondecreasing in the treatment index, with treatment 0
    free.
    """
    rng = np.random.default_rng(seed)
    n, m, d = config.n, config.m, config.d
    x = rng.standard_normal((n, d))
    u = np.arange(m) / (m - 1)  # treatment intensity in [0, 1]

    def unit_direction() -> np.ndarray:
        w = rng.standard_normal(d)
        return w / np.linalg.norm(w)

    w_base = unit_direction()
    w_resp = unit_direction()
    w_curv = unit_direction()
    w_cost = unit_direction()

    slope = 0.5 + _sigmoid(2.0 * (x @ w_cost))  # cost slope, (0.5, 1.5)

    if config.family == "hetero":
        # responsiveness climbs through the bulk, then reverses steeply in the
        # rare upper tail ("sleeping dogs"); the reversal is deep enough to
        # flatten a least-squares fit of the bulk ordering but bounded so
        # revenue stays positive
        s = x @ w_resp
        resp = (0.3 + 0.35 * np.minimum(s, 1.2)
                - 2.2 * np.clip(s - 1.2, 0.0, 1.2))
        base = 3.0 + 0.5 * _sigmoid(2.0 * (x @ w_base))
        g = (1.0 - np.exp(-2.0 * u)) / (1.0 - np.exp(-2.0))
        revenue = base[:, None] + 1.4 * resp[:, None] * g[None, :]
    else:
        base = 1.0 + _sigmoid(2.0 * (x @ w_base))          # (n,), in (1, 2)
        resp = _sigmoid(2.0 * (x @ w_resp))                # responsiveness, (0, 1)
        if config.family == "linear":
            gain = resp[:, None] * u[None, :]
        else:
            # saturating response, normalized so the top treatment gains `resp`
            curv = 1.0 + 3.0 * _sigmoid(2.0 * (x @ w_curv))
            g = 1.0 - np.exp(-curv[:, None] * u[None, :])
            gain = resp[:, None] * g / (1.0 - np.exp(-curv[:, None]))
        revenue = base[:, None] + 2.0 * gain

    if config.noise > 0:
        revenue = revenue + config.noise * rng.standard_normal((n, m))
    revenue = np.maximum(revenue, 0.0)
    cost = slope[:, None] * u[None, :]

    truth = CounterfactualMatrix(revenue=revenue, cost=cost)
    t = rng.integers(0, m, size=n)
    rows = np.arange(n)
    data = RctDataset(
        ids=np.arange(n, dtype=np.int64),
        features=x,
        treatment=t,
        revenue=truth.revenue[rows, t],
        cost=truth.cost[rows, t],
        num_treatments=m,
    )
    return data, truth


def split(data: RctDataset, fraction: float, seed: int
          ) -> tuple[RctDataset, RctDataset]:
    """Disjoint random partition; the first part holds ``fraction`` of rows."""
    if not 0.0 < fraction < 1.0:
        raise ValidationError("split fraction must lie in (0, 1)")
    n_first = int(round(data.n * fraction))
    if n_first == 0 or n_first == data.n:
        raise ValidationError(
            f"fraction {fraction} leaves an empty split for n={data.n}"
        )
    perm = np.random.default_rng(seed).permutation(data.n)
    return data.take(perm[:n_first]), data.take(perm[n_first:])


# ---------------------------------------------------------------------------
# CSV input/output


def _feature_columns(header: list[str]) -> int:
    d = 0
    while f"f{d}" in header:
        d += 1
    return d


def load_csv(path: str | Path, num_treatments: int | None = None) -> RctDataset:
    """Parse a dataset CSV; malformed rows raise with their line number.

    ``num_treatments`` declares M; when omitted it is inferred as the
    largest treatment index plus one. Propensities default to the empirical
    treatment shares unless the file has a ``propensity`` column, in which
    case all rows of a treatment must agree on its value.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        header = [h.strip() for h in header]
        d = _feature_columns(header)
        expected = ["id"] + [f"f{k}" for k in range(d)] + ["treatment", "revenue", "cost"]
        has_prop = header == expected + ["propensity"]
        if not has_prop and header != expected:
            raise ParseError(
                f"unexpected header {header!r}; want id, f0..f{{d-1}}, treatment, "
                "revenue, cost[, propensity]",
                line=1,
            )
        ids, feats, ts, rs, cs, ps = [], [], [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, found {len(row)}", line=lineno
                )
            try:
                ids.append(int(row[0]))
                feats.append([float(v) for v in row[1:1 + d]])
                ts.append(int(row[1 + d]))
                rs.append(float(row[2 + d]))
                cs.append(float(row[3 + d]))
                if has_prop:
                    ps.append(float(row[4 + d]))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None

    treatment = np.asarray(ts, dtype=np.int64)
    if treatment.size == 0:
        raise ParseError("no data rows", line=2)
    uniq, seen = np.unique(ids, return_counts=True)
    if (seen > 1).any():
        raise ValidationError(f"id {int(uniq[np.argmax(seen > 1)])} appears more than once")
    m = int(num_treatments) if num_treatments is not None else int(treatment.max()) + 1
    if treatment.max() >= m:
        bad = int(np.argmax(treatment >= m))
        raise ValidationError(
            f"row id {ids[bad]}: treatment {int(treatment[bad])} >= declared M={m}"
        )
    counts = np.bincount(treatment, minlength=m)
    if (counts == 0).any():
        missing = int(np.argmax(counts == 0))
        raise ValidationError(
            f"treatment {missing} has no samples; per-treatment weights would divide by zero"
        )

    propensities = None
    if has_prop:
        pvals = np.asarray(ps, dtype=np.float64)
        propensities = np.zeros(m)
        for j in range(m):
            vals = np.unique(pvals[treatment == j])
            if vals.size != 1:
                raise ValidationError(
                    f"propensity column disagrees within treatment {j}: {vals}"
                )
            propensities[j] = vals[0]

    return RctDataset(
        ids=np.asarray(ids, dtype=np.int64),
        features=np.asarray(feats, dtype=np.float64).reshape(len(ids), d),
        treatment=treatment,
        revenue=np.asarray(rs, dtype=np.float64),
        cost=np.asarray(cs, dtype=np.float64),
        num_treatments=m,
        propensities=propensities,
    )


def write_csv(path: str | Path, data: RctDataset) -> None:
    """Write a dataset CSV (always including the propensity column)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        d = data.num_features
        writer.writerow(
            ["id"] + [f"f{k}" for k in range(d)] + ["treatment", "revenue", "cost", "propensity"]
        )
        prop = data.sample_propensity()
        for i in range(data.n):
            writer.writerow(
                [int(data.ids[i])]
                + [repr(float(v)) for v in data.features[i]]
                + [int(data.treatment[i]), repr(float(data.revenue[i])),
                   repr(float(data.cost[i])), repr(float(prop[i]))]
            )


def load_counterfactual_csv(path: str | Path) -> tuple[np.ndarray, CounterfactualMatrix]:
    """Parse an outcome-matrix CSV; returns (ids, matrix)."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        m = 0
        while f"r{m}" in header:
            m += 1
        expected = ["id"] + [f"r{j}" for j in range(m)] + [f"c{j}" for j in range(m)]
        if m == 0 or header != expected:
            raise ParseError(
                f"unexpected header {header!r}; want id, r0..r{{M-1}}, c0..c{{M-1}}", line=1
            )
        ids, rev, cost = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 1 + 2 * m:
                raise ParseError(f"expected {1 + 2 * m} fields, found {len(row)}", line=lineno)
            try:
                ids.append(int(row[0]))
                rev.append([float(v) for v in row[1:1 + m]])
                cost.append([float(v) for v in row[1 + m:]])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
    return (
        np.asarray(ids, dtype=np.int64),
        CounterfactualMatrix(np.asarray(rev), np.asarray(cost)),
    )


def write_counterfactual_csv(path: str | Path, ids: np.ndarray,
                             truth: CounterfactualMatrix) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        m = truth.num_treatments
        writer.writerow(["id"] + [f"r{j}" for j in range(m)] + [f"c{j}" for j in range(m)])
        for i in range(truth.n):
            writer.writerow(
                [int(ids[i])]
                + [repr(float(v)) for v in truth.revenue[i]]
                + [repr(float(v)) for v in truth.cost[i]]
            )


# ---------------------------------------------------------------------------
# key=value configuration


def read_config(path: str | Path | None, overrides: Iterable[str] = ()
                ) -> dict[str, str]:
    """Flat ``key=value`` entries of a config file, then of ``overrides``.

    Blank lines and ``#`` comments are skipped and later entries win. A file
    line without ``=`` raises ``ParseError`` with its line number, an
    override without one ``ConfigError``.
    """
    values: dict[str, str] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines() if path else []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, val = item.partition("=")
        values[key.strip()] = val.strip()
    return values


def config_section(values: dict[str, str], section: str, known: Iterable[str]
                   ) -> dict[str, str]:
    """Entries of one section with its prefix stripped; unknown keys raise.

    Section ``""`` holds the keys without a prefix (the generator's). Keys
    of other sections are left to their own readers.
    """
    prefix = f"{section}." if section else ""
    own = {k[len(prefix):]: v for k, v in values.items()
           if (k.startswith(prefix) if section else "." not in k)}
    unknown = sorted(set(own) - set(known))
    if unknown:
        raise ConfigError(f"unknown {section or 'generator'} config keys: "
                          + ", ".join(prefix + k for k in unknown))
    return own


def generator_config(values: dict[str, str]) -> tuple[GeneratorConfig, int]:
    """Generator config and seed from the unprefixed keys of ``values``."""
    own = config_section(values, "", ("n", "m", "d", "noise", "family", "seed"))
    try:
        config = GeneratorConfig(
            n=int(own["n"]),
            m=int(own["m"]),
            d=int(own["d"]),
            noise=float(own.get("noise", "0.1")),
            family=own.get("family", "saturating"),
        )
        seed = int(own.get("seed", "0"))
    except KeyError as exc:
        raise ConfigError(f"generator config missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ConfigError(f"bad generator config value: {exc}") from None
    return config, seed


def load_generator_config(path: str | Path) -> tuple[GeneratorConfig, int]:
    """Read a flat key=value generator file; returns (config, seed)."""
    return generator_config(read_config(path))
