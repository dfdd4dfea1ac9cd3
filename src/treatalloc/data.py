"""Randomized-trial datasets: loading, validation, synthesis, splitting.

A dataset holds one observed (treatment, revenue, cost) triple per individual
plus per-treatment assignment propensities. ``RctDataset``'s constructor
checks it; ``load_csv`` adds only what a file can get wrong besides
(duplicate ids, a treatment without samples). Synthetic datasets additionally
come with a full counterfactual outcome matrix covering every treatment,
which downstream modules use as a ground-truth oracle. It is a
``CounterfactualMatrix``, the name the ground truth gives
``solver.PredictionMatrix``: truth and predictions are one type, which
copies the arrays handed to it. Only ``RctDataset`` takes over its arrays.
``config_section`` reads and checks one section of a ``key=value`` config,
for every reader.

Every CSV file of the package is read by ``_read_table`` and written by
``_write_table``: UTF-8, a header row, CRLF line ends, ints in decimal and
floats as their shortest round-trip text (``repr``). Readers want the exact
header of their layout (surrounding spaces aside). The layouts:

- dataset: ``id, f0..f{d-1}, treatment, revenue, cost[, propensity]``
  (``write_csv`` always adds ``propensity``);
- outcome matrix (truth or predictions): ``id, r0..r{M-1}, c0..c{M-1}``;
- allocation (``treatalloc solve``): ``id, choice``;
- cost curve (``treatalloc evaluate``, read by ``report``): ``CURVE_COLUMNS``,
  ``budget, per_capita_cost, per_capita_revenue, matched_fraction``;
- gradient dump (``treatalloc train --dump-gradients``):
  ``id, treatment, d_revenue, d_cost``, one row per individual and treatment.
"""

from __future__ import annotations

import csv
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, ParseError, ValidationError
from .solver import PredictionMatrix as CounterfactualMatrix

GENERATOR_FAMILIES = ("saturating", "linear", "hetero")


def _freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` marked read-only in place; a view whose base can still be
    written is copied first, so no write through the base reaches it."""
    base = arr.base
    if base is not None and (not isinstance(base, np.ndarray) or base.flags.writeable):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _unchecked(cls, **fields):
    """A ``cls`` holding ``fields``, skipping its checks: values valid by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(eq=False)
class RctDataset:
    """Immutable randomized-trial sample set.

    The constructor checks every field; a treatment outside ``[0, M)``
    names its row id. ``treatment_counts[j]`` is derived: the count ``N_j``.
    ``propensities[j]`` is the probability that a sample was assigned
    treatment ``j``; it defaults to the empirical share ``N_j / N`` and is
    overridden when the source file carries an explicit propensity column.
    It takes over the arrays handed to it: they are marked read-only in place
    (a view whose base can still be written is copied first), so writing to
    them through another reference, such as an earlier view, is unsupported.
    The outcome matrices copy theirs instead (``solver.PredictionMatrix``).
    """

    ids: np.ndarray          # (n,) int64
    features: np.ndarray     # (n, d) float64
    treatment: np.ndarray    # (n,) int64 in [0, m)
    revenue: np.ndarray      # (n,) float64, observed outcome
    cost: np.ndarray         # (n,) float64, observed cost
    num_treatments: int
    treatment_counts: np.ndarray = field(init=False, repr=False)  # (m,) int64
    propensities: np.ndarray = field(default=None)                # (m,) float64

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
        if n and (self.treatment.min() < 0 or self.treatment.max() >= m):
            bad = int(np.argmax((self.treatment < 0) | (self.treatment >= m)))
            raise ValidationError(
                f"row id {int(self.ids[bad])}: treatment {int(self.treatment[bad])} "
                f"outside [0, {m})"
            )
        if m < 1:
            raise ValidationError("num_treatments must be >= 1")
        if not np.isfinite(self.features).all():
            raise ValidationError("features contain non-finite values")
        if not np.isfinite(self.revenue).all() or not np.isfinite(self.cost).all():
            raise ValidationError("revenue/cost contain non-finite values")
        if n and (self.revenue.min() < 0 or self.cost.min() < 0):
            raise ValidationError("observed revenue and cost must be >= 0")

        counts = self.treatment_counts = _freeze(np.bincount(self.treatment, minlength=m))

        if self.propensities is None:
            self.propensities = counts / max(n, 1)
        self.propensities = np.asarray(self.propensities, dtype=np.float64)
        if self.propensities.shape != (m,):
            raise ValidationError("propensities must have one entry per treatment")
        if not abs(float(self.propensities.sum()) - 1.0) <= 1e-9:  # NaN fails too
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
        """Subset by row index; ``IndexError`` when one is out of range. The
        rows were checked with this dataset, so the batch is valid by
        construction and not checked again: frozen copies, recounted counts
        and the batch's own propensities ``N_j / n``. It must not be empty."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1 or not idx.size:
            raise ValidationError("a subset needs a nonempty 1-D array of row indices")
        rows = {name: _freeze(getattr(self, name).take(idx, axis=0))
                for name in ("ids", "features", "treatment", "revenue", "cost")}
        counts = _freeze(np.bincount(rows["treatment"], minlength=self.num_treatments))
        return _unchecked(RctDataset, **rows, num_treatments=self.num_treatments,
                          treatment_counts=counts, propensities=_freeze(counts / idx.size))


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
    free. A noise level so large that revenue overflows raises ConfigError.
    """
    rng = np.random.default_rng(seed)
    n, m, d = config.n, config.m, config.d
    x = rng.standard_normal((n, d))
    # treatment intensity in [0, 1], a column: the outcome arrays are built
    # (m, n), the matrix's own layout (see ``solver``), so it takes them as is
    u = (np.arange(m) / (m - 1))[:, None]

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
        revenue = base + 1.4 * resp * g
    else:
        base = 1.0 + _sigmoid(2.0 * (x @ w_base))          # (n,), in (1, 2)
        resp = _sigmoid(2.0 * (x @ w_resp))                # responsiveness, (0, 1)
        if config.family == "linear":
            gain = resp * u
        else:
            # saturating response, normalized so the top treatment gains `resp`
            curv = 1.0 + 3.0 * _sigmoid(2.0 * (x @ w_curv))
            g = 1.0 - np.exp(-curv * u)
            gain = resp * g / (1.0 - np.exp(-curv))
        revenue = base + 2.0 * gain

    if config.noise > 0:
        with np.errstate(over="ignore"):  # a huge noise level: checked below
            revenue += config.noise * rng.standard_normal((n, m)).T
    np.maximum(revenue, 0.0, out=revenue)
    if not np.isfinite(revenue).all():
        raise ConfigError(f"noise level {config.noise} overflows the revenue")
    cost = slope * u

    t = rng.integers(0, m, size=n)
    cells = t * n + np.arange(n)  # flat (m, n) index of each observed outcome
    data = RctDataset(
        ids=np.arange(n, dtype=np.int64),
        features=x,
        treatment=t,
        revenue=revenue.ravel().take(cells),
        cost=cost.ravel().take(cells),
        num_treatments=m,
    )
    # valid by construction: finite, (m, n) and m >= 2
    truth = _unchecked(CounterfactualMatrix, revenue=_freeze(revenue).T, cost=_freeze(cost).T)
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

CSV_BLOCK_ROWS = 4096  # rows formatted per write, so the text never holds a whole file
CURVE_COLUMNS = ["budget", "per_capita_cost", "per_capita_revenue", "matched_fraction"]


def _read_table(path: str | Path, accepts: Callable[[list[str]], bool], want: str
                ) -> tuple[list[str], list[np.ndarray]]:
    """Header and columns of a CSV table, ``id`` and ``treatment`` as int64
    and the rest as float64; ``accepts`` judges the whitespace-stripped header.

    The body is parsed in bulk. Should that fail, the row loop below is what
    the codec accepts: it returns the same columns for what the bulk parse
    refuses (quoted fields, CR-only line ends, ``1_000``) or raises
    ``ParseError`` at the first bad row, naming the physical line on which
    that row starts. Blank lines are skipped.
    """
    bulk = _bulk_safe(path)
    with Path(path).open(newline="", encoding="utf-8") as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise ParseError("empty file", line=1, path=path) from None
        if not accepts(header):
            raise ParseError(f"unexpected header {header!r}; want {want}", 1, path)
        types = [np.int64 if h in ("id", "treatment") else np.float64 for h in header]
        if bulk:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # an empty body only warns
                    table = np.loadtxt(fh, dtype=list(zip(header, types)), delimiter=",",
                                       comments=None, ndmin=1)
            except (ValueError, Warning):
                pass
            else:
                return header, [table[h].copy() for h in header]
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        parsers = [(lambda v: np.int64(int(v))) if t is np.int64 else float for t in types]
        columns: list[list] = [[] for _ in header]
        end = reader.line_num  # physical lines read so far
        for row in reader:
            lineno, end = end + 1, reader.line_num  # the record's first line
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, found {len(row)}",
                                 line=lineno, path=path)
            try:
                for column, parse, value in zip(columns, parsers, row):
                    column.append(parse(value))
            except (ValueError, OverflowError) as exc:  # no number, or past int64
                raise ParseError(str(exc), line=lineno, path=path) from None
    return header, [np.asarray(c, dtype=t) for c, t in zip(columns, types)]


def _bulk_safe(path: str | Path) -> bool:
    """Whether loadtxt reads the file as ``int()`` and ``float()`` would: it
    strips bytes 0x1c..0x1f around a number, and its int parser takes some
    non-ASCII letters for digits. A file that is not UTF-8 raises
    ``ParseError`` at the line of its first bad byte."""
    raw = Path(path).read_bytes()
    if raw.isascii():
        return not any(byte in raw for byte in b"\x1c\x1d\x1e\x1f")
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text ({exc.reason})", line, path) from None
    return False


def _write_table(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length columns under ``header``: ints in decimal, floats
    as ``repr`` (the shortest text that reads back to the same float),
    CRLF line ends, ``CSV_BLOCK_ROWS`` rows formatted at a time."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            cells = [map(repr if c.dtype.kind == "f" else str,
                         c[start:start + CSV_BLOCK_ROWS].tolist()) for c in columns]
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*cells)]))


def _numbered(header: list[str], prefix: str) -> list[str]:
    """``prefix0, prefix1, ...`` for as long as ``header`` holds them."""
    k = 0
    while f"{prefix}{k}" in header:
        k += 1
    return [f"{prefix}{j}" for j in range(k)]


def _dataset_header(header: list[str]) -> bool:
    expected = ["id", *_numbered(header, "f"), "treatment", "revenue", "cost"]
    return header in (expected, expected + ["propensity"])


def _matrix_header(header: list[str]) -> bool:
    revenues = _numbered(header, "r")
    costs = [f"c{j}" for j in range(len(revenues))]
    return bool(revenues) and header == ["id", *revenues, *costs]


def load_csv(path: str | Path) -> RctDataset:
    """Parse a dataset CSV; malformed rows raise with their line number.

    M is the largest treatment index plus one; every treatment below it
    needs a sample, ids must be unique and ``RctDataset`` checks the rest.
    Propensities default to the empirical treatment shares unless the file
    has a ``propensity`` column, whose rows of a treatment must agree.
    """
    header, columns = _read_table(
        path, _dataset_header, "id, f0..f{d-1}, treatment, revenue, cost[, propensity]")
    d = header.index("treatment") - 1
    ids, treatment = columns[0], columns[1 + d]
    if treatment.size == 0:
        raise ParseError("no data rows", line=2, path=path)
    uniq, seen = np.unique(ids, return_counts=True)
    if (seen > 1).any():
        raise ValidationError(f"id {int(uniq[np.argmax(seen > 1)])} appears more than once")
    m = int(treatment.max()) + 1
    # n rows hold at most n treatments, so the first one missing is at most n
    missing = np.setdiff1d(np.arange(min(m, treatment.size + 1)), treatment)
    if missing.size:
        raise ValidationError(
            f"treatment {missing[0]} has no samples; per-treatment weights would divide by zero"
        )

    propensities = None
    if len(header) > 4 + d:
        pvals = columns[4 + d]
        propensities = np.zeros(m)
        for j in range(m):
            vals = np.unique(pvals[treatment == j])
            if vals.size != 1:
                raise ValidationError(
                    f"propensity column disagrees within treatment {j}: {vals}"
                )
            propensities[j] = vals[0]

    return RctDataset(
        ids=ids,
        features=np.stack(columns[1:1 + d], axis=1) if d else np.zeros((ids.size, 0)),
        treatment=treatment,
        revenue=columns[2 + d],
        cost=columns[3 + d],
        num_treatments=m,
        propensities=propensities,
    )


def write_csv(path: str | Path, data: RctDataset) -> None:
    """Write a dataset CSV (always including the propensity column)."""
    features = [f"f{k}" for k in range(data.num_features)]
    _write_table(path, ["id", *features, "treatment", "revenue", "cost", "propensity"],
                 [data.ids, *data.features.T, data.treatment, data.revenue, data.cost,
                  data.sample_propensity()])


def load_counterfactual_csv(path: str | Path) -> tuple[np.ndarray, CounterfactualMatrix]:
    """Parse an outcome-matrix CSV; returns (ids, matrix)."""
    header, columns = _read_table(path, _matrix_header, "id, r0..r{M-1}, c0..c{M-1}")
    m = len(header) // 2
    if columns[0].size == 0:
        raise ValidationError("outcome matrix has no data rows")
    return columns[0], CounterfactualMatrix(np.stack(columns[1:1 + m]).T,
                                            np.stack(columns[1 + m:]).T)


def write_counterfactual_csv(path: str | Path, ids: np.ndarray,
                             truth: CounterfactualMatrix) -> None:
    m = truth.num_treatments
    _write_table(path, ["id"] + [f"r{j}" for j in range(m)] + [f"c{j}" for j in range(m)],
                 [np.asarray(ids), *truth.revenue.T, *truth.cost.T])


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
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines() if path else []
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno, path=path)
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, val = item.partition("=")
        values[key.strip()] = val.strip()
    return values


def _floats(text: str) -> tuple[float, ...]:  # a grid key's comma-separated values
    return tuple(float(v) for v in text.split(","))


def config_section(values: dict[str, str], section: str,
                   parsers: dict[str, Callable[[str], object]], required: Iterable[str] = ()
                   ) -> dict[str, object]:
    """The entries of one section, keyed without its prefix and parsed in
    the order of ``parsers``, which names every key of the section.

    Section ``""`` holds the keys without a prefix (the generator's); other
    sections are left to their own readers. An unknown key, a missing
    ``required`` one or a ``ValueError`` of a parser raises ``ConfigError``.
    """
    prefix = f"{section}." if section else ""
    own = {k[len(prefix):]: v for k, v in values.items()
           if (k.startswith(prefix) if section else "." not in k)}
    unknown = sorted(set(own) - set(parsers))
    if unknown:
        raise ConfigError(f"unknown {section or 'generator'} config keys: "
                          + ", ".join(prefix + k for k in unknown))
    for key in required:
        if key not in own:
            raise ConfigError(f"{section or 'generator'} config needs key {prefix}{key}")
    parsed = {}
    for key, parse in parsers.items():
        if key in own:
            try:
                parsed[key] = parse(own[key])
            except ValueError as exc:
                raise ConfigError(f"bad {prefix}{key}={own[key]!r}: {exc}") from None
    return parsed


def generator_config(values: dict[str, str]) -> tuple[GeneratorConfig, int]:
    """Generator config and seed from the unprefixed keys of ``values``;
    ``n``, ``m`` and ``d`` are required, the other fields keep their defaults."""
    own = config_section(values, "", {"n": int, "m": int, "d": int, "noise": float,
                                      "family": str, "seed": int}, required=("n", "m", "d"))
    seed = own.pop("seed", 0)
    config = GeneratorConfig(**own)
    if seed < 0:
        raise ConfigError(f"generator seed must be >= 0, got {seed}")
    return config, seed
