"""Content-vs-topology statistics: rank correlations, label prevalence,
and KL-divergence information gain.

The gain of a metric m for a class C compares two ways of drawing a
labeled service: proportionally to m, or uniformly. Both induce a
Bernoulli distribution of "the drawn service is in C"; the gain is their
KL divergence in bits. Constant metrics carry zero gain, and the gain is
invariant under positive rescaling of the metric.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError, ParseError, UsageError
from .graphs import ServiceGraph
from .metrics import VertexMetrics, _pearson

NORMAL = "Normal"
SUSPICIOUS = "Suspicious"
UNKNOWN = "Unknown"

NORMAL_CLASSES = (
    "Art",
    "Casino",
    "Cryptocurrency",
    "Forum (Legal)",
    "Hosting",
    "Library",
    "Marketplace (Legal)",
    "Personal",
    "Politics",
    "Religion",
    "Services (Legal)",
    "Social-Network",
)
SUSPICIOUS_CLASSES = (
    "Counterfeit Credit-Cards",
    "Counterfeit Money",
    "Counterfeit Personal-Identification",
    "Cryptolocker",
    "Drugs",
    "Forum (Illegal)",
    "Fraud",
    "Hacking",
    "Human-Trafficking",
    "Leaked-Data",
    "Marketplace (Illegal)",
    "Porno",
    "Services (Illegal)",
    "Violence",
)
UNKNOWN_CLASSES = ("Empty", "Locked", "Down")

_CLASS_TYPE = {c: NORMAL for c in NORMAL_CLASSES}
_CLASS_TYPE.update({c: SUSPICIOUS for c in SUSPICIOUS_CLASSES})
_CLASS_TYPE.update({c: UNKNOWN for c in UNKNOWN_CLASSES})
_CANONICAL = {c.casefold(): c for c in _CLASS_TYPE}


@dataclass(frozen=True)
class Label:
    cls: str
    type: str
    language: str


def _label(service: str, raw_cls: str, language: str) -> Label:
    canonical = _CANONICAL.get(raw_cls.strip().casefold())
    if canonical is None:
        raise DataError(f"unknown content class {raw_cls!r} for {service!r}")
    return Label(canonical, _CLASS_TYPE[canonical], language)


class LabelSet:
    """service id -> thematic label; Unknown-typed services are kept in the
    mapping but excluded from every analysis."""

    def __init__(self, labels: Mapping[str, Label]):
        self.labels = dict(labels)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, str]]) -> "LabelSet":
        return cls({row[0]: _label(*row) for row in rows})

    @classmethod
    def from_csv(cls, fh) -> "LabelSet":
        """Labels of a service,class,language CSV; errors name the line and `fh.name`."""
        source = getattr(fh, "name", None)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["service", "class", "language"]:
            raise ParseError("label CSV must start with 'service,class,language'", 1, source)
        labels = {}
        for row in reader:
            if not row:
                continue
            if len(row) < 3:
                raise ParseError(f"bad label row: {row!r}", reader.line_num, source)
            if row[0] in labels:
                raise ParseError(f"service {row[0]!r} listed twice", reader.line_num, source)
            try:
                labels[row[0]] = _label(*row[:3])
            except DataError as exc:
                raise ParseError(str(exc), reader.line_num, source) from None
        return cls(labels)

    def usable(self) -> dict[str, Label]:
        """Labels with a known type (Unknown excluded)."""
        return {s: l for s, l in self.labels.items() if l.type != UNKNOWN}

    def __len__(self) -> int:
        return len(self.labels)


# -- Spearman rank correlations ------------------------------------------------


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; ties get the mean of the ranks they span."""
    order = np.argsort(x, kind="stable")
    sx = x[order]
    # tie groups occupy sorted positions first[g] .. last[g]
    first = np.flatnonzero(np.concatenate([[True], sx[1:] != sx[:-1]]))
    sizes = np.diff(np.append(first, x.size))
    last = first + sizes - 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, sizes)
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rho: Pearson correlation of average-ranked data."""
    if x.size != y.size:
        raise UsageError("length mismatch")
    if x.size < 3:
        return math.nan
    return _pearson(_average_ranks(np.asarray(x, dtype=np.float64)),
                    _average_ranks(np.asarray(y, dtype=np.float64)))


def _write_matrix_csv(fh, rows, columns, values) -> None:
    """One CSV row per metric in `rows`, one cell per entry of `columns`;
    NaN cells are left empty."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["metric"] + list(columns))
    for name, line in zip(rows, values):
        writer.writerow([name] + ["" if math.isnan(v) else repr(float(v)) for v in line])


@dataclass(frozen=True)
class CorrelationMatrix:
    names: tuple[str, ...]
    values: np.ndarray  # symmetric, unit diagonal, NaN where undefined

    def write_csv(self, fh) -> None:
        _write_matrix_csv(fh, self.names, self.names, self.values)


def spearman_matrix(vm: VertexMetrics) -> CorrelationMatrix:
    """Pairwise rank correlations of the vertex metrics, with pairwise
    deletion of not-a-value entries; entries with fewer than 3 common
    points are NaN."""
    cols = vm.metric_columns()
    names = tuple(cols)
    k = len(names)
    values = np.full((k, k), np.nan)
    arrays = list(cols.values())
    finite = [np.isfinite(x) for x in arrays]
    for i in range(k):
        values[i, i] = 1.0
        for j in range(i + 1, k):
            both = finite[i] & finite[j]
            if np.count_nonzero(both) < 3:
                continue
            values[i, j] = values[j, i] = _pearson(
                _average_ranks(arrays[i][both]), _average_ranks(arrays[j][both]))
    return CorrelationMatrix(names=names, values=values)


# -- label prevalence -------------------------------------------------------------


@dataclass(frozen=True)
class Prevalence:
    fractions: dict[str, float]  # class -> share of labeled vertices
    coverage: float  # labeled share of the graph's vertex set
    n_labeled: int

    def to_dict(self) -> dict:
        return {
            "fractions": dict(sorted(self.fractions.items())),
            "coverage": self.coverage,
            "n_labeled": self.n_labeled,
        }


def tag_prevalence(labels: LabelSet, g: ServiceGraph) -> Prevalence:
    """Distribution of content classes over the graph's labeled vertices
    (Unknown-typed services excluded)."""
    usable = labels.usable()
    present = [usable[v].cls for v in g.vertices if v in usable]
    if not present:
        raise DataError("no labeled vertices in the graph")
    n = len(present)
    return Prevalence(
        fractions={c: k / n for c, k in Counter(present).items()},
        coverage=n / g.N,
        n_labeled=n,
    )


# -- information gain ---------------------------------------------------------------


@dataclass(frozen=True)
class GainResult:
    metric: str
    label: str
    p_weighted: float
    p_uniform: float
    gain_bits: float


def info_gain(values: np.ndarray, members: np.ndarray, metric: str = "", label: str = "") -> GainResult:
    """KL divergence (bits) between class membership under metric-weighted
    and uniform sampling.

    values must be non-negative with a positive sum; the class must be
    neither empty nor everything.
    """
    values = np.asarray(values, dtype=np.float64)
    members = np.asarray(members, dtype=bool)
    if values.shape != members.shape:
        raise UsageError("values/members length mismatch")
    if values.size == 0:
        raise DataError("empty population")
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise UsageError("metric values must be finite and non-negative")
    total = float(values.sum())
    if total <= 0.0:
        raise DataError("uninformative metric: all values are zero")
    p_w = float(values[members].sum()) / total
    p_u = float(members.sum()) / members.size
    if p_u <= 0.0 or p_u >= 1.0:
        raise DataError("degenerate class: prevalence must be strictly between 0 and 1")

    def term(p: float, q: float) -> float:
        return 0.0 if p == 0.0 else p * math.log2(p / q)

    gain = term(p_w, p_u) + term(1.0 - p_w, 1.0 - p_u)
    return GainResult(metric=metric, label=label, p_weighted=p_w, p_uniform=p_u,
                      gain_bits=gain)


@dataclass(frozen=True)
class GainTable:
    metrics: tuple[str, ...]
    labels: tuple[str, ...]  # classes then macro types
    values: np.ndarray  # gain in bits, NaN where undefined

    def write_csv(self, fh) -> None:
        _write_matrix_csv(fh, self.metrics, self.labels, self.values)


def gain_report(vm: VertexMetrics, labels: LabelSet) -> GainTable:
    """Gain of every metric for every observed content class plus the
    Normal/Suspicious macro types.

    Vertices without a usable label are excluded; within each metric row,
    vertices whose metric is not-a-value are dropped and prevalences are
    recomputed over the retained population, so both distributions live on
    the same sample space. Undefined cells (empty class, all-zero metric)
    are NaN.
    """
    usable = labels.usable()
    labeled_idx = [i for i, v in enumerate(vm.vertices) if v in usable]
    if not labeled_idx:
        raise DataError("no labeled vertices among the metrics' vertices")
    labeled_idx = np.array(labeled_idx, dtype=np.int64)
    classes = sorted({usable[vm.vertices[i]].cls for i in labeled_idx})
    label_names = tuple(classes) + (NORMAL, SUSPICIOUS)

    member_masks = {}
    cls_of = np.array([usable[vm.vertices[i]].cls for i in labeled_idx])
    type_of = np.array([usable[vm.vertices[i]].type for i in labeled_idx])
    for c in classes:
        member_masks[c] = cls_of == c
    member_masks[NORMAL] = type_of == NORMAL
    member_masks[SUSPICIOUS] = type_of == SUSPICIOUS

    cols = vm.metric_columns()
    metric_names = tuple(cols)
    values = np.full((len(metric_names), len(label_names)), np.nan)
    for i, m in enumerate(metric_names):
        col = np.asarray(cols[m], dtype=np.float64)[labeled_idx]
        defined = np.isfinite(col)
        if defined.sum() == 0:
            continue
        sub = col[defined]
        if np.any(sub < 0):
            continue  # signed metrics carry no sampling interpretation
        for j, name in enumerate(label_names):
            members = member_masks[name][defined]
            try:
                values[i, j] = info_gain(sub, members, metric=m, label=name).gain_bits
            except DataError:
                continue
    return GainTable(metrics=metric_names, labels=label_names, values=values)
