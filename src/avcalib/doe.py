"""Orthogonal-array test design and range analysis for factor screening.

Arrays are built with the Rao-Hamming linear construction over GF(s): for
s^k runs, one column per projective point of GF(s)^k, which yields a
strength-2 array with (s^k - 1) / (s - 1) columns. The construction is
deterministic, so a given (levels, factors) request always produces the
same matrix.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

SUPPORTED_LEVELS = (2, 3, 4, 5)

# Runs are capped at levels**MAX_EXPONENT; beyond that we refuse rather
# than silently emit a huge design.
MAX_EXPONENT = 6

# GF(4) represented as {0, 1, a, a+1} -> {0, 1, 2, 3}; addition is XOR.
_GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


class CapacityError(ValueError):
    """Requested factor count exceeds the largest supported array."""


class DegenerateLevelError(ValueError):
    """A single-level factor cannot be mapped onto a non-degenerate range."""


def _gf_add(s: int, a: int, b: int) -> int:
    if s == 4:
        return a ^ b
    return (a + b) % s


def _gf_mul(s: int, a: int, b: int) -> int:
    if s == 4:
        return _GF4_MUL[a][b]
    return (a * b) % s


def _projective_columns(s: int, k: int) -> list[tuple[int, ...]]:
    """Nonzero vectors of GF(s)^k whose first nonzero coordinate is 1,
    ordered by sum(c_i * s^i) so the k basic columns come out in the
    conventional Taguchi positions."""
    cols = []
    for code in range(1, s**k):
        vec = []
        n = code
        for _ in range(k):
            vec.append(n % s)
            n //= s
        first = next(v for v in vec if v != 0)
        if first == 1:
            cols.append(tuple(vec))
    return cols


@dataclass(frozen=True)
class OrthogonalArray:
    """A runs x factors matrix of level indices in {0, ..., levels-1}."""

    levels: int
    matrix: np.ndarray

    @property
    def runs(self) -> int:
        return self.matrix.shape[0]

    @property
    def factors(self) -> int:
        return self.matrix.shape[1]

    def validate(self) -> None:
        """Check per-column balance and pairwise (strength-2) balance."""
        s, n = self.levels, self.runs
        if n % s != 0 or n % (s * s) != 0:
            raise ValueError("run count incompatible with level count")
        per_level = n // s
        per_pair = n // (s * s)
        m = self.matrix
        for j in range(self.factors):
            counts = np.bincount(m[:, j], minlength=s)
            if not np.all(counts == per_level):
                raise ValueError(f"column {j} is not level-balanced")
        for i in range(self.factors):
            for j in range(i + 1, self.factors):
                pair = m[:, i].astype(np.int64) * s + m[:, j]
                counts = np.bincount(pair, minlength=s * s)
                if not np.all(counts == per_pair):
                    raise ValueError(f"columns ({i}, {j}) violate pair balance")

    def to_csv(self) -> str:
        buf = io.StringIO()
        cols = ",".join(f"factor_{j}" for j in range(self.factors))
        buf.write(f"case_id,{cols}\n")
        for i, row in enumerate(self.matrix):
            buf.write(f"{i}," + ",".join(str(int(v)) for v in row) + "\n")
        return buf.getvalue()


def build_orthogonal_array(levels: int, n_factors: int) -> OrthogonalArray:
    """Smallest strength-2 array with `levels` symmetric levels and at
    least `n_factors` columns, truncated to exactly `n_factors`.

    levels must be a prime power in {2, 3, 4, 5}.
    """
    if levels not in SUPPORTED_LEVELS:
        raise ValueError(f"unsupported level count {levels}; pick one of {SUPPORTED_LEVELS}")
    if n_factors < 1:
        raise ValueError("need at least one factor")
    s = levels
    for k in range(2, MAX_EXPONENT + 1):
        max_cols = (s**k - 1) // (s - 1)
        if n_factors <= max_cols:
            break
    else:
        need = s ** (MAX_EXPONENT + 1)
        raise CapacityError(
            f"{n_factors} factors at {s} levels exceeds the largest supported "
            f"array ({s}^{MAX_EXPONENT} runs); would need at least {need} runs"
        )
    cols = _projective_columns(s, k)[:n_factors]
    runs = s**k
    matrix = np.zeros((runs, n_factors), dtype=np.int16)
    for run in range(runs):
        # run index digits, most significant first: r_1 varies slowest
        digits = []
        n = run
        for _ in range(k):
            digits.append(n % s)
            n //= s
        digits.reverse()
        for j, col in enumerate(cols):
            acc = 0
            for r, c in zip(digits, col):
                acc = _gf_add(s, acc, _gf_mul(s, r, c))
            matrix[run, j] = acc
    oa = OrthogonalArray(levels=s, matrix=matrix)
    oa.validate()
    return oa


@dataclass(frozen=True)
class TestCase:
    """One concrete parameter assignment derived from an array row."""

    case_id: int
    values: dict[str, float]


def level_values(lower: float, upper: float, n_levels: int) -> list[float]:
    """Uniformly spaced candidate values over [lower, upper], endpoints
    included."""
    if n_levels < 2:
        if lower == upper:
            return [lower]
        raise DegenerateLevelError(
            f"a single level cannot span [{lower}, {upper}]; give the factor "
            "at least two levels or collapse its bounds"
        )
    step = (upper - lower) / (n_levels - 1)
    return [lower + k * step for k in range(n_levels)]


def map_levels_to_values(oa: OrthogonalArray, space) -> list[TestCase]:
    """Turn array rows into test cases by mapping level k of parameter j
    onto lower_j + k * (upper_j - lower_j) / (levels - 1).

    `space` is a ParameterSpace; its parameter order must match the array
    columns.
    """
    ids = list(space.ids)
    if len(ids) != oa.factors:
        raise ValueError(
            f"parameter space has {len(ids)} entries but the array has {oa.factors} columns"
        )
    grids = {}
    for pid in ids:
        lo, hi = space.bounds(pid)
        grids[pid] = level_values(lo, hi, oa.levels)
    cases = []
    for i, row in enumerate(oa.matrix):
        values = {pid: grids[pid][int(lvl)] for pid, lvl in zip(ids, row)}
        cases.append(TestCase(case_id=i, values=values))
    return cases


@dataclass(frozen=True)
class RangeAnalysisResult:
    """Per-factor level means, accuracy ranges, impact ranking and the best
    level combination."""

    level_means: dict[tuple[str, int], float]
    ranges: dict[str, float]
    ranking: tuple[str, ...]
    critical_set: tuple[str, ...]
    best_levels: dict[str, int]


def range_analysis(
    oa: OrthogonalArray,
    accuracies,
    k_critical: int,
    parameter_ids=None,
) -> RangeAnalysisResult:
    """Rank factors by the spread of their per-level mean accuracies and
    select the top-k as critical.

    Ties in the ranking are broken by ascending column index; ties between
    levels of one factor resolve to the lower level index.
    """
    acc = np.asarray(accuracies, dtype=float)
    if acc.shape[0] != oa.runs:
        raise ValueError(f"expected {oa.runs} accuracies, got {acc.shape[0]}")
    if k_critical > oa.factors:
        raise ValueError("k_critical exceeds the number of factors")
    if parameter_ids is None:
        parameter_ids = tuple(f"factor_{j}" for j in range(oa.factors))
    parameter_ids = tuple(parameter_ids)
    if len(parameter_ids) != oa.factors:
        raise ValueError("parameter_ids length must match the array columns")

    level_means: dict[tuple[str, int], float] = {}
    ranges: dict[str, float] = {}
    best_levels: dict[str, int] = {}
    for j, pid in enumerate(parameter_ids):
        means = []
        for lvl in range(oa.levels):
            mask = oa.matrix[:, j] == lvl
            mean = float(acc[mask].mean())
            level_means[(pid, lvl)] = mean
            means.append(mean)
        means = np.asarray(means)
        ranges[pid] = float(means.max() - means.min())
        best_levels[pid] = int(np.argmax(means))

    order = sorted(range(oa.factors), key=lambda j: (-ranges[parameter_ids[j]], j))
    ranking = tuple(parameter_ids[j] for j in order)
    return RangeAnalysisResult(
        level_means=level_means,
        ranges=ranges,
        ranking=ranking,
        critical_set=ranking[:k_critical],
        best_levels=best_levels,
    )
