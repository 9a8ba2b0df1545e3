"""Calibration parameter spaces: named parameters with box bounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class ParameterSpec:
    id: str
    lower: float
    upper: float
    initial: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"{self.id}: lower bound must be strictly below upper")
        if not self.lower <= self.initial <= self.upper:
            raise ValueError(f"{self.id}: initial value {self.initial} outside bounds")


class ParameterSpace:
    """Ordered collection of ParameterSpec entries, keyed by id."""

    def __init__(self, specs):
        specs = tuple(specs)
        ids = [s.id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate parameter ids")
        self._specs = specs
        self._index = {s.id: s for s in specs}

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self._specs)

    @property
    def specs(self) -> tuple[ParameterSpec, ...]:
        return self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, pid) -> bool:
        return pid in self._index

    def spec(self, pid: str) -> ParameterSpec:
        return self._index[pid]

    def bounds(self, pid: str) -> tuple[float, float]:
        s = self._index[pid]
        return (s.lower, s.upper)

    def validate_combination(self, values: Mapping[str, float]) -> None:
        for s in self._specs:
            if s.id not in values:
                raise ValueError(f"combination is missing parameter {s.id}")
            v = values[s.id]
            if not (s.lower <= v <= s.upper):
                raise ValueError(f"{s.id}={v} outside [{s.lower}, {s.upper}]")


def build_parameter_space(initial: Mapping[str, float], delta: float) -> ParameterSpace:
    """Bounds at (1 - delta) and (1 + delta) times each initial value,
    ordered so lower < upper also for negative initial values."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    specs = []
    for pid, x0 in initial.items():
        x0 = float(x0)
        if x0 == 0.0:
            raise ValueError(
                f"{pid}: initial value 0 gives zero-width bounds; "
                "provide explicit bounds for this parameter"
            )
        a, b = (1.0 - delta) * x0, (1.0 + delta) * x0
        lo, hi = (a, b) if a < b else (b, a)
        specs.append(ParameterSpec(id=pid, lower=lo, upper=hi, initial=x0))
    return ParameterSpace(specs)
