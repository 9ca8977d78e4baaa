"""Quarterly calendar index and raw time-series container."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

_QUARTER_RE = re.compile(r"^(\d{4})Q([1-4])$")


@dataclass(frozen=True, order=True)
class QuarterIndex:
    """A calendar quarter, totally ordered; (y, 4) + 1 == (y + 1, 1)."""

    year: int
    quarter: int

    def __post_init__(self):
        if not 1 <= self.quarter <= 4:
            raise ValueError(f"quarter must be in 1..4, got {self.quarter}")

    @classmethod
    def parse(cls, text: str) -> "QuarterIndex":
        return cls.of_ordinal(cls.ordinal(text))

    @staticmethod
    def ordinal(text: str) -> int:
        """4 * year + quarter - 1 of a YYYYQn text; consecutive quarters differ by 1."""
        m = _QUARTER_RE.match(text.strip())
        if m is None:
            raise ValueError(f"malformed quarter {text!r}, expected YYYYQn")
        return 4 * int(m.group(1)) + int(m.group(2)) - 1

    @classmethod
    def of_ordinal(cls, k: int) -> "QuarterIndex":
        return cls(k // 4, k % 4 + 1)

    def __str__(self) -> str:
        return f"{self.year}Q{self.quarter}"

    def __add__(self, n: int) -> "QuarterIndex":
        return QuarterIndex.of_ordinal(self.year * 4 + self.quarter - 1 + int(n))

    def __sub__(self, other: "QuarterIndex") -> int:
        return (self.year * 4 + self.quarter) - (other.year * 4 + other.quarter)


@dataclass
class Series:
    """Contiguous quarterly series: `values[i]` belongs to quarter `start + i`."""

    name: str
    start: QuarterIndex
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError(f"series {self.name!r} must be a nonempty vector")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"series {self.name!r} contains non-finite values")

    def __len__(self) -> int:
        return self.values.size

    @property
    def end(self) -> QuarterIndex:
        """Last quarter covered."""
        return self.start + (len(self) - 1)

    def window(self, start: QuarterIndex, end: QuarterIndex) -> "Series":
        """Restrict to [start, end], both inclusive."""
        i0 = start - self.start
        i1 = end - self.start
        if i0 < 0 or i1 >= len(self) or i1 < i0:
            raise ValueError(
                f"window {start}..{end} outside series {self.name!r} "
                f"({self.start}..{self.end})"
            )
        return Series(self.name, start, self.values[i0 : i1 + 1])


def common_span(series: list[Series]) -> tuple[QuarterIndex, QuarterIndex]:
    """Largest quarter range covered by every series; error if empty."""
    if not series:
        raise ValueError("no series given")
    start = max(s.start for s in series)
    end = min(s.end for s in series)
    if end - start < 0:
        raise ValueError(
            "series have no overlapping quarters: "
            + ", ".join(f"{s.name}({s.start}..{s.end})" for s in series)
        )
    return start, end
