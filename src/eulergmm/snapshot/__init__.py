"""Frozen CSV snapshot of all raw input series (1967Q1-2019Q4 vintage).

Ships with the package so estimation and tests never touch the network.
"""

from __future__ import annotations

import os

from ..pipeline import Dataset, TransformSpec, load_series_dir, transform_raw
from ..quarters import Series


def load_snapshot() -> dict[str, Series]:
    """Load every packaged raw series, keyed by name."""
    return load_series_dir(os.path.dirname(__file__))


def transform_snapshot(
    spec: TransformSpec | None = None,
    external: tuple[str, ...] = (),
) -> Dataset:
    """Apply the full transformation pipeline to the packaged snapshot."""
    return transform_raw(load_snapshot(), spec or TransformSpec(), external)
