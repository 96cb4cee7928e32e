"""Exact Laurent-polynomial and rational-series arithmetic."""

from .laurent import LaurentPoly
from .dagger import (
    DaggerSeries, SeriesPrefix,
    ds_limit, ds_hadamard, ds_fit,
)

__all__ = [
    "LaurentPoly",
    "DaggerSeries", "SeriesPrefix",
    "ds_limit", "ds_hadamard", "ds_fit",
]
