"""Desk-scale audio super-resolution toolkit."""

__version__ = "0.1.0"

from . import data, diffgraph, dsp, metrics, models, probe, train  # noqa: E402,F401
