"""Sparse moving-average probability tracking over open-ended item
streams, with bounded log-loss evaluation and synthetic generators."""

from .predictors import Box, Dyal, Ema, Queues
from .sd_core import FcConfig, filter_cap

__all__ = ["Box", "Dyal", "Ema", "Queues", "FcConfig", "filter_cap"]
