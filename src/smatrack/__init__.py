"""Sparse moving-average probability tracking over open-ended item
streams, with bounded log-loss evaluation and synthetic generators."""

from .predictors import Box, Dyal, Ema, Queues

__all__ = ["Box", "Dyal", "Ema", "Queues"]
