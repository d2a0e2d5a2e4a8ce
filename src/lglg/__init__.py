"""Gabor Log-Euclidean Gaussian texture features with WPCA identification."""

from .config import RunConfig
from .pipeline import enroll, identify, rank_accuracy

__all__ = ["RunConfig", "enroll", "identify", "rank_accuracy"]
