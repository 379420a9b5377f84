"""Vectorized panel Gauss-Legendre quadrature for oscillatory integrands."""
from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights over consecutive panels given by edges."""
    x, w = _leggauss(order)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def oscillation_panels(lo: float, hi: float, freq: float, min_panels: int = 16) -> float:
    """Panels over [lo, hi] that each span at most ~pi/2 of a phase slope |freq|.

    min_panels is added as a floor for non-oscillatory structure.  Returned as
    a float, which is inf when the phase overflows.
    """
    return float(np.ceil((hi - lo) * abs(freq) / (np.pi / 2.0))) + min_panels

