"""Evaluation-policy dataclasses shared by the special-function kernels."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PrecisionPolicy:
    """Accuracy/cost policy for the special-function kernels.

    bessel_freq_oversample
        Quadrature nodes per oscillation period in the Bessel kernels.
    """

    bessel_freq_oversample: float = 8.0

    def __post_init__(self):
        if self.bessel_freq_oversample < 4.0:
            raise ValueError("bessel_freq_oversample must be >= 4")


@dataclass(frozen=True)
class StirlingOrder:
    """Number of 1/t correction terms retained in the large-t gamma expansion."""

    n: int = 0

    def __post_init__(self):
        if not (0 <= self.n <= 8):
            raise ValueError(f"StirlingOrder.n must lie in [0, 8], got {self.n}")


DEFAULT_POLICY = PrecisionPolicy()
