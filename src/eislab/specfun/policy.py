"""Evaluation-policy dataclasses shared by the special-function kernels."""

from __future__ import annotations

from dataclasses import dataclass

from eislab.quadrature import OVERSAMPLE


@dataclass(frozen=True)
class PrecisionPolicy:
    """Accuracy/cost policy for the special-function kernels.

    bessel_freq_oversample
        Quadrature nodes per oscillation period in the Bessel kernels.
    """

    bessel_freq_oversample: float = OVERSAMPLE

    def __post_init__(self):
        if self.bessel_freq_oversample < 4.0:
            raise ValueError("bessel_freq_oversample must be >= 4")


DEFAULT_POLICY = PrecisionPolicy()
