"""The panel-factored exponentials of ``quadrature._panel_exp``."""

import math

import mpmath as mp
import numpy as np
import pytest

from eislab import quadrature
from eislab.quadrature import _panel_exp

# imaginary units over a span with panel midpoints of both signs and k up to
# 2,300 (criterion 9's 2 t_max), phases to 2e4; the real unit as on the
# Kuznetsov vertical legs, k <= 0 against edges >= 0, kept above e^-690
SPANS = {1j: (-1.3, 8.0, 2300.0), -1j: (-1.3, 8.0, 2300.0), 1.0: (0.0, 0.3, -2300.0)}


@pytest.mark.parametrize("unit", [1j, -1j, 1.0], ids=["i", "-i", "1"])
@pytest.mark.parametrize("panels", [1, 2, 25, 40, 257, 277, 600])
def test_panel_factor_against_mpmath(panels, unit):
    a, b, k_end = SPANS[unit]
    edges = np.linspace(a, b, panels + 1)
    rng = np.random.default_rng(panels)
    k = k_end * rng.uniform(0.0, 1.0, 40)
    em, _ = _panel_exp(edges, k, unit)
    mid = 0.5 * (edges[:-1] + edges[1:])
    worst = 0.0
    with mp.workdps(40):
        for p, t in zip(rng.integers(panels, size=64), rng.integers(k.size, size=64)):
            ref = mp.exp(mp.mpc(unit) * mp.mpf(k[t]) * mp.mpf(mid[p]))
            worst = max(worst, float(abs(mp.mpc(em[p, t]) - ref) / abs(ref)))
    assert worst < 1e-15


class _CountingNumpy:
    """numpy with a tally of the values its ``exp`` is taken of."""

    def __init__(self):
        self.exps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, v):
        self.exps += np.size(v)
        return np.exp(v)


@pytest.mark.parametrize("panels", [1, 24, 25, 277])
def test_exponential_count(panels, monkeypatch):
    counting = _CountingNumpy()
    monkeypatch.setattr(quadrature, "np", counting)
    k = np.linspace(0.0, 90.0, 50)
    _panel_exp(np.linspace(0.0, 7.0, panels + 1), k, 1j)
    assert counting.exps <= (2 * math.ceil(math.sqrt(panels)) + 16) * k.size
