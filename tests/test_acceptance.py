"""The acceptance gates, one pytest per criterion.

Each criterion function pins its own tolerances (see eislab.acceptance);
these tests run them and require a pass, printing the one-line detail either
way so a red run still reports the measured numbers.
"""

import cmath
import math

import pytest

from eislab import acceptance, eisenstein, moments, weights
from eislab.acceptance import Check
from eislab.spectral import KuznetsovReport


@pytest.fixture(scope="module", params=acceptance.ALL_CRITERIA,
                ids=[f"criterion_{i}" for i in range(1, len(acceptance.ALL_CRITERIA) + 1)])
def result(request):
    return request.param()


def test_criterion(result, capsys):
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] criterion {result.number} ({result.name}) "
              f"[{result.seconds:.1f}s] {result.detail}")
    assert result.passed, result.detail


def test_detail_shows_every_value(result):
    # one "name: value < gate" part per row, each value to >= 3 significant digits
    parts = result.detail.split("; ")
    assert len(parts) == len(result.checks)
    for part, check in zip(parts, result.checks):
        name, shown = part.split(": ")
        assert name == check.name
        value, sign, gate = shown.split(" ")
        assert float(value) == pytest.approx(check.value, rel=5e-3)
        assert float(gate) == pytest.approx(check.gate, rel=5e-3)
        assert sign == ("<" if check.passed else "!<")


def test_quick_subset_is_fast():
    # the quick run is criteria 2, 3, 5, 7 and 10 only, in order, all passing
    results = acceptance.run_all(quick=True)
    assert [r.number for r in results] == [2, 3, 5, 7, 10]
    assert all(r.passed for r in results)


def _kuznetsov_report(spectral_side, geometric_side, tail):
    return KuznetsovReport(
        spectral_side=spectral_side, geometric_side=geometric_side,
        discrete_term=0.0, continuous_term=spectral_side, delta_term=0.0,
        kloosterman_series=geometric_side, closure=0.0, tail_estimate=tail,
        basis_gap=geometric_side - spectral_side)


def _failing(checks):
    return [c.name for c in checks if not c.passed]


def test_kuznetsov_one_sided_gate_can_fail():
    # a partial basis undercounts the spectral side: geometric above it passes
    under = [_kuznetsov_report(3.5, 3.9, t) for t in (2.0, 1.5, 1.0)]
    assert _failing(acceptance.kuznetsov_gates(under)) == []
    # the spectral side exceeding geometric by more than the tail must fail
    over = under[:2] + [_kuznetsov_report(3.5, 2.4, 1.0)]
    assert _failing(acceptance.kuznetsov_gates(over)) == ["spectral-geometric"]
    # within the tail it still passes
    edge = under[:2] + [_kuznetsov_report(3.5, 2.6, 1.0)]
    assert _failing(acceptance.kuznetsov_gates(edge)) == []


def test_fourth_moment_gaussian_gate_can_fail():
    ratios = {10.0: [0.70, 0.77, 0.92], 25.0: [2.26, 2.35, 2.69], 50.0: [0.28, 0.38, 0.46]}
    # gaussian_ratio at A = 2: |ratio - 1| is 0.614 at T = 10 and 0.271 at T = 50
    measured = {10.0: 1.614, 25.0: 1.20, 50.0: 1.271}
    assert _failing(acceptance.fourth_moment_gates(1e-14, ratios, measured)) == []
    swapped = dict(measured)
    swapped[10.0], swapped[50.0] = measured[50.0], measured[10.0]
    assert _failing(acceptance.fourth_moment_gates(1e-14, ratios, swapped)) == [
        "|gaussian ratio-1| A=2 T=50 vs T=10"]


def test_gate_rows_fail_on_nan():
    # max(0.0, nan) is 0.0; a row compares value < gate, which NaN never is
    assert not Check("x", math.nan, 1.0).passed
    assert not Check("x", 1.0, math.nan).passed
    assert not Check("x", 1.0, 1.0).passed
    reports = [_kuznetsov_report(3.5, 3.9, t) for t in (2.0, 1.5, 1.0)]
    reports[-1] = _kuznetsov_report(math.nan, 3.9, 1.0)
    assert _failing(acceptance.kuznetsov_gates(reports)) == [
        "-sign(spectral)*sign(geometric)", "spectral-geometric"]
    ratios = {10.0: [0.70, 0.77, 0.92], 25.0: [2.26, math.nan, 2.69], 50.0: [0.28, 0.38, 0.46]}
    for bad in (math.nan, 0.0, -0.5, math.inf):
        ratios[25.0][1] = bad
        assert _failing(acceptance.fourth_moment_gates(
            1e-14, ratios, {10.0: 1.614, 25.0: 1.20, 50.0: 1.271})) == ["max |log ratio|"]


def test_nan_second_moment_error_fails_criteria_1_and_4(monkeypatch):
    monkeypatch.setattr(moments, "second_moment_error",
                        lambda res: (res.second_moment, math.nan))
    assert not acceptance.criterion_1().passed
    assert _failing(acceptance.criterion_4().checks) == ["p2 worst rel"]


def test_turned_scattering_value_fails_criteria_1_and_4(monkeypatch):
    # a phase of 1e-10 on the evaluator's c puts the p = 2 errors at
    # 3.7-9.0e-11, which a gate at 1e-5 or 1e-4 would pass
    init = eisenstein.EisensteinEvaluator.__init__

    def turned(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.scattering_c *= cmath.exp(1e-10j)

    monkeypatch.setattr(eisenstein.EisensteinEvaluator, "__init__", turned)
    res = acceptance.criterion_1()
    assert _failing(res.checks) == [c.name for c in res.checks]
    assert _failing(acceptance.criterion_4().checks) == ["p2 worst rel"]


def test_nan_minus_weight_fails_criterion_5(monkeypatch):
    # only the second component is NaN, where a Python max(a, b) drops it
    weight_V_pm = weights.weight_V_pm
    monkeypatch.setattr(weights, "weight_V_pm", lambda *args, **kwargs: (
        weight_V_pm(*args, **kwargs)[0], complex(math.nan, math.nan)))
    assert _failing(acceptance.criterion_5().checks) == ["V contour", "V envelope"]


def test_nan_xi_fails_criterion_10(monkeypatch):
    monkeypatch.setattr(acceptance, "xi_log", lambda s: complex(math.nan, math.nan))
    assert _failing(acceptance.criterion_10().checks) == ["xi symmetry worst"]
