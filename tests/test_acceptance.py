"""The acceptance gates, one pytest per criterion.

Each criterion function pins its own tolerances (see eislab.acceptance);
these tests run them and require a pass, printing the one-line detail either
way so a red run still reports the measured numbers.
"""

import pytest

from eislab import acceptance
from eislab.spectral import KuznetsovReport


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[f"criterion_{i}" for i in
                              range(1, len(acceptance.ALL_CRITERIA) + 1)])
def test_criterion(criterion, capsys):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] criterion {result.number} ({result.name}) "
              f"[{result.seconds:.1f}s] {result.detail}")
    assert result.passed, result.detail


def test_quick_subset_is_fast():
    # the quick run is criteria 2, 3, 7 and 10 only, in order, all passing
    results = acceptance.run_all(quick=True)
    assert [r.number for r in results] == [2, 3, 7, 10]
    assert all(r.passed for r in results)


def _kuznetsov_report(spectral_side, geometric_side, tail):
    return KuznetsovReport(
        spectral_side=spectral_side, geometric_side=geometric_side,
        discrete_term=0.0, continuous_term=spectral_side, delta_term=0.0,
        kloosterman_series=geometric_side, closure=0.0, tail_estimate=tail,
        basis_gap=geometric_side - spectral_side)


def test_kuznetsov_one_sided_gate_can_fail():
    # a partial basis undercounts the spectral side: geometric above it passes
    under = [_kuznetsov_report(3.5, 3.9, t) for t in (2.0, 1.5, 1.0)]
    assert all(acceptance.kuznetsov_gates(under).values())
    # the spectral side exceeding geometric by more than the tail must fail
    over = under[:2] + [_kuznetsov_report(3.5, 2.4, 1.0)]
    gates = acceptance.kuznetsov_gates(over)
    assert not gates["one_sided"]
    assert gates["monotone"] and gates["signs"]
    # within the tail it still passes
    edge = under[:2] + [_kuznetsov_report(3.5, 2.6, 1.0)]
    assert acceptance.kuznetsov_gates(edge)["one_sided"]


def test_fourth_moment_gaussian_gate_can_fail():
    ratios = {10.0: [0.70, 0.77, 0.92], 25.0: [2.26, 2.35, 2.69], 50.0: [0.28, 0.38, 0.46]}
    # gaussian_ratio at A = 2: |ratio - 1| is 0.614 at T = 10 and 0.271 at T = 50
    measured = {10.0: 1.614, 25.0: 1.20, 50.0: 1.271}
    assert all(acceptance.fourth_moment_gates(1e-6, ratios, measured).values())
    swapped = dict(measured)
    swapped[10.0], swapped[50.0] = measured[50.0], measured[10.0]
    gates = acceptance.fourth_moment_gates(1e-6, ratios, swapped)
    assert not gates["gaussian"]
    assert gates["p2"] and gates["finite"] and gates["spread"]
