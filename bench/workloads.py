"""The benchmark's workloads: inputs from a seed, the operations, and the
oracle checks of their outputs.

Each workload is one researcher's batch pass through a lab path, driven in a
closed loop (the next operation starts when the previous one returns).  The
seed jitters heights, widths and arguments a little, so a claim made on one
seed can be rechecked on an unseen one; the library only sees the generated
numbers.  Operations are called through their module attribute
(``moments.fourth_moment``) so a traced pass sees them.

Every operation is checked against an oracle that does not share its code
path; checks run after the timed region.  Errors are relative to the oracle
and are turned into digits capped per check (``Check.cap``), so only a real
loss of digits lowers ``accuracy_digits``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from eislab import moments, oracles, spectral, specfun, weights
from eislab.eisenstein import SpectralSetup

ROOT = Path(__file__).resolve().parents[1]
FORMS_CSV = ROOT / "data" / "maass_forms.csv"
PSEUDOFORM_GAMMA = 13.78
PSEUDOFORM_N = 120000
FLOOR_Y = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class Op:
    kind: str
    args: dict


@dataclass(frozen=True)
class Check:
    """One comparison of an output with its oracle; passes when err <= tol."""

    name: str
    op: int          # index of the checked operation in the pass
    err: float
    tol: float
    cap: int | None  # digits cap for accuracy_digits; None for structural checks

    @property
    def passed(self) -> bool:
        return bool(self.err <= self.tol)

    @property
    def digits(self) -> int | None:
        if self.cap is None:
            return None
        if self.err == 0.0:
            return self.cap
        if not math.isfinite(self.err):
            return 0
        return min(self.cap, math.floor(-math.log10(self.err)))


def rel_err(value, ref) -> float:
    return float(abs(value - ref) / abs(ref))


def structural(name: str, op: int, violation: float) -> Check:
    """A structural claim; it holds when ``violation`` <= 0."""
    return Check(name, op, violation, 0.0, None)


def holds(ok: bool) -> float:
    return 0.0 if ok else math.inf


def _jitter(rng, base: float, rel: float) -> float:
    return round(base * (1.0 + rel * rng.uniform(-1.0, 1.0)), 6)


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def bessel_spot(op: int, T: float, y: float, value: float | None = None) -> Check:
    """Production scaled K-Bessel against mpmath tanh-sinh quadrature."""
    if value is None:
        value = specfun.bessel_k_scaled(T, y)
    ref = oracles.hp_bessel_k_scaled(T, y)
    return Check(f"bessel_k_scaled(T={T:.6g}, y={y:.6g}) vs mpmath", op,
                 rel_err(value, ref), 1e-9, 12)


# ---------------------------------------------------------------------------
# moment-sweep: the fourth-moment pipeline and the real-s pair identity
# ---------------------------------------------------------------------------

def moment_ops(rng) -> list[Op]:
    ops = [Op("fourth_moment", {"T": _jitter(rng, T, 0.01), "A": 2.0})
           for T in (10.0, 25.0, 50.0)]
    ops.append(Op("real_s_pair", {"s1": _jitter(rng, 2.0, 0.02),
                                  "s2": _jitter(rng, 3.0, 0.02), "A": 2.0}))
    return ops


def moment_run(op: Op, fx: dict):
    a = op.args
    if op.kind == "fourth_moment":
        return moments.fourth_moment(SpectralSetup(T=a["T"], A=a["A"]))
    return moments.real_s_pair_quadrature(a["s1"], a["s2"], a["A"])


def moment_warm_up(fx: dict) -> None:
    moments.fourth_moment(SpectralSetup(T=3.0, A=2.0))
    moments.real_s_pair_quadrature(2.0, 3.0, 2.0)


def moment_checks(ops: list[Op], values: list) -> list[Check]:
    out = []
    for i, (op, v) in enumerate(zip(ops, values)):
        a = op.args
        if op.kind == "fourth_moment":
            closed = moments.maass_selberg_limit(a["T"], a["A"])
            out.append(Check("p2 moment vs maass_selberg_limit", i,
                             rel_err(v.second_moment, closed), 1e-10, 11))
            ratio = v.report.ratio
            out.append(structural("p4 ratio finite and positive", i,
                                  holds(math.isfinite(ratio) and ratio > 0)))
        else:
            closed = moments.maass_selberg(a["s1"], a["s2"], a["A"])
            out.append(Check("real-s pair vs maass_selberg", i,
                             rel_err(v[0], closed), 1e-10, 13))
    return out


def moment_spots(ops: list[Op], rng) -> list[Check]:
    # the Fourier modes of E_A at height T call K at y = 2 pi n y_row, from
    # the floor of F up to the mode cutoff T + 10 T^(1/3) + 40
    idx = [i for i, op in enumerate(ops) if op.kind == "fourth_moment"]
    out = []
    for i in idx + [int(rng.choice(idx))]:
        T = ops[i].args["T"]
        y = _log_uniform(rng, 2.0 * math.pi * FLOOR_Y, T + 10.0 * T ** (1 / 3) + 40.0)
        out.append(bessel_spot(i, T, y))
    return out


# ---------------------------------------------------------------------------
# kuznetsov-sweep: both sides of the trace formula over a nested c_max sweep
# ---------------------------------------------------------------------------

# the doubling whose tail monotonicity tests/test_spectral.py asserts; 50 is
# criterion 8's first c_max.  Below 25 the library's tail estimate is not
# monotone (8.85, 5.04, 6.04, 7.36, 4.67 at c_max 10, 20, 25, 40, 50 for
# width 8), a known defect that bench/tests/test_bench.py pins as a strict xfail.
KUZNETSOV_C_MAX = (25, 50)


def kuznetsov_fixtures() -> dict:
    return {"forms": spectral.ingest_forms(str(FORMS_CSV))}


def kuznetsov_ops(rng) -> list[Op]:
    width = _jitter(rng, 8.0, 0.01)
    return [Op("kuznetsov_two_sides", {"n": 1, "m": 1, "width": width, "c_max": c})
            for c in KUZNETSOV_C_MAX]


def kuznetsov_run(op: Op, fx: dict):
    a = op.args
    phi = spectral.TestFunction(kind="gaussian", width=a["width"])
    return spectral.kuznetsov_two_sides(a["n"], a["m"], phi, fx["forms"], c_max=a["c_max"])


def kuznetsov_warm_up(fx: dict) -> None:
    spectral.kuznetsov_two_sides(1, 1, spectral.TestFunction(width=2.0), fx["forms"],
                                 c_max=2)


def kuznetsov_checks(ops: list[Op], values: list) -> list[Check]:
    out = []
    for i, (op, r) in enumerate(zip(ops, values)):
        if i > 0:
            first, prev = values[0], values[i - 1]
            out.append(structural(
                "spectral side identical across the sweep", i,
                abs(r.spectral_side - first.spectral_side) / abs(first.spectral_side)))
            out.append(structural(
                "tail does not increase with c_max", i,
                (r.tail_estimate - prev.tail_estimate) / prev.tail_estimate))
        if op.args["n"] == op.args["m"]:
            # a partial basis can only undercount the spectral side
            out.append(structural(
                "geometric - spectral >= -tail", i,
                (r.spectral_side - r.geometric_side - r.tail_estimate)
                / max(abs(r.spectral_side), abs(r.geometric_side))))
    return out


def kernel_spot(op: int, x: float, t: float, t_max: float,
                value: float | None = None) -> Check:
    """Production Kuznetsov kernel against mpmath besselj.

    The kernel shares one leg geometry across its t array, chosen from the
    largest t, so the spot value is computed alongside the pass's own t_max.
    """
    if value is None:
        value = specfun.kuznetsov_kernel_even_many(x, np.array([t, t_max]))[0]
    ref = oracles.hp_kuznetsov_kernel_even(x, t).real
    return Check(f"kuznetsov_kernel(x={x:.6g}, t={t:.6g}) vs mpmath", op,
                 float(abs(value - ref) / max(abs(ref), 1.0)), 1e-9, 13)


def kuznetsov_spots(ops: list[Op], rng) -> list[Check]:
    # kernel_integral(c) calls the kernel at x = sqrt(nm)/c on t in [0, t_cut]
    out = []
    for _ in range(4):
        i = int(rng.integers(len(ops)))
        a = ops[i].args
        t_cut = spectral.TestFunction(kind="gaussian", width=a["width"]).support_cut
        c = int(rng.integers(1, a["c_max"] + 1))
        t = float(rng.uniform(0.0, t_cut))
        out.append(kernel_spot(i, math.sqrt(a["n"] * a["m"]) / c, t, t_cut))
    return out


# ---------------------------------------------------------------------------
# afe-mellin: central values by the AFE, the double-Bessel Mellin transform,
# and the incomplete Mellin pair g(x)
# ---------------------------------------------------------------------------

G_OVERSAMPLED = specfun.PrecisionPolicy(bessel_freq_oversample=16.0)


@functools.lru_cache(maxsize=64)
def g_oversampled(x: float, T: float, t: float) -> complex:
    """The g(x) oracle: the same quadrature at twice the node density."""
    return weights.g_lower_incomplete(x, T, t, G_OVERSAMPLED)


def afe_fixtures() -> dict:
    return {"pseudoform": spectral.divisor_pseudoform(PSEUDOFORM_GAMMA, PSEUDOFORM_N)}


def afe_ops(rng) -> list[Op]:
    # T stays within 1.5% of 3 and 10: near T = 9.58 the product has a zero
    # (2T + gamma hits the zeta zero at 32.94) and relative errors blow up
    ops = [Op("afe_pair", {"T": _jitter(rng, T, 0.015)}) for T in (3.0, 10.0)]
    for _ in range(4):
        ops.append(Op("mellin_barnes_kk", {
            "s": [round(float(rng.uniform(1.5, 2.5)), 6), round(float(rng.uniform(-1.0, 1.0)), 6)],
            "T": round(float(rng.uniform(0.5, 3.0)), 6),
            "t": round(float(rng.uniform(0.5, 3.0)), 6)}))
    for _ in range(4):
        ops.append(Op("g_lower_incomplete", {"x": round(_log_uniform(rng, 0.05, 20.0), 6),
                                             "T": _jitter(rng, 3.0, 0.03),
                                             "t": _jitter(rng, 5.0, 0.03)}))
    return ops


def afe_run(op: Op, fx: dict):
    a = op.args
    if op.kind == "afe_pair":
        return spectral.afe_pair(fx["pseudoform"], a["T"])
    if op.kind == "mellin_barnes_kk":
        return weights.mellin_barnes_kk_numeric(complex(*a["s"]), a["T"], a["t"])
    return weights.g_lower_incomplete(a["x"], a["T"], a["t"])


def afe_warm_up(fx: dict) -> None:
    spectral.afe_pair(fx["pseudoform"], 1.0, tail_tol=1e-3)
    weights.mellin_barnes_kk_numeric(2.0, 0.5, 0.5)
    weights.g_lower_incomplete(1.0, 0.5, 0.5)


def afe_checks(ops: list[Op], values: list) -> list[Check]:
    out = []
    for i, (op, v) in enumerate(zip(ops, values)):
        a = op.args
        if op.kind == "afe_pair":
            ref = spectral.zeta_product_oracle(PSEUDOFORM_GAMMA, a["T"])
            out.append(Check("afe_pair vs zeta_product_oracle", i, rel_err(v, ref), 1e-4, 4))
        elif op.kind == "mellin_barnes_kk":
            ref = weights.mellin_barnes_kk_closed(complex(*a["s"]), a["T"], a["t"])
            out.append(Check("mellin_barnes_kk_numeric vs closed form", i,
                             rel_err(v, ref), 1e-8, 12))
        else:
            out.append(Check("g_lower_incomplete vs doubled oversampling", i,
                             rel_err(v, g_oversampled(a["x"], a["T"], a["t"])), 1e-8, 13))
    return out


def afe_spots(ops: list[Op], rng) -> list[Check]:
    # the Mellin operations call K_{iT} and K_{it} at y = e^u on the log grid
    # u in [-18, log(max(T, t, 1) + 55)]
    idx = [i for i, op in enumerate(ops) if op.kind == "mellin_barnes_kk"]
    out = []
    for _ in range(4):
        i = idx[int(rng.integers(len(idx)))]
        a = ops[i].args
        order = a["T"] if rng.uniform() < 0.5 else a["t"]
        y = _log_uniform(rng, math.exp(-18.0), max(a["T"], a["t"], 1.0) + 55.0)
        out.append(bessel_spot(i, order, y))
    return out


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable      # rng -> list[Op]
    run: Callable           # (Op, fixtures) -> output
    checks: Callable        # (ops, outputs) -> list[Check]
    spots: Callable         # (ops, rng) -> list[Check], once per run
    fixtures: Callable      # () -> dict, built once in set-up
    warm_up: Callable       # fixtures -> None: one small call per operation kind,
                            # so lazy set-up and caches are filled before timing


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("moment-sweep", moment_ops, moment_run, moment_checks, moment_spots,
             dict, moment_warm_up),
    Workload("kuznetsov-sweep", kuznetsov_ops, kuznetsov_run, kuznetsov_checks,
             kuznetsov_spots, kuznetsov_fixtures, kuznetsov_warm_up),
    Workload("afe-mellin", afe_ops, afe_run, afe_checks, afe_spots, afe_fixtures,
             afe_warm_up),
)}
