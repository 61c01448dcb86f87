"""Tests of the benchmark itself: its contract file, its checks, its tracer.

    python3 -m pytest bench/tests -q

The pinned-count tests run one traced pass of each workload (about a
minute in all); a change in node counts or cache behaviour shows as a
changed count here.
"""

import json
import math
import shutil
import subprocess
import sys
from types import SimpleNamespace

import run  # pins the BLAS threads before numpy loads
import numpy as np
import pytest

import tracing
import workloads as W
from eislab import eisenstein, moments, oracles, spectral, weights

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in tracing.PER_LAYER]


def test_inputs_depend_only_on_the_seed():
    for wl in W.WORKLOADS.values():
        a = wl.make_ops(np.random.default_rng([7, 0]))
        b = wl.make_ops(np.random.default_rng([7, 0]))
        c = wl.make_ops(np.random.default_rng([8, 0]))
        assert a == b and a != c


# ---------------------------------------------------------------------------
# every output check can fail
# ---------------------------------------------------------------------------

def _failed(checks):
    return {(c.name, c.op) for c in checks if not c.passed}


def test_moment_checks_fail_on_perturbed_outputs():
    ops = W.moment_ops(np.random.default_rng([0, 0]))

    def outputs(scale=1.0, ratio=1.0):
        vals = []
        for op in ops:
            a = op.args
            if op.kind == "fourth_moment":
                closed = moments.maass_selberg_limit(a["T"], a["A"])
                vals.append(SimpleNamespace(second_moment=closed * scale,
                                            report=SimpleNamespace(ratio=ratio)))
            else:
                vals.append((moments.maass_selberg(a["s1"], a["s2"], a["A"]) * scale, 0.0))
        return vals

    assert not _failed(W.moment_checks(ops, outputs()))
    assert len(_failed(W.moment_checks(ops, outputs(scale=1 + 1e-8)))) == len(ops)
    assert len(_failed(W.moment_checks(ops, outputs(ratio=math.nan)))) == 3


def test_kuznetsov_checks_fail_on_perturbed_outputs():
    ops = W.kuznetsov_ops(np.random.default_rng([0, 0]))

    def report(spectral_side=3.5, geometric=3.9, tail=1.0):
        return SimpleNamespace(spectral_side=spectral_side, geometric_side=geometric,
                               tail_estimate=tail)

    good = [report(tail=2.0), report(tail=1.0)]
    assert not _failed(W.kuznetsov_checks(ops, good))
    moved = good[:1] + [report(spectral_side=3.5 * (1 + 1e-15), tail=1.0)]
    assert _failed(W.kuznetsov_checks(ops, moved)) == {
        ("spectral side identical across the sweep", 1)}
    rising = good[:1] + [report(tail=2.5)]
    assert _failed(W.kuznetsov_checks(ops, rising)) == {
        ("tail does not increase with c_max", 1)}
    closure = good[:1] + [report(geometric=2.4, tail=1.0)]
    assert _failed(W.kuznetsov_checks(ops, closure)) == {("geometric - spectral >= -tail", 1)}


@pytest.mark.xfail(strict=True, reason="kuznetsov_two_sides' tail estimate rises from "
                   "c_max = 20 to 40: its sampling grid spans (c_max, 16 c_max] and moves "
                   "with c_max, so it is not non-increasing by construction")
def test_kuznetsov_tail_check_on_the_defect_below_25():
    forms = spectral.ingest_forms(str(W.FORMS_CSV))
    ops = [W.Op("kuznetsov_two_sides", {"n": 1, "m": 1, "width": 8.0, "c_max": c})
           for c in (20, 40)]
    values = [W.kuznetsov_run(op, {"forms": forms}) for op in ops]
    assert not _failed(W.kuznetsov_checks(ops, values))


def test_afe_checks_fail_on_perturbed_outputs():
    ops = W.afe_ops(np.random.default_rng([0, 0]))

    def outputs(scale):
        vals = []
        for op in ops:
            a = op.args
            if op.kind == "afe_pair":
                ref = spectral.zeta_product_oracle(W.PSEUDOFORM_GAMMA, a["T"])
            elif op.kind == "mellin_barnes_kk":
                ref = weights.mellin_barnes_kk_closed(complex(*a["s"]), a["T"], a["t"])
            else:
                ref = W.g_oversampled(a["x"], a["T"], a["t"])
            vals.append(ref * scale)
        return vals

    assert not _failed(W.afe_checks(ops, outputs(1.0)))
    assert len(_failed(W.afe_checks(ops, outputs(1 + 1e-3)))) == len(ops)
    small = _failed(W.afe_checks(ops, outputs(1 + 1e-6)))
    assert {op for _, op in small} == {i for i, op in enumerate(ops) if op.kind != "afe_pair"}


def test_spot_checks_fail_on_perturbed_values():
    T, y = 24.3, 17.0
    ref = oracles.hp_bessel_k_scaled(T, y)
    assert W.bessel_spot(0, T, y).passed
    assert not W.bessel_spot(0, T, y, value=ref * (1 + 1e-8)).passed
    x, t = 1 / 7, 20.5
    ref = oracles.hp_kuznetsov_kernel_even(x, t).real
    assert W.kernel_spot(0, x, t, 50.0).passed
    assert not W.kernel_spot(0, x, t, 50.0, value=ref + 1e-8).passed


def test_a_raise_or_a_changed_rerun_fails_its_operation():
    wl = W.WORKLOADS["afe-mellin"]
    ops = [op for op in wl.make_ops(np.random.default_rng([0, 0]))
           if op.kind == "mellin_barnes_kk"]
    refs = [weights.mellin_barnes_kk_closed(complex(*op.args["s"]), op.args["T"], op.args["t"])
            for op in ops]
    first = {"values": refs, "errors": [None] * len(ops)}
    rerun = {"values": refs[:-1] + [refs[-1] * (1 + 1e-12)], "errors": [None] * len(ops)}
    raised = {"values": refs[:1] + [None] * (len(ops) - 1),
              "errors": [None] + ["DomainError: x"] * (len(ops) - 1)}
    wl = SimpleNamespace(checks=W.afe_checks, spots=lambda ops, rng: [])
    _, failed, _ = run.check_run(wl, ops, [first, rerun, raised], None)
    assert failed == {(1, len(ops) - 1)} | {(2, i) for i in range(1, len(ops))}


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_rebinds_every_call_site_and_restores_them():
    original = eisenstein.bessel_k_scaled
    sites, _ = tracing.call_sites("eislab.specfun.bessel:bessel_k_scaled")
    names = {module.__name__ for module, _ in sites}
    assert {"eislab.specfun.bessel", "eislab.eisenstein", "eislab.weights"} <= names
    tracer = tracing.Tracer()
    with tracer.installed():
        assert eisenstein.bessel_k_scaled is not original
        eisenstein.EisensteinEvaluator(eisenstein.SpectralSetup(T=5.0, A=2.0)).eval_row(
            1.5, [0.0, 0.25])
    assert eisenstein.bessel_k_scaled is original
    assert eisenstein.EisensteinEvaluator.eval_row.__name__ == "eval_row"
    assert not hasattr(eisenstein.EisensteinEvaluator.eval_row, "__wrapped__")
    stats = tracing.layer_stats(tracer, wall=1.0)
    assert stats["eisenstein.eval_row.calls"] == 1
    assert stats["eisenstein.eval_row.x_points"] == 2
    assert stats["specfun.bessel_k_scaled.calls"] > 0
    # children of eval_row: self time excludes the Bessel spans below it
    row = next(s for s in tracer.spans if s[0] == "eisenstein.eval_row")
    assert stats["eisenstein.eval_row.self_s"] < row[2] - row[1]


# counts of one traced pass at seed 0; a deliberate change to node counts or
# caching updates these numbers in the same commit
PINNED = {
    "moment-sweep": {
        "specfun.bessel_k_scaled.calls": 39948, "quadrature.panel_nodes.calls": 63440,
        "quadrature.gl_nodes.calls": 99019, "eisenstein.eval_row.calls": 7283,
        "eisenstein.eval_row.x_points": 1125444, "moments.integrate_rows.calls": 4,
        "moments.grid_y_nodes": 7654, "specfun.zeta.calls": 12, "specfun.log_gamma.calls": 12},
    "kuznetsov-sweep": {
        "quadrature.panel_nodes.calls": 527, "specfun.kuznetsov_kernel.calls": 105,
        "specfun.kuznetsov_kernel.t_nodes": 152512, "specfun.zeta.calls": 1056,
        "arith.kloosterman.calls": 75, "arith.tau_gen.calls": 2112},
    "afe-mellin": {
        "specfun.bessel_k_scaled.calls": 4096, "quadrature.panel_nodes.calls": 10506,
        "specfun.log_gamma.calls": 48},
}


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_layer_counts(name):
    wl = W.WORKLOADS[name]
    fx = wl.fixtures()
    ops = wl.make_ops(np.random.default_rng([0, 0]))
    tracer = tracing.Tracer()
    with tracer.installed():
        p = run.run_pass(wl, ops, fx, tracer)
    assert p["errors"] == [None] * len(ops)
    stats = tracing.layer_stats(tracer, p["wall"])
    counts = {k: v for k, v in stats.items()
              if v and k.endswith((".calls", ".x_points", ".t_nodes", "grid_y_nodes"))}
    assert counts == PINNED[name]
    assert stats["trace.coverage"] >= 0.9


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                           "afe-mellin", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
