"""Batch driver: sweeps over (T, A) grids, CSV emission, plot-script emission,
and the acceptance-suite runner.

Configuration is plain key=value text (no structured-markup dependency) plus
command-line overrides; every CSV opens with a ``#`` comment carrying an
ISO-8601 timestamp.  Identical configuration reproduces byte-identical CSVs
when SOURCE_DATE_EPOCH is set (the conventional override for embedded
timestamps); grid cells are computed and emitted in sorted key order.  A
subcommand accepts only the settings it reads: any other flag or config key
is a usage error, exit code 2.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from eislab import moments, spectral
from eislab.acceptance import P2_SWEEP_TOL, kuznetsov_gates, run_all
from eislab.eisenstein import SpectralSetup

_DEFAULT_FORMS = Path(__file__).resolve().parents[2] / "data" / "maass_forms.csv"


@dataclass
class RunConfig:
    T: list | None = None
    A: list | None = None
    tol: float = 1e-5
    out: str = "-"
    forms: str = str(_DEFAULT_FORMS)
    quick: bool = False

    def validate(self):
        if self.T is not None and (not self.T or any(t <= 0 for t in self.T)):
            raise ValueError("T values must be positive")
        if self.A is not None and (not self.A or any(a <= 1 for a in self.A)):
            raise ValueError("A values must exceed 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        return self


def _parse_float_list(text: str):
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _load_config_file(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    return out


def build_config(args) -> RunConfig:
    """The --config file's settings, then the flags over them.  Only the
    subcommand's own keys (``args.keys``) are accepted in the file."""
    cfg = RunConfig()
    settings = _load_config_file(args.config) if args.config else {}
    for key, val in settings.items():
        if key not in args.keys:
            raise ValueError(f"config key {key!r} is not read by {args.command}")
        if key in ("T", "A"):
            val = _parse_float_list(val)
        elif key == "tol":
            val = float(val)
        elif key == "quick":
            val = val.lower() in ("1", "true", "yes")
        setattr(cfg, key, val)
    for key in args.keys:
        val = getattr(args, key)
        if val is not None and val is not False:
            setattr(cfg, key, _parse_float_list(val) if key in ("T", "A") else val)
    return cfg.validate()


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    when = datetime.fromtimestamp(int(epoch), tz=timezone.utc) if epoch \
        else datetime.now(timezone.utc)
    return when.replace(microsecond=0).isoformat()


def _emit_csv(out: str, header: str, rows):
    lines = [f"# generated {_timestamp()}", header]
    lines.extend(rows)
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _fmt(value) -> str:
    if isinstance(value, complex):
        return repr(value).strip("()")
    return repr(value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _require_grid(cfg: RunConfig):
    if cfg.T is None or cfg.A is None:
        raise ValueError("this command needs explicit --T and --A lists")
    return sorted((T, A) for T in cfg.T for A in cfg.A)


def cmd_maass_selberg(cfg: RunConfig) -> int:
    results = []
    for T, A in _require_grid(cfg):
        res = moments.fourth_moment(SpectralSetup(T=T, A=A), tol=math.inf)
        closed, rel = moments.second_moment_error(res)
        results.append((T, A, closed, res.second_moment, rel))
    rows = [f"{T!r},{A!r},{_fmt(c)},{_fmt(q)},{rel!r}" for (T, A, c, q, rel) in results]
    _emit_csv(cfg.out, "T,A,closed,quadrature,rel_err", rows)
    worst = max(r[4] for r in results)
    if worst > cfg.tol:
        print(f"maass-selberg: worst rel_err {worst:.3e} exceeds tol {cfg.tol:.3e}",
              file=sys.stderr)
        return 1
    return 0


def cmd_moment_sweep(cfg: RunConfig) -> int:
    rows = []
    hard_error = 0
    for T, A in _require_grid(cfg):
        res = moments.fourth_moment(SpectralSetup(T=T, A=A), tol=math.inf)
        _, rel2 = moments.second_moment_error(res)
        if rel2 > P2_SWEEP_TOL:
            print(f"moment-sweep: p=2 row (T={T}, A={A}) off closed form by {rel2:.2e}",
                  file=sys.stderr)
            hard_error = 1
        for rep, gauss in ((res.second_report, ""), (res.report, repr(res.gaussian_ratio))):
            rows.append(f"{T!r},{A!r},{rep.p},{rep.value!r},{rep.est_error!r},"
                        f"{rep.prediction!r},{rep.ratio!r},{gauss}")
    _emit_csv(cfg.out, "T,A,p,value,err,prediction,ratio,gaussian_ratio", rows)
    if cfg.out != "-":
        _emit_plot_script(cfg.out)
    return hard_error


def _emit_plot_script(csv_path: str):
    gp = Path(csv_path).with_suffix(".gp")
    gp.write_text(
        "# gnuplot script: fourth-moment ratio against log T\n"
        "set datafile separator ','\n"
        "set datafile commentschars '#'\n"
        "set logscale x\n"
        "set xlabel 'T'\n"
        "set ylabel 'moment / prediction'\n"
        f"plot '{Path(csv_path).name}' skip 2 "
        "using 1:($3 == 4 ? $7 : 1/0) with points pt 7 title 'p=4 ratio', "
        "'' skip 2 using 1:($3 == 4 ? $8 : 1/0) with points pt 6 title 'p=4 Gaussian ratio', "
        "1 with lines dt 2 title 'limit'\n")


def cmd_weights_audit(cfg: RunConfig) -> int:
    from eislab.acceptance import weights_audit_checks
    rows = []
    all_ok = True
    for (name, value, threshold) in weights_audit_checks():
        ok = value < threshold
        all_ok &= ok
        rows.append(f"{name.replace(' ', '-')},{value!r},{threshold!r},"
                    f"{'pass' if ok else 'FAIL'}")
    _emit_csv(cfg.out, "check,value,threshold,status", rows)
    return 0 if all_ok else 1


def cmd_kuznetsov(cfg: RunConfig) -> int:
    forms = spectral.ingest_forms(cfg.forms)
    phi = spectral.TestFunction(kind="gaussian", width=8.0)
    pairs = [(1, 1), (1, 2), (2, 2)]
    c_list = (50, 100, 200) if not cfg.quick else (25, 50)
    rows = []
    monotone = True
    for (n, m) in pairs:
        reports = [spectral.kuznetsov_two_sides(n, m, phi, forms, c_max=c_max)
                   for c_max in c_list]
        rows.extend(f"{n},{m},{c_max},{rep.spectral_side!r},{rep.geometric_side!r},"
                    f"{rep.closure!r},{rep.tail_estimate!r}"
                    for c_max, rep in zip(c_list, reports))
        monotone &= kuznetsov_gates(reports)["monotone"]
    _emit_csv(cfg.out, "n,m,c_max,spectral,geometric,closure,tail_estimate", rows)
    return 0 if monotone else 1


def cmd_acceptance(cfg: RunConfig) -> int:
    results = run_all(quick=cfg.quick)
    failed = [r for r in results if not r.passed]
    if failed:
        for r in failed:
            print(f"acceptance: criterion {r.number} failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_FLAGS = {
    "T": dict(help="comma-separated spectral heights"),
    "A": dict(help="comma-separated truncation heights"),
    "tol": dict(type=float, help="tolerance gate"),
    "out": dict(help="output CSV path ('-' for stdout)"),
    "forms": dict(help="Maass-form CSV path"),
    "quick": dict(action="store_true", help="sub-minute subset"),
}

# each subcommand with the settings it reads, as flags and as --config keys
_COMMANDS = [
    ("maass-selberg", cmd_maass_selberg, ("T", "A", "tol", "out"),
     "closed-form vs quadrature second-moment comparisons"),
    ("moment-sweep", cmd_moment_sweep, ("T", "A", "out"),
     "second and fourth moments over a (T, A) grid"),
    ("weights-audit", cmd_weights_audit, ("out",),
     "weight-function support/decay/contour checks"),
    ("kuznetsov", cmd_kuznetsov, ("forms", "quick", "out"),
     "two-sided trace-formula closure report"),
    ("acceptance", cmd_acceptance, ("quick",), "run the acceptance suite"),
]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eislab",
        description="Numerical laboratory for truncated Eisenstein series moments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, keys, doc in _COMMANDS:
        sub = subs.add_parser(name, help=doc)
        sub.add_argument("--config", help="key=value configuration file")
        for key in keys:
            sub.add_argument(f"--{key}", **_FLAGS[key])
        sub.set_defaults(fn=fn, keys=keys)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"eislab: configuration error: {exc}", file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        code = args.fn(cfg)
    except ValueError as exc:
        print(f"eislab: usage error: {exc}", file=sys.stderr)
        return 2
    print(f"# {args.command} finished in {time.time() - t0:.1f}s -> exit {code}",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
