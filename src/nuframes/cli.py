"""Command line interface.

Subcommands:

  validate    hypothesis and filter-condition residuals for a setup
  parseval    frame-identity verification for a signal over a level window
  oep         weighted filter-condition report (needs a scaling symbol)
  telescope   one-level collapse residual of the refinement structure
  levels      scaling-level energy profile of a signal
  generators  derived generator expressions with coarse samples

Exit status: 0 when checks pass, 1 when a mathematical check fails, 2 for
bad usage or malformed setup/signal input.

Reports are deterministic: identical invocations produce byte-identical
output (no timestamps, fixed key order, repr-exact floats).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

import numpy as np

from .analysis import (
    ROUTE_DIRECT,
    ROUTE_PARSEVAL,
    FrequencyGrid,
    level_profile,
    norm_sq,
    parseval_report,
    telescoping_residual,
)
from .errors import UepPreconditionFailed
from .presets import load_setup_file, preset, preset_names
from .setups import (
    DEFAULT_LIMIT_TOL,
    DEFAULT_TOL,
    GeneralSetup,
    derive_generator,
    oep_check,
    validate_setup,
)
from .signals import SignalSpec, hann_bump, indicator_signal
from .symfunc import evaluate, midpoint_chunks, parse, render

_ROUTE_TOL = {ROUTE_PARSEVAL: 1e-6, ROUTE_DIRECT: 1e-2}
_SIGNAL_FORM = re.compile(r"(bump|ind)\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)")


def _add_setup_args(sp: argparse.ArgumentParser):
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument(
        "--preset", choices=preset_names(), help="built-in setup by name"
    )
    g.add_argument("--setup", metavar="PATH", help="JSON setup file")


def _add_output_args(sp: argparse.ArgumentParser):
    sp.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    sp.add_argument(
        "--format",
        choices=("report", "table"),
        default="report",
        help="report = JSON, table = CSV (default: report)",
    )


def _add_grid_arg(sp: argparse.ArgumentParser):
    sp.add_argument(
        "--grid-log2",
        type=int,
        default=20,
        metavar="K",
        help="integration grid has 2^K cells on [0, 1/2] (default 20)",
    )


def _add_signal_arg(sp: argparse.ArgumentParser):
    sp.add_argument(
        "--signal",
        required=True,
        metavar="SPEC",
        help=(
            "bump(a,b) for a raised-cosine bump, ind(a,b) for an indicator, "
            "or a raw frequency expression (then treated as supported in "
            "[-4, 4])"
        ),
    )


def _add_level_args(sp: argparse.ArgumentParser):
    sp.add_argument(
        "--j", metavar="A..B", help="level window, e.g. -4..4 or a single level"
    )
    sp.add_argument("--jmin", type=int, metavar="A", help="lowest level")
    sp.add_argument("--jmax", type=int, metavar="B", help="highest level")


def _setup_label(args) -> str:
    return args.preset if args.preset else args.setup


def _resolve_setup(args) -> GeneralSetup:
    if args.preset:
        return preset(args.preset)
    return load_setup_file(args.setup)


def _resolve_grid(args) -> FrequencyGrid:
    return FrequencyGrid(Fraction(0), Fraction(1, 2), args.grid_log2)


def _signal_endpoint(text: str) -> Fraction:
    v = Fraction(text)
    try:
        float(v)
    except OverflowError:
        raise ValueError(
            f"signal endpoint {text} is outside the float range"
        ) from None
    return v


def _parse_signal(text: str) -> SignalSpec:
    t = text.strip()
    m = _SIGNAL_FORM.fullmatch(t)
    if m:
        a, b = _signal_endpoint(m.group(2)), _signal_endpoint(m.group(3))
        return hann_bump(a, b) if m.group(1) == "bump" else indicator_signal(a, b)
    return SignalSpec(
        fhat=parse(t), support=(Fraction(-4), Fraction(4)), label=t
    )


def _resolve_levels(args, default_min: int, default_max: int) -> tuple[int, int]:
    if args.j is not None:
        if args.jmin is not None or args.jmax is not None:
            raise ValueError("give either --j or --jmin/--jmax, not both")
        t = args.j.strip()
        try:
            if ".." in t:
                lo, hi = t.split("..", 1)
                a, b = int(lo), int(hi)
            else:
                a = b = int(t)
        except ValueError:
            raise ValueError(
                f"--j expects A..B or one integer, got {args.j!r}"
            ) from None
    else:
        a = default_min if args.jmin is None else args.jmin
        b = default_max if args.jmax is None else args.jmax
    if b < a:
        raise ValueError(f"empty level window: {a}..{b}")
    return a, b


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(d: dict) -> str:
    return json.dumps(d, indent=2) + "\n"


def _kv_table(d: dict) -> str:
    lines = ["field,value"]
    for k, v in d.items():
        if isinstance(v, dict):
            lines.extend(f"{k}:{kk},{vv!r}" for kk, vv in v.items())
        else:
            lines.append(f"{k},{v!r}")
    return "\n".join(lines) + "\n"


def _rows_table(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(repr(x) if isinstance(x, float) else str(x) for x in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _cmd_validate(args) -> int:
    setup = _resolve_setup(args)
    grid = _resolve_grid(args)
    rep = validate_setup(setup, grid.log2_n, tol=args.tol, limit_tol=args.limit_tol)
    d = {"setup": _setup_label(args)}
    d.update(rep.to_dict())
    text = _json_text(d) if args.format == "report" else _kv_table(d)
    _emit(text, args.out)
    return 0 if rep.passed else 1


def _cmd_parseval(args) -> int:
    setup = _resolve_setup(args)
    grid = _resolve_grid(args)
    signal = _parse_signal(args.signal)
    j_min, j_max = _resolve_levels(args, -4, 4)
    tol = _ROUTE_TOL[args.route] if args.tol is None else args.tol
    rep = parseval_report(
        signal, setup, j_min=j_min, j_max=j_max, route=args.route,
        M=args.M, grid=grid,
    )
    slack = tol * rep.signal_norm_sq + rep.coverage_tail_mass
    if rep.coset_tail_estimate is not None:
        slack += rep.coset_tail_estimate
    passed = (
        rep.neg_frequency_mass == 0.0
        and abs(rep.total - rep.signal_norm_sq) <= slack
    )
    if args.format == "report":
        d = {"setup": _setup_label(args)}
        d.update(rep.to_dict())
        d["tol"] = tol
        d["passed"] = passed
        text = _json_text(d)
    else:
        text = rep.to_csv_text()
    _emit(text, args.out)
    return 0 if passed else 1


def _cmd_oep(args) -> int:
    setup = _resolve_setup(args)
    grid = _resolve_grid(args)
    rep = oep_check(setup, grid.log2_n)
    passed = rep.residual <= args.tol and rep.theta_limit_deviation <= args.limit_tol
    d = {
        "setup": _setup_label(args),
        "grid_log2": grid.log2_n,
        "tol": args.tol,
        "limit_tol": args.limit_tol,
        "residual": rep.residual,
        "theta_min": rep.theta_min,
        "theta_limit_deviation": rep.theta_limit_deviation,
        "passed": passed,
    }
    text = _json_text(d) if args.format == "report" else _kv_table(d)
    _emit(text, args.out)
    return 0 if passed else 1


def _cmd_telescope(args) -> int:
    setup = _resolve_setup(args)
    grid = _resolve_grid(args)
    signal = _parse_signal(args.signal)
    j_min, j_max = _resolve_levels(args, 1, 1)
    nrm = norm_sq(signal.fhat, signal.support, grid)
    rows = telescoping_residual(signal.fhat, setup, range(j_min, j_max + 1), grid)
    passed = all(resid <= args.tol * nrm for (_, resid) in rows)
    if args.format == "report":
        d = {
            "setup": _setup_label(args),
            "signal": signal.label,
            "grid": grid.to_meta(),
            "tol": args.tol,
            "levels": [[j, resid] for (j, resid) in rows],
            "signal_norm_sq": nrm,
            "passed": passed,
        }
        text = _json_text(d)
    else:
        text = _rows_table("level,residual", rows)
    _emit(text, args.out)
    return 0 if passed else 1


def _cmd_levels(args) -> int:
    setup = _resolve_setup(args)
    grid = _resolve_grid(args)
    signal = _parse_signal(args.signal)
    j_min, j_max = _resolve_levels(args, -4, 4)
    prof = level_profile(signal.fhat, setup, range(j_min, j_max + 1), grid)
    nrm = norm_sq(signal.fhat, signal.support, grid)
    if args.format == "report":
        d = {
            "setup": _setup_label(args),
            "signal": signal.label,
            "grid": grid.to_meta(),
            "levels": [[j, v] for (j, v) in prof],
            "signal_norm_sq": nrm,
        }
        text = _json_text(d)
    else:
        text = _rows_table("level,value", prof)
    _emit(text, args.out)
    return 0


def _cmd_generators(args) -> int:
    setup = _resolve_setup(args)
    if not 2 <= args.sample_log2 <= 12:
        raise ValueError(
            f"sample-log2 must be in [2, 12], got {args.sample_log2}"
        )
    g = next(iter(midpoint_chunks(0, Fraction(1, 2), args.sample_log2,
                                  chunk=1 << args.sample_log2)))
    gens = []
    for ell in range(1, setup.n + 1):
        e = derive_generator(setup, ell)
        v = evaluate(e, g)
        bad = ~np.isfinite(v)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"generator {ell} is {v[i].item()!r} at gamma={float(g[i])}: "
                "a value overflows a float"
            )
        gens.append(
            {
                "index": ell,
                "expression": render(e),
                "samples": [
                    [float(x), float(c.real), float(c.imag)]
                    for x, c in zip(g, v)
                ],
            }
        )
    if args.format == "report":
        d = {
            "setup": _setup_label(args),
            "sample_log2": args.sample_log2,
            "psi0_hat": render(setup.psi0_hat),
            "generators": gens,
        }
        text = _json_text(d)
    else:
        rows = [
            (gen["index"], x, re_, im_)
            for gen in gens
            for (x, re_, im_) in gen["samples"]
        ]
        text = _rows_table("generator,gamma,re,im", rows)
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nuframes",
        description=(
            "Construct and verify tight wavelet frames over the nonuniform "
            "translation set {0, r/N} + 2Z with dilation 2N."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check setup hypotheses")
    _add_setup_args(sp)
    _add_grid_arg(sp)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                    help=f"residual tolerance (default {DEFAULT_TOL})")
    sp.add_argument("--limit-tol", type=float, default=DEFAULT_LIMIT_TOL,
                    help=f"0+ limit tolerance (default {DEFAULT_LIMIT_TOL})")
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("parseval", help="verify the frame identity")
    _add_setup_args(sp)
    _add_signal_arg(sp)
    _add_level_args(sp)
    sp.add_argument(
        "--route",
        choices=(ROUTE_PARSEVAL, ROUTE_DIRECT),
        default=ROUTE_PARSEVAL,
        help="parseval = closed-form level sums, direct = truncated "
             "coefficient sums (default parseval)",
    )
    sp.add_argument("--M", type=int, default=2048, metavar="M",
                    help="direct-route translation window |m| <= M (default 2048)")
    _add_grid_arg(sp)
    sp.add_argument("--tol", type=float, default=None,
                    help="relative tolerance on total vs ||f||^2 "
                         "(default 1e-6 parseval route, 1e-2 direct route)")
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_parseval)

    sp = sub.add_parser("oep", help="weighted filter-condition report")
    _add_setup_args(sp)
    _add_grid_arg(sp)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                    help=f"residual tolerance (default {DEFAULT_TOL})")
    sp.add_argument("--limit-tol", type=float, default=DEFAULT_LIMIT_TOL,
                    help=f"0+ limit tolerance (default {DEFAULT_LIMIT_TOL})")
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_oep)

    sp = sub.add_parser("telescope", help="one-level collapse residual")
    _add_setup_args(sp)
    _add_signal_arg(sp)
    _add_level_args(sp)
    _add_grid_arg(sp)
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="residual tolerance relative to ||f||^2 (default 1e-8)")
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_telescope)

    sp = sub.add_parser("levels", help="scaling-level energy profile")
    _add_setup_args(sp)
    _add_signal_arg(sp)
    _add_level_args(sp)
    _add_grid_arg(sp)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_levels)

    sp = sub.add_parser("generators", help="derived generator expressions")
    _add_setup_args(sp)
    sp.add_argument("--sample-log2", type=int, default=6, metavar="K",
                    help="sample the generators at 2^K midpoints of "
                         "[0, 1/2] (default 6)")
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_generators)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UepPreconditionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
