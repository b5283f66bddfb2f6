"""Command-line front door.

Subcommands:

* ``point``     deficit branches and winner at one (T, B) point
* ``profile``   dump of S~(theta) samples plus refined extrema
* ``boundary``  trace one boundary curve to CSV
* ``triple``    locate the triple point of two (or three) curves
* ``jumps``     optimal-angle jump table across the interior-crossing line
* ``diagram``   full grid sweep to CSV or JSON, optional level lines

No command takes an option it does not read.  ``--norm`` (T and B in
units of |J| or |Jz|) goes to every command but ``profile``, ``--format``
to ``point``, ``triple`` and ``diagram``, ``--units`` (nats or bits) to
``profile``.  ``diagram --workers`` is accepted for compatibility only
(>= 1): the sweep runs in one process.  A value may start with "-"
(``--J -1e-3``, ``--B-range -1:1``) unless it names an option.

Exit codes: 0 success, 1 usage or validation error, 2 partial results
(incomplete trace, missing root or triple point).  Temperatures have a
fixed floor of 1e-8 (``model.T_FLOOR``); a lower T is clamped to it with
a warning.  All files are written only after the computation finished,
with numbers at 9 significant digits, so reruns of one configuration are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

from .boundaries import (
    AmbiguousBracket,
    BoundaryKind,
    NoRoot,
    NoTriplePoint,
    _march,
    _trace_to_crossing,
    curve_to_csv,
    find_triple_point,
    solve_boundary_on_line,
    trace_boundary,
)
from .diagram import (
    GridSpec,
    check_levels,
    contours_to_csv,
    diagram_to_csv,
    diagram_to_json,
    level_lines,
    sweep,
)
from .model import LN2, T_FLOOR, ModelParams, thermal_state
from .numfmt import fmt9, round9
from .optimizer import optimal_angle_jump, optimize_deficit, scan_profile

__all__ = ["main"]

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        raise UsageError(message)


def _kind_names() -> list[str]:
    return sorted(kind.value for kind in BoundaryKind)


def _parse_range(text: str, name: str) -> tuple[float, float, float | None]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"{name} must look like lo:hi or lo:hi:step")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else None
    except ValueError as err:
        raise UsageError(f"bad number in {name}: {err}") from None
    if step is not None and step <= 0.0:
        raise UsageError(f"{name} step must be positive")
    return lo, hi, step


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise UsageError("--grid must look like 100x100")
    try:
        n_t, n_b = int(parts[0]), int(parts[1])
    except ValueError as err:
        raise UsageError(f"bad --grid: {err}") from None
    return n_t, n_b


def _norm_value(args) -> float:
    unit = abs(args.J) if args.norm == "J" else abs(args.Jz)
    if unit <= 0.0:
        raise UsageError(f"cannot normalize on |{args.norm}| = 0")
    return unit


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_point(args) -> int:
    u = _norm_value(args)
    res = optimize_deficit(ModelParams(args.J, args.Jz, args.B, args.T))
    doc = {
        "T": float(args.T) / u,
        "B": float(args.B) / u,
        "branch": res.branch.value,
        "optimal_theta": res.optimal_theta,
        "delta0_nats": res.delta0,
        "delta_halfpi_nats": res.delta_halfpi,
        "delta_theta_nats": res.delta_theta,
        "deficit_nats": res.deficit,
        "deficit_bits": res.deficit_bits,
        "shape": res.shape_label,
    }
    if args.format == "json":
        _write(args, json.dumps(
            {k: (v if isinstance(v, str) or v is None else round9(v))
             for k, v in doc.items()},
            sort_keys=True, indent=1) + "\n")
    else:
        lines = []
        for key, val in doc.items():
            if val is None:
                lines.append(f"{key},")
            elif isinstance(val, str):
                lines.append(f"{key},{val}")
            else:
                lines.append(f"{key},{fmt9(val)}")
        _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_profile(args) -> int:
    state = thermal_state(ModelParams(args.J, args.Jz, args.B, args.T))
    profile = scan_profile(state, args.n)
    unit = LN2 if args.units == "bits" else 1.0
    lines = [
        f"# J={fmt9(args.J)} Jz={fmt9(args.Jz)} B={fmt9(args.B)} T={fmt9(args.T)}"
        f" units={args.units}",
        f"# shape={profile.shape_label}",
    ]
    for theta, entropy in profile.interior_minima:
        lines.append(f"# interior_min,{fmt9(theta)},{fmt9(entropy / unit)}")
    for theta, entropy in profile.interior_maxima:
        lines.append(f"# interior_max,{fmt9(theta)},{fmt9(entropy / unit)}")
    lines.append("theta,entropy")
    if args.extended:
        import numpy as np

        from .measurement import entropy_curve

        thetas = np.linspace(-math.pi / 2.0, math.pi / 2.0, 2 * args.n - 1)
        values = entropy_curve(state, thetas)
        for th, en in zip(thetas, values):
            lines.append(f"{fmt9(th)},{fmt9(en / unit)}")
    else:
        for th, en in profile.samples:
            lines.append(f"{fmt9(th)},{fmt9(en / unit)}")
    _write(args, "\n".join(lines) + "\n")
    return 0


def _march_range(args) -> tuple[float, float, float]:
    """``boundary``'s lo, hi and step along ``--march``; the other range is unread."""
    own, other = ("B", "T") if args.march == "B" else ("T", "B")
    if getattr(args, f"{other}_range") is not None:
        raise UsageError(f"--{other}-range does not apply with --march {own}")
    text = getattr(args, f"{own}_range")
    if text is None:
        raise UsageError(f"--{own}-range is required with --march {own}")
    lo, hi, step = _parse_range(text, f"--{own}-range")
    return lo, hi, step or 0.01


def _trace_template(args) -> ModelParams:
    """``trace_boundary``'s template for the couplings of ``args``; it
    reads only J and Jz, so B and T are fixed valid values."""
    return ModelParams(args.J, args.Jz, B=1.0, T=1.0)


def cmd_boundary(args) -> int:
    kind = BoundaryKind(args.kind)
    u = _norm_value(args)
    lo, hi, step = _march_range(args)
    bracket = (args.bracket_lo, args.bracket_hi)
    curve = trace_boundary(
        kind, _trace_template(args), args.march, lo, hi, step,
        first_bracket=bracket, classify=not args.no_classify,
    )
    _write(args, curve_to_csv(curve, u))
    if not curve.points:
        print("no root found anywhere on the requested span", file=sys.stderr)
        return 2
    if curve.complete:
        return 0
    last = curve.marched_values()[-1] / u
    print(f"curve partial: {curve.stop_reason}; last {args.march}={fmt9(last)}",
          file=sys.stderr)
    return 2


def cmd_triple(args) -> int:
    lo, hi, step = _parse_range(args.B_range, "--B-range")
    step = step or 0.01
    names = [k.strip() for k in args.kinds.split(",") if k.strip()]
    for name in names:
        if name not in _kind_names():
            raise UsageError(
                f"unknown kind {name!r} in --kinds; valid kinds are "
                + ", ".join(_kind_names())
            )
    if len(set(names)) < 2:
        raise UsageError("--kinds needs at least two different kinds")
    kinds = [BoundaryKind(name) for name in names]
    u = _norm_value(args)
    template = _trace_template(args)
    bracket = (args.bracket_lo, args.bracket_hi)
    traces = []
    for kind in kinds:
        # zeroprime exists only above the triple point; trace it downward
        start, stop = (hi, lo) if kind is BoundaryKind.ZERO_PRIME else (lo, hi)
        traces.append(_march(kind, template, "B", start, stop, step, bracket))
    # find_triple_point's pairs, each traced until it crosses, two upward
    # curves first (zeroprime marches down, to its end)
    pairs = itertools.combinations(traces, 2)
    for one, other in sorted(pairs, key=lambda pair: not (pair[0].up and pair[1].up)):
        if _trace_to_crossing(one, other):
            break
    try:
        point = find_triple_point([trace.curve for trace in traces])
    except NoTriplePoint as err:
        print(f"no triple point inside the scanned range: {err}", file=sys.stderr)
        return 2
    doc = {
        "T": round9(point.T / u),
        "B": round9(point.B / u),
        "kinds": sorted(k.value for k in point.meeting_kinds),
    }
    if args.format == "json":
        _write(args, json.dumps(doc, sort_keys=True, indent=1) + "\n")
    else:
        _write(args, f"T,B,kinds\n{fmt9(point.T / u)},{fmt9(point.B / u)},"
                     + "|".join(doc["kinds"]) + "\n")
    return 0


def cmd_jumps(args) -> int:
    try:
        b_values = [float(x) for x in args.B_list.split(",") if x.strip()]
    except ValueError as err:
        raise UsageError(f"bad --B-list: {err}") from None
    if not b_values:
        raise UsageError("--B-list is empty")
    if not 0.0 < args.eps < math.inf:
        raise UsageError(f"--eps must be positive and finite, got {args.eps!r}")
    u = _norm_value(args)
    rows = []
    failures = 0
    for b in b_values:
        template = ModelParams(args.J, args.Jz, B=b, T=0.5)
        try:
            t_half, _ = solve_boundary_on_line(
                BoundaryKind.HALF_PI, template, "B",
                (args.bracket_lo, args.bracket_hi),
            )
            t_cross, _ = solve_boundary_on_line(
                BoundaryKind.ZERO_PRIME, template, "B",
                (t_half + 1e-4, t_half + 0.2), n_scan=801,
            )
        except (NoRoot, AmbiguousBracket):
            t_cross = None
        # no crossing, one too cold to straddle by eps above the floor, or
        # an eps that t_cross +- eps rounds away
        if (
            t_cross is None
            or t_cross - args.eps <= T_FLOOR
            or t_cross + args.eps == t_cross
            or t_cross - args.eps == t_cross
        ):
            failures += 1
            rows.append(f"{fmt9(b / u)},,")
            continue
        jump = optimal_angle_jump(
            ModelParams(args.J, args.Jz, b, t_cross + args.eps),
            ModelParams(args.J, args.Jz, b, t_cross - args.eps),
            n=801,
        )
        rows.append(f"{fmt9(b / u)},{fmt9(t_cross / u)},{fmt9(jump)}")
    header = (
        f"# J={fmt9(args.J)} Jz={fmt9(args.Jz)} norm={args.norm}"
        f" eps={fmt9(args.eps)}\nB,T,jump"
    )
    _write(args, header + "\n" + "\n".join(rows) + "\n")
    return 2 if failures else 0


def cmd_diagram(args) -> int:
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    u = _norm_value(args)
    t_lo, t_hi, _ = _parse_range(args.T_range, "--T-range")
    b_lo, b_hi, _ = _parse_range(args.B_range, "--B-range")
    n_t, n_b = _parse_grid(args.grid)
    try:
        grid = GridSpec(t_lo, t_hi, b_lo, b_hi, n_t, n_b)
    except ValueError as err:
        raise UsageError(str(err)) from None
    levels = None
    if args.levels:
        try:
            levels = [float(x) for x in args.levels.split(",") if x.strip()]
        except ValueError as err:
            raise UsageError(f"bad --levels: {err}") from None
        check_levels(levels)
    diagram = sweep(args.J, args.Jz, grid)
    contours = None if levels is None else level_lines(diagram, levels)
    if args.format == "json":
        _write(args, diagram_to_json(diagram, args.norm, u))
    else:
        _write(args, diagram_to_csv(diagram, args.norm, u))
    if contours is not None:
        text = contours_to_csv(contours, u)
        path = (args.out or "contours") + ".levels.csv"
        with open(path, "w") as fh:
            fh.write(text)
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--J", type=float, required=True, help="transverse coupling")
    sub.add_argument("--Jz", type=float, required=True, help="longitudinal coupling")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _add_norm(sub) -> None:
    sub.add_argument("--norm", choices=("J", "Jz"), default="J",
                     help="report T and B in units of |J| or |Jz|")


def _add_bracket(sub, lo: float, hi: float) -> None:
    sub.add_argument("--bracket-lo", type=float, default=lo,
                     help="initial solve bracket, lower end")
    sub.add_argument("--bracket-hi", type=float, default=hi,
                     help="initial solve bracket, upper end")


@functools.cache  # one build takes about 2 ms; parsing leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="xxz-deficit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("point", help="deficit at one (T, B) point")
    _add_common(p)
    _add_norm(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.set_defaults(func=cmd_point)

    p = subs.add_parser("profile", help="S~(theta) samples; CSV columns theta,entropy")
    _add_common(p)
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--n", type=int, default=201, help="sample count")
    p.add_argument("--extended", action="store_true",
                   help="sample theta over [-pi/2, pi/2] instead of [0, pi/2]")
    p.set_defaults(func=cmd_profile)

    p = subs.add_parser("boundary", help="trace one boundary curve; CSV columns "
                                         "kind,T,B,residual,is_physical")
    _add_common(p)
    _add_norm(p)
    p.add_argument("--kind", choices=_kind_names(), required=True)
    p.add_argument("--march", choices=("T", "B"), default="B",
                   help="coordinate to march along")
    p.add_argument("--B-range", dest="B_range", help="lo:hi[:step] when marching B")
    p.add_argument("--T-range", dest="T_range", help="lo:hi[:step] when marching T")
    p.add_argument("--no-classify", action="store_true",
                   help="skip the per-point phase-change check")
    _add_bracket(p, 0.02, 3.0)
    p.set_defaults(func=cmd_boundary)

    p = subs.add_parser("triple", help="triple point of boundary curves: each pair "
                                       "traced until it crosses, the point solved "
                                       "by Newton in (T, B)")
    _add_common(p)
    _add_norm(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--B-range", dest="B_range", default="0.8:2.2:0.02",
                   help="march range lo:hi[:step]")
    p.add_argument("--kinds", default="equal,halfpi",
                   help="comma list of curve kinds to intersect")
    _add_bracket(p, 0.05, 1.2)
    p.set_defaults(func=cmd_triple)

    p = subs.add_parser("jumps", help="optimal-angle jump table; CSV columns B,T,jump")
    _add_common(p)
    _add_norm(p)
    p.add_argument("--B-list", dest="B_list", required=True,
                   help="comma list of field strengths")
    p.add_argument("--eps", type=float, default=1e-5,
                   help="temperature offset around the crossing (> 0)")
    _add_bracket(p, 0.3, 1.0)
    p.set_defaults(func=cmd_jumps)

    p = subs.add_parser("diagram", help="grid sweep; CSV columns "
                                        "T,B,branch,theta_opt,deficit_nats,deficit_bits")
    _add_common(p)
    _add_norm(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--T-range", dest="T_range", required=True, help="lo:hi")
    p.add_argument("--B-range", dest="B_range", required=True, help="lo:hi")
    p.add_argument("--grid", default="200x200", help="n_T x n_B cells")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility (must be >= 1); the "
                        "sweep runs in one process")
    p.add_argument("--levels", default=None,
                   help="comma list of deficit levels; contours go to "
                        "OUT.levels.csv")
    p.set_defaults(func=cmd_diagram)
    return parser


def _join_dash_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with every value that starts with "-" joined to its option.

    argparse takes a token that starts with "-" for an option unless it
    is a plain decimal such as -1.5, so ``--J -1e-3`` and ``--B-range
    -1:1`` would fail with "expected one argument".  Such a token, after
    an option of the command that takes a value and not itself an option
    of the command, becomes ``--J=-1e-3``.
    """
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    sub = subs.choices.get(argv[0]) if argv else None
    if sub is None:
        return argv
    known = {s for a in sub._actions for s in a.option_strings}
    takes_value = {s for a in sub._actions if a.nargs is None for s in a.option_strings}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in takes_value and token.startswith("-") and token not in known:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_dash_values(parser, argv))
        return args.func(args)
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
