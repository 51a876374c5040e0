"""Command-line interface: volumes, maximization, certification, sweeps.

Outputs are machine readable: JSON on stdout for ``volume``, ``maximize``
and ``certify``; CSV for ``scan``.  Exit codes: 0 success, 2 invalid input,
3 convergence or capacity failure, 4 a certified sign claim failed.

Every flag can also be supplied through ``--config FILE`` as ``key=value``
lines (keys use underscores, e.g. ``t_range=0.9:1.1:50``).  Each line is
read as ``--key=value``, a bare flag for ``key=true`` and nothing for
``key=false``, ahead of the explicit flags: these win, and file values pass
the same checks as flags.  Every malformed value exits 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys

import numpy as np

from .certificates import (
    CLAIM_THRESHOLDS,
    certify_signs_rigorous,
    default_y_grid,
    quad_coeffs,
    quad_roots,
    sign_certificates,
)
from .errors import CapacityError, ConvergenceError, HypersliceError, InvalidInputError
from .geometry import classify_cut, countable_cut, diagonal_section_spec, make_section_spec
from .integral import make_quadrature_config, section_volume_integral
from .maximizer import closed_form_max, decay_inequality_check, maximize_section_volume
from .montecarlo import mc_section_volume
from .vertexsum import section_volume_vertex_sum

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CONVERGENCE = 3
EXIT_CLAIM_FAILED = 4


class _Parser(argparse.ArgumentParser):
    """Raises InvalidInputError where argparse would print usage and exit,
    ArgumentError where a value fails its check, and takes no option prefix
    as the option (``--me`` is not ``--method``).  No option looks like a
    number, so a token that starts with ``-<digit>`` or ``-.<digit>`` is a
    value (``--a -1,1,1``), as argparse allows only for plain numbers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, exit_on_error=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise InvalidInputError(message)


def coordinates(text: str) -> list[float]:
    """``--a``: comma-separated coordinates; empty entries are skipped."""
    return [float(x) for x in text.split(",") if x.strip()]


def dim_range(text: str) -> tuple[int, int]:
    """``--d-range lo:hi``, inclusive, with 2 <= lo <= hi."""
    lo, hi = map(int, text.split(":"))
    if not 2 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected 2 <= lo <= hi, got {text!r}")
    return lo, hi


def radius_grid(text: str) -> np.ndarray:
    """``--t-range lo:hi:n``, n evenly spaced radii from lo to hi, both
    finite; a negative radius is refused where it is used."""
    lo, hi, n = text.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    if n < 1 or not -math.inf < lo <= hi < math.inf:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    return np.linspace(lo, hi, n)


_CONFIG = _Parser(add_help=False)
_CONFIG.add_argument("--config", metavar="FILE",
                     help="key=value lines read as flags before the explicit ones")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hyperslice",
        description="Volumes, maximizers and certificates for hyperplane "
        "sections of the unit cube tangent to a central ball.",
        parents=[_CONFIG],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", help="section volume of one spec")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--a", type=coordinates, help="comma-separated direction")
    p.add_argument("--diagonal", action="store_true",
                   help="use the main diagonal direction")
    p.add_argument("--t", type=float, required=True, help="tangency radius")
    p.add_argument("--method", choices=["sum", "integral", "mc", "all"], default="sum")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p.add_argument("--tol", type=float, default=1e-9, help="integral tolerance")
    p.add_argument("--mc-n", dest="mc_n", type=int, default=1_000_000,
                   help="Monte Carlo sample count, at least 2")

    p = sub.add_parser("maximize", help="maximize volume over directions")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--starts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("certify", help="sign certificates over a dimension range")
    p.add_argument("--d-range", dest="d_range", type=dim_range, required=True,
                   help="inclusive range lo:hi")
    p.add_argument("--grid", type=int, default=10_000, help="uniform y-grid size")
    p.add_argument("--rigorous", action="store_true",
                   help="also certify exactly from the Bernstein form")

    p = sub.add_parser("scan", help="CSV sweep over a radius grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t-range", dest="t_range", type=radius_grid, required=True,
                   help="grid lo:hi:n")
    p.add_argument("--mode", choices=["diagonal", "maximize", "classify"],
                   default="diagonal")
    p.add_argument("--a", type=coordinates,
                   help="direction for classify mode (default: diagonal)")
    p.add_argument("--starts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _config_argv(path: str) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """The ``key=value`` lines of a config file as (line, flag) pairs, and
    the keys set false: ``--key=value``, a bare ``--key`` for true, nothing
    for false."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read config file {path}: {exc}") from exc
    flags, off = [], []
    for line_no, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, eq, value = body.partition("=")
        if not eq:
            raise InvalidInputError(f"{path}:{line_no}: expected key=value, got {body!r}")
        key, value = key.strip().replace("_", "-"), value.strip()
        if value.lower() == "false":
            off.append((line_no, key))
        else:
            flags.append((line_no, f"--{key}" if value.lower() == "true" else f"--{key}={value}"))
    return flags, off


def _direction(args: argparse.Namespace) -> list[float]:
    if len(args.a) != args.d:
        raise InvalidInputError(f"--a has {len(args.a)} coordinates, expected d={args.d}")
    return args.a


def _spec_from_args(args: argparse.Namespace):
    if args.diagonal:
        return diagonal_section_spec(args.d, args.t)
    if args.a is None:
        raise InvalidInputError("pass either --a or --diagonal")
    return make_section_spec(_direction(args), args.t)


def _cut_payload(cut) -> dict | None:
    if cut is None:
        return None
    return {"count": cut.count_below, "kind": cut.kind.value}


def cmd_volume(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    method = args.method
    rows = []  # (method, value, err, cut)
    if method in ("sum", "all"):
        r = section_volume_vertex_sum(spec)
        rows.append((r.method, r.value, r.err, r.cut))
    if method in ("integral", "all"):
        r = section_volume_integral(spec, make_quadrature_config(spec, abs_tol=args.tol))
        rows.append((r.method, r.value, r.err, r.cut))
    if method in ("mc", "all"):
        # err is a 1-sigma standard error (plus the lattice bias bound), not an error bound
        est, stderr = mc_section_volume(spec, n=args.mc_n, seed=args.seed)
        rows.append(("monte_carlo", est, stderr, countable_cut(spec)))
    results = [{"method": m, "value": float(value), "err": float(err), "cut": _cut_payload(cut)}
               for m, value, err, cut in rows]
    payload = {
        "spec": {
            "d": spec.dim,
            "a": [float(x) for x in spec.direction],
            "t": float(spec.radius),
            "b": float(spec.offset),
        },
        "results": results,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_maximize(args: argparse.Namespace) -> int:
    rep = maximize_section_volume(args.d, args.t,
                                  starts=args.starts, seed=args.seed)
    payload = {"d": args.d, "t": float(args.t)}
    for field in dataclasses.fields(rep):
        value = getattr(rep, field.name)
        payload[field.name] = value.tolist() if isinstance(value, np.ndarray) else value
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    lo, hi = args.d_range
    grid = default_y_grid(args.grid)
    claim_failed = False
    blocks = []
    for d in range(lo, hi + 1):
        rep = sign_certificates(d, grid)
        claims = {}
        for name, threshold in CLAIM_THRESHOLDS.items():
            peak = float(getattr(rep, f"max_{name}"))
            claims[name] = {"asserted": d >= threshold, "max": peak, "ok": peak < 0.0}
        block = {
            "d": d,
            "grid_size": rep.grid_size,
            "roots_excluded": rep.roots_excluded,
            "claims": claims,
        }
        if not rep.roots_excluded:
            roots = quad_roots(quad_coeffs(d, 0.5))
            block["roots_at_y_half_in_unit_ray"] = [
                float(r) for r in roots if r >= 1.0
            ]
        if args.rigorous:
            block["certified"] = certify_signs_rigorous(d)
        claim_failed |= any(c["asserted"] and not c["ok"] for c in claims.values())
        claim_failed |= any(claims[name]["asserted"] and not ok
                            for name, ok in block.get("certified", {}).items())
        blocks.append(block)
    decay = []
    for d in range(max(lo, 5), hi + 1):
        band = np.linspace(math.sqrt(d - 2) / 2.0, math.sqrt(d - 1) / 2.0, 100)
        checks = [decay_inequality_check(d, float(t)) for t in band]
        decay.append({"d": d, "points": len(checks),
                      "holds_all": all(holds for _, _, holds in checks),
                      "min_gap": float(min(lhs - rhs for lhs, rhs, _ in checks))})
    print(json.dumps({"certificates": blocks, "decay": decay}, indent=2))
    return EXIT_CLAIM_FAILED if claim_failed else EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    d = args.d
    ts = args.t_range
    mode = args.mode
    if args.a is not None and mode != "classify":
        raise InvalidInputError(f"--a sets the direction of --mode classify, not {mode}")
    if mode == "maximize" and ts[0] <= 0.5:
        raise InvalidInputError("maximize mode needs t > 0.5 everywhere in the grid")
    direction = None if args.a is None else _direction(args)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["d", "t", "V_closed", "V_best", "angle", "count_below", "kind"])

    def fmt(x):
        return format(float(x), ".12g")

    for t in map(float, ts):
        closed = closed_form_max(d, t)
        if mode == "maximize":
            rep = maximize_section_volume(d, t, starts=args.starts, seed=args.seed)
            cut = classify_cut(make_section_spec(rep.best_direction, t))
            row = [closed, rep.best_volume, rep.angle_to_diagonal]
        else:
            if direction is None:
                spec = diagonal_section_spec(d, t)
                angle = 0.0
            else:
                spec = make_section_spec(direction, t)
                diag = np.full(d, 1.0 / math.sqrt(d))
                angle = math.acos(float(np.clip(spec.direction @ diag, -1.0, 1.0)))
            r = section_volume_vertex_sum(spec)
            cut = r.cut
            row = [closed, r.value, angle]
        writer.writerow([d, fmt(t)] + [fmt(x) for x in row]
                        + [cut.count_below, cut.kind.value])
    sys.stdout.write(out.getvalue())
    return EXIT_OK


_COMMANDS = {
    "volume": cmd_volume,
    "maximize": cmd_maximize,
    "certify": cmd_certify,
    "scan": cmd_scan,
}


def main(argv=None) -> int:
    try:
        config, argv = _CONFIG.parse_known_args(argv)
        parser, off = build_parser(), []
        if config.config is not None:
            flags, off = _config_argv(config.config)
            argv[1:1] = [flag for _, flag in flags]  # after the subcommand
            for line_no, flag in flags if argv and argv[0] in _COMMANDS else ():
                try:  # each file value alone, so that a failing one names its line
                    parser.parse_args([argv[0], flag])
                except argparse.ArgumentError as exc:
                    if exc.argument_name is not None:  # None: flags missing, not this value
                        raise InvalidInputError(f"{config.config}:{line_no}: {exc}") from exc
                except InvalidInputError:
                    pass  # the value passed; other required flags are missing
        args = parser.parse_args(argv)
        for line_no, key in off:
            if not isinstance(getattr(args, key.replace("-", "_"), None), bool):
                raise InvalidInputError(
                    f"{config.config}:{line_no}: {key} is not a flag of {args.command}")
        return _COMMANDS[args.command](args)
    except (InvalidInputError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (CapacityError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except HypersliceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
