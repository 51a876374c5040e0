"""Command-line interface: volumes, maximization, certification, sweeps.

Outputs are machine readable: JSON on stdout for ``volume``, ``maximize``
and ``certify``; CSV for ``scan``.  Exit codes: 0 success, 2 invalid input,
3 convergence or capacity failure, 4 a certified sign claim failed.

Every flag can also be supplied through ``--config FILE`` as ``key=value``
lines (keys use underscores, e.g. ``t_range=0.9:1.1:50``); explicit flags
win over the file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
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
from .geometry import classify_cut, diagonal_section_spec, make_section_spec
from .integral import make_quadrature_config, section_volume_integral
from .maximizer import closed_form_max, decay_inequality_check, maximize_section_volume
from .montecarlo import mc_section_volume
from .vertexsum import section_volume_vertex_sum

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CONVERGENCE = 3
EXIT_CLAIM_FAILED = 4

_DEFAULTS = {
    "volume": {
        "d": None, "a": None, "diagonal": False, "t": None,
        "method": "sum", "seed": 0, "tol": 1e-9, "mc_n": 1_000_000,
    },
    "maximize": {"d": None, "t": None, "starts": 64, "seed": 0},
    "certify": {"d_range": None, "grid": 10_000, "rigorous": False},
    "scan": {
        "d": None, "t_range": None, "mode": "diagonal", "a": None,
        "starts": 64, "seed": 0,
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperslice",
        description="Volumes, maximizers and certificates for hyperplane "
        "sections of the unit cube tangent to a central ball.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sup = argparse.SUPPRESS

    p = sub.add_parser("volume", help="section volume of one spec")
    p.add_argument("--d", type=int, default=sup, help="dimension")
    p.add_argument("--a", type=str, default=sup, help="comma-separated direction")
    p.add_argument("--diagonal", action="store_true", default=sup,
                   help="use the main diagonal direction")
    p.add_argument("--t", type=float, default=sup, help="tangency radius")
    p.add_argument("--method", choices=["sum", "integral", "mc", "all"], default=sup)
    p.add_argument("--seed", type=int, default=sup, help="Monte Carlo seed")
    p.add_argument("--tol", type=float, default=sup, help="integral tolerance")
    p.add_argument("--mc-n", dest="mc_n", type=int, default=sup,
                   help="Monte Carlo sample count, at least 2")
    p.add_argument("--config", type=str, default=sup)

    p = sub.add_parser("maximize", help="maximize volume over directions")
    p.add_argument("--d", type=int, default=sup)
    p.add_argument("--t", type=float, default=sup)
    p.add_argument("--starts", type=int, default=sup)
    p.add_argument("--seed", type=int, default=sup)
    p.add_argument("--config", type=str, default=sup)

    p = sub.add_parser("certify", help="sign certificates over a dimension range")
    p.add_argument("--d-range", dest="d_range", type=str, default=sup,
                   help="inclusive range lo:hi")
    p.add_argument("--grid", type=int, default=sup, help="uniform y-grid size")
    p.add_argument("--rigorous", action="store_true", default=sup,
                   help="also certify exactly from the Bernstein form")
    p.add_argument("--config", type=str, default=sup)

    p = sub.add_parser("scan", help="CSV sweep over a radius grid")
    p.add_argument("--d", type=int, default=sup)
    p.add_argument("--t-range", dest="t_range", type=str, default=sup,
                   help="grid lo:hi:n")
    p.add_argument("--mode", choices=["diagonal", "maximize", "classify"], default=sup)
    p.add_argument("--a", type=str, default=sup,
                   help="direction for classify mode (default: diagonal)")
    p.add_argument("--starts", type=int, default=sup)
    p.add_argument("--seed", type=int, default=sup)
    p.add_argument("--config", type=str, default=sup)
    return parser


def _coerce(raw: str, template):
    if isinstance(template, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise InvalidInputError(f"expected a boolean, got {raw!r}")
    if isinstance(template, int) and not isinstance(template, bool):
        return int(raw)
    if isinstance(template, float):
        return float(raw)
    return raw


def _load_config(path: str, defaults: dict) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise InvalidInputError(
                        f"{path}:{line_no}: expected key=value, got {body!r}"
                    )
                key, _, raw = body.partition("=")
                key = key.strip().replace("-", "_")
                if key not in defaults:
                    raise InvalidInputError(f"{path}:{line_no}: unknown key {key!r}")
                template = defaults[key]
                # None templates are required/str-typed; numeric ones are
                # coerced after merging
                out[key] = raw.strip() if template is None else _coerce(raw.strip(), template)
    except OSError as exc:
        raise InvalidInputError(f"cannot read config file {path}: {exc}") from exc
    return out


def _merge(ns: argparse.Namespace) -> dict:
    command = ns.command
    passed = {k: v for k, v in vars(ns).items() if k != "command"}
    merged = dict(_DEFAULTS[command])
    config_path = passed.pop("config", None)
    if config_path is not None:
        merged.update(_load_config(config_path, merged))
    # special-case typed templates that default to None
    for key in ("d", "starts", "seed", "grid", "mc_n"):
        if key in merged and isinstance(merged[key], str):
            merged[key] = int(merged[key])
    for key in ("t", "tol"):
        if key in merged and isinstance(merged[key], str):
            merged[key] = float(merged[key])
    merged.update(passed)
    merged["command"] = command
    return merged


def _require(args: dict, *keys):
    for key in keys:
        if args.get(key) is None:
            raise InvalidInputError(f"missing required option --{key.replace('_', '-')}")


def _spec_from_args(args: dict):
    _require(args, "d", "t")
    d, t = args["d"], args["t"]
    if args.get("diagonal"):
        return diagonal_section_spec(d, t)
    if args.get("a") is None:
        raise InvalidInputError("pass either --a or --diagonal")
    coords = [float(x) for x in str(args["a"]).split(",") if x.strip() != ""]
    if len(coords) != d:
        raise InvalidInputError(f"--a has {len(coords)} coordinates, expected d={d}")
    return make_section_spec(coords, t)


def _fmt(x: float) -> float:
    return float(x)


def _cut_payload(cut) -> dict:
    return {"count": cut.count_below, "kind": cut.kind.value}


def cmd_volume(args: dict) -> int:
    spec = _spec_from_args(args)
    method = args["method"]
    results = []
    if method in ("sum", "all"):
        r = section_volume_vertex_sum(spec)
        results.append({"method": "vertex_sum", "value": _fmt(r.value),
                        "err": _fmt(r.err), "cut": _cut_payload(r.cut)})
    if method in ("integral", "all"):
        cfg = make_quadrature_config(spec, abs_tol=args["tol"])
        r = section_volume_integral(spec, cfg)
        results.append({"method": "integral", "value": _fmt(r.value),
                        "err": _fmt(r.err), "cut": _cut_payload(r.cut)})
    if method in ("mc", "all"):
        est, stderr = mc_section_volume(spec, n=args["mc_n"], seed=args["seed"])
        results.append({"method": "monte_carlo", "value": _fmt(est),
                        "err": _fmt(stderr), "cut": _cut_payload(classify_cut(spec))})
    payload = {
        "spec": {
            "d": spec.dim,
            "a": [float(x) for x in spec.direction],
            "t": _fmt(spec.radius),
            "b": _fmt(spec.offset),
        },
        "results": results,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_maximize(args: dict) -> int:
    _require(args, "d", "t")
    rep = maximize_section_volume(args["d"], args["t"],
                                  starts=args["starts"], seed=args["seed"])
    payload = {
        "d": args["d"],
        "t": _fmt(args["t"]),
        "best_direction": [float(x) for x in rep.best_direction],
        "best_volume": _fmt(rep.best_volume),
        "diagonal_volume": _fmt(rep.diagonal_volume),
        "angle_to_diagonal": _fmt(rep.angle_to_diagonal),
        "multiplier": _fmt(rep.multiplier),
        "residual_norm": _fmt(rep.residual_norm),
        "starts": rep.starts,
        "converged_starts": rep.converged_starts,
        "infeasible_starts": rep.infeasible_starts,
        "capped_starts": rep.capped_starts,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidInputError(f"expected lo:hi, got {text!r}")
    lo, hi = int(parts[0]), int(parts[1])
    if lo > hi:
        raise InvalidInputError(f"empty range {text!r}")
    return lo, hi


def cmd_certify(args: dict) -> int:
    _require(args, "d_range")
    lo, hi = _parse_range(args["d_range"])
    if lo < 2:
        raise InvalidInputError("dimensions below 2 are meaningless here")
    grid = default_y_grid(args["grid"])
    claim_failed = False
    blocks = []
    for d in range(lo, hi + 1):
        rep = sign_certificates(d, grid)
        maxima = {
            "lead_coeff": rep.max_lead_coeff,
            "slope_at_one": rep.max_slope_at_one,
            "value_at_one": rep.max_value_at_one,
        }
        claims = {}
        for name, threshold in CLAIM_THRESHOLDS.items():
            asserted = d >= threshold
            ok = maxima[name] < 0.0
            if asserted and not ok:
                claim_failed = True
            claims[name] = {"asserted": asserted, "max": _fmt(maxima[name]), "ok": ok}
        block = {
            "d": d,
            "grid_size": rep.grid_size,
            "roots_excluded": rep.roots_excluded,
            "claims": claims,
        }
        if not rep.roots_excluded:
            roots = quad_roots(quad_coeffs(d, 0.5))
            block["roots_at_y_half_in_unit_ray"] = [
                _fmt(r) for r in roots if r >= 1.0
            ]
        if args["rigorous"]:
            certified = certify_signs_rigorous(d)
            if any(claims[name]["asserted"] and not ok for name, ok in certified.items()):
                claim_failed = True
            block["certified"] = certified
        blocks.append(block)
    decay = []
    for d in range(max(lo, 5), hi + 1):
        band_lo = math.sqrt(d - 2) / 2.0
        band_hi = math.sqrt(d - 1) / 2.0
        holds_all = True
        min_gap = math.inf
        for t in np.linspace(band_lo, band_hi, 100):
            lhs, rhs, holds = decay_inequality_check(d, float(t))
            holds_all &= holds
            min_gap = min(min_gap, lhs - rhs)
        decay.append({"d": d, "points": 100, "holds_all": bool(holds_all),
                      "min_gap": _fmt(min_gap)})
    print(json.dumps({"certificates": blocks, "decay": decay}, indent=2))
    return EXIT_CLAIM_FAILED if claim_failed else EXIT_OK


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidInputError(f"expected lo:hi:n, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1 or hi < lo:
        raise InvalidInputError(f"bad grid {text!r}")
    return np.linspace(lo, hi, n)


def cmd_scan(args: dict) -> int:
    _require(args, "d", "t_range")
    d = args["d"]
    ts = _parse_grid(args["t_range"])
    mode = args["mode"]
    diag = np.full(d, 1.0 / math.sqrt(d))
    if mode == "maximize" and ts[0] <= 0.5:
        raise InvalidInputError("maximize mode needs t > 0.5 everywhere in the grid")
    direction = None
    if mode == "classify" and args.get("a") is not None:
        direction = [float(x) for x in str(args["a"]).split(",")]
        if len(direction) != d:
            raise InvalidInputError("--a dimension mismatch")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["d", "t", "V_closed", "V_best", "angle", "count_below", "kind"])

    def fmt(x):
        return format(float(x), ".12g")

    for t in map(float, ts):
        closed = closed_form_max(d, t)
        if mode == "maximize":
            rep = maximize_section_volume(d, t, starts=args["starts"], seed=args["seed"])
            cut = classify_cut(make_section_spec(rep.best_direction, t))
            row = [closed, rep.best_volume, rep.angle_to_diagonal]
        else:
            if direction is None:
                spec = diagonal_section_spec(d, t)
                angle = 0.0
            else:
                spec = make_section_spec(direction, t)
                angle = math.acos(float(np.clip(spec.direction @ diag, -1.0, 1.0)))
            cut = classify_cut(spec)
            row = [closed, section_volume_vertex_sum(spec).value, angle]
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
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        args = _merge(ns)
        return _COMMANDS[args["command"]](args)
    except InvalidInputError as exc:
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
