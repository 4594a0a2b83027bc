"""Command-line driver: configs in, CSV/JSON artifacts and gnuplot scripts out.

Layout rules the artifacts obey:
  - every CSV has a header row and a trailing comment block carrying the
    config hash and the package version, so outputs are traceable to the
    exact invocation;
  - identical effective configs produce byte-identical files (fixed float
    formatting, sorted JSON keys, seeded randomness only);
  - JSON is strict: a non-finite float is written as null;
  - plots are delegated to generated gnuplot scripts, never rendered here.

Exit codes: 0 success, 2 configuration problem, 3 numeric budget failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import classify as classify_mod
from . import rates as rates_mod
from .fourier import indicator_ft, stationary_phase_ft
from .geometry import as_vec, parse_body
from .hilbert_sim import average_norm_sq, induced_measure, parse_action
from .quadrature import QuadratureBudgetError
from .spectral import parse_measure

__all__ = ["main", "parse_config_text", "emit_config", "config_hash"]


class ConfigError(ValueError):
    """Raised for malformed configs; message already lists every problem."""


# -- config files ------------------------------------------------------------

_KNOWN_KEYS = {
    "body", "measure", "action", "phi", "theorem", "t", "alpha", "grid",
    "direction", "p-lo", "p-hi", "points", "sector", "degree", "tol",
    "r-mode", "dim", "z-lo", "z-hi", "out", "plot", "no-sector",
}


def parse_config_text(text: str) -> dict:
    """Line-oriented `key = value` parser; collects all errors before failing."""
    cfg: dict[str, str] = {}
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            errors.append(f"line {lineno}: empty key")
            continue
        if key not in _KNOWN_KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in cfg:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        cfg[key] = value
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def emit_config(cfg: dict) -> str:
    """Canonical text form: sorted keys, one `key = value` per line."""
    lines = [f"{k} = {cfg[k]}" for k in sorted(cfg)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(emit_config(cfg).encode("utf-8")).hexdigest()


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt_row(row) -> str:
    return ",".join(_fmt(v) for v in row)


def _csv_text(header: list[str], lines: list[str], cfg: dict, extra_comments=()) -> str:
    """CSV text from already formatted data lines, with the trailing comment block."""
    lines = [",".join(header)] + lines
    for c in extra_comments:
        lines.append(f"# {c}")
    lines.append(f"# config-hash = {config_hash(cfg)}")
    lines.append(f"# version = {__version__}")
    return "\n".join(lines) + "\n"


def _finite_or_null(v):
    """Copy of a report with every non-finite float as None: strict JSON has
    no Infinity or NaN, and the reports state such values in words."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return v


def _json_text(report: dict, cfg: dict) -> str:
    report = _finite_or_null(report)
    report["config_hash"] = config_hash(cfg)
    report["version"] = __version__
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


# -- option merging ----------------------------------------------------------


def _merged(args, spec: dict[str, object]) -> dict:
    """Effective options: hard default < config file < command line."""
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc.strerror}") from None
    out = {}
    for key, default in spec.items():
        attr = key.replace("-", "_")
        cli_val = getattr(args, attr, None)
        if cli_val is not None and cli_val is not False:
            out[key] = str(cli_val)
        elif key in file_cfg:
            out[key] = file_cfg[key]
        elif default is not None:
            out[key] = str(default)
    for path in (out.get("out", "-"), out.get("plot", "-")):  # checked before any work
        target = path if os.path.exists(path) else os.path.dirname(path) or "."
        if path != "-" and (os.path.isdir(path) or not os.access(target, os.W_OK)):
            raise ConfigError(f"cannot write {path!r}: a directory, or not writable")
    return out


def _vec(cfg: dict, key: str) -> np.ndarray:
    try:
        return as_vec([float(v) for v in cfg[key].split(",")])
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated number list, got {cfg[key]!r}") from None


def _num(cfg: dict, key: str, kind=float):
    try:
        return kind(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from None


def _tol(cfg: dict) -> float:
    tol = _num(cfg, "tol")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be a finite number > 0, got {cfg['tol']!r}")
    return tol


# -- subcommands -------------------------------------------------------------

# the most points a fourier ray, a p-ladder or a region-map grid may have,
# checked before any work: the largest accepted ray or map peaks below 1 GB
# resident
_MAX_ROWS = 1_000_000


def _points(cfg: dict) -> int:
    """--points, checked to be 1 to _MAX_ROWS before anything is allocated."""
    points = _num(cfg, "points", int)
    if points < 1:
        raise ConfigError(f"points must be at least 1, got {points}")
    if points > _MAX_ROWS:
        raise ConfigError(f"points must be at most {_MAX_ROWS}, got {points}")
    return points


def _cmd_fourier(args) -> int:
    cfg = _merged(args, {
        "body": "ball:1", "dim": 2, "direction": None, "z-lo": 1.0,
        "z-hi": 100.0, "points": 400, "out": "-", "plot": None,
    })
    dim = _num(cfg, "dim", int)
    body = parse_body(cfg["body"], dim=dim)
    direction = _vec(cfg, "direction") if "direction" in cfg else np.ones(dim)
    if np.linalg.norm(direction) == 0.0:
        raise ConfigError("direction must be nonzero")
    direction = direction / np.linalg.norm(direction)
    z = np.linspace(_num(cfg, "z-lo"), _num(cfg, "z-hi"), _points(cfg))
    xs = z[:, None] * direction[None, :]
    vals = indicator_ft(body, xs)
    try:
        env = stationary_phase_ft(body, xs).envelope
    except ValueError:  # the cube has no two-point expansion
        env = np.full(len(xs), math.nan)
    # |F| through hypot, as abs() of one complex takes it (np.abs of a complex
    # array may round differently)
    table = np.column_stack([xs, vals.real, vals.imag, np.hypot(vals.real, vals.imag), env])
    header = [f"x_{k + 1}" for k in range(dim)] + ["re", "im", "abs", "herz_envelope"]
    _write(cfg["out"], _csv_text(header, [_fmt_row(row) for row in table.tolist()], cfg))
    if "plot" in cfg:
        norm_expr = "sqrt(" + "+".join(f"${k + 1}*${k + 1}" for k in range(dim)) + ")"
        script = "\n".join([
            "set datafile separator ','",
            "set logscale y",
            "set xlabel '|x|'",
            "set ylabel '|F|'",
            f"plot '{cfg['out']}' using ({norm_expr}):{dim + 3} with lines title 'abs', \\",
            f"     '{cfg['out']}' using ({norm_expr}):{dim + 4} with lines title 'envelope'",
            "",
        ])
        _write(cfg["plot"], script)
    return 0


def _cmd_rates(args) -> int:
    cfg = _merged(args, {
        "body": "ball:1", "measure": "radial:2,1,1", "dim": 2,
        "direction": None, "p-lo": 10.0, "p-hi": 1000.0, "points": 14,
        "tol": 1e-5, "out": "-",
    })
    dim = _num(cfg, "dim", int)
    body = parse_body(cfg["body"], dim=dim)
    measure = parse_measure(cfg["measure"], dim=dim)
    direction = _vec(cfg, "direction") if "direction" in cfg else np.ones(dim)
    p = np.geomspace(_num(cfg, "p-lo"), _num(cfg, "p-hi"), _points(cfg))
    grid = rates_mod.ray_grid(direction, p)
    tol = _tol(cfg)
    vals = np.array([rates_mod.decay_integral(body, measure, t, tol) for t in grid])
    rows = []
    for k, (pk, t) in enumerate(zip(p, grid)):
        # running rate slope from the first k+1 points; nan until 8 accumulate
        theta = math.nan
        if k + 1 >= 8 and not np.any(vals[: k + 1] <= 0):
            theta = float(rates_mod.rate_lstsq(p[: k + 1], vals[: k + 1])[0][0])
        rows.append(_fmt_row([pk] + list(t) + [vals[k], theta]))
    header = ["p"] + [f"t_{k + 1}" for k in range(dim)] + ["I", "theta_fit_running"]
    _write(cfg["out"], _csv_text(header, rows, cfg))
    return 0


def _cmd_simulate(args) -> int:
    cfg = _merged(args, {
        "action": None, "body": "ball:1", "dim": 2, "t": "10,10", "out": "-",
    })
    if "action" not in cfg:
        raise ConfigError("simulate needs an action spec (try action = demo20)")
    dim = _num(cfg, "dim", int)
    body = parse_body(cfg["body"], dim=dim)
    action = parse_action(cfg["action"], dim=dim)
    measure = induced_measure(action)
    rows = []
    for chunk in cfg["t"].split("|"):
        t = as_vec([float(v) for v in chunk.split(",")], dim=dim)
        norm_sq = average_norm_sq(action, body, t)
        atomic = rates_mod.decay_integral_atomic(body, measure, t)
        rows.append(_fmt_row(list(t) + [norm_sq, atomic, abs(norm_sq - atomic)]))
    header = [f"t_{k + 1}" for k in range(dim)] + ["norm_sq", "i_k_atomic", "abs_diff"]
    _write(cfg["out"], _csv_text(header, rows, cfg))
    return 0


def _theorem_defaults(cfg: dict) -> tuple:
    dim = _num(cfg, "dim", int)
    body = parse_body(cfg["body"], dim=dim)
    measure = parse_measure(cfg["measure"], dim=dim)
    p = np.geomspace(_num(cfg, "p-lo"), _num(cfg, "p-hi"), _points(cfg))
    return dim, body, measure, p


def _cmd_verify(args) -> int:
    cfg = _merged(args, {
        "theorem": None, "body": "ball:1", "measure": "radial:2,1,1",
        "phi": None, "dim": 2, "direction": None, "p-lo": 10.0,
        "p-hi": 1000.0, "points": 14, "sector": 2.0, "degree": None,
        "tol": 1e-4, "out": "-", "no-sector": None,
    })
    if "theorem" not in cfg:
        raise ConfigError("verify needs a theorem number (1, 2 or 3)")
    which = _num(cfg, "theorem", int)
    if which == 2 and _points(cfg) < 2:
        raise ConfigError("theorem 2 needs points >= 2: its boundedness trend is fitted "
                          "over distinct |t|, got points = 1")
    dim, body, measure, p = _theorem_defaults(cfg)
    tol = _tol(cfg)
    direction = _vec(cfg, "direction") if "direction" in cfg else np.ones(dim)

    if which == 1:
        if "phi" not in cfg:
            raise ConfigError("theorem 1 needs a phi spec (power:p or mono:a1,a2,...)")
        phi = rates_mod.parse_phi(cfg["phi"])
        grid = rates_mod.ray_grid(direction, p)
        report = rates_mod.check_rate_equivalence(body, measure, phi, grid, rel_tol=tol)
        sup_ratios = {
            "decay_over_phi": max(report["ratio_decay"]),
            "mass_over_phi": max(report["ratio_mass"]),
        }
        try:
            fit = rates_mod.fit_rate(report["p"], report["decay_integral"]).__dict__
        except ValueError:
            fit = None
    elif which == 2:
        bound = _num(cfg, "sector")
        explore = cfg.get("no-sector") == "True"
        grid_bound = 100.0 if explore else bound
        grid = rates_mod.sector_grid(grid_bound, dim, p, n_dir=5)
        report = rates_mod.check_critical_rate(
            body, measure, bound, grid, rel_tol=tol, enforce_sector=not explore)
        sup_ratios = {"scaled_decay": max(report["scaled_ratios"])}
        fit = None
    elif which == 3:
        degree = _num(cfg, "degree") if "degree" in cfg else -(dim + 2.0)
        report = rates_mod.check_supercritical_rate(body, measure, degree, direction, p, rel_tol=tol)
        if report["sigma_zero"]:
            sup_ratios = {"scaled_decay": 0.0}
        else:
            scaled = np.asarray(report["p"]) ** (dim + 1) * np.asarray(report["decay_integral"])
            sup_ratios = {"scaled_decay": float(np.max(scaled))}
        fit = report["fit"]
    else:
        raise ConfigError(f"theorem must be 1, 2 or 3, got {which}")

    out = {
        "theorem": which,
        "verdict": report["verdict"],
        "sup_ratios": sup_ratios,
        "fit": fit,
        "evidence": report,
    }
    _write(cfg["out"], _json_text(out, cfg))
    return 0


def _cmd_classify(args) -> int:
    cfg = _merged(args, {"alpha": None, "r-mode": "successive", "out": "-"})
    if "alpha" not in cfg:
        raise ConfigError("classify needs an alpha vector (e.g. --alpha 2,1)")
    alpha = _vec(cfg, "alpha")
    params = classify_mod.PowerParams(tuple(alpha), r_mode=cfg["r-mode"])
    _write(cfg["out"], _json_text(classify_mod.params_report(params), cfg))
    return 0


def _cmd_regionmap(args) -> int:
    cfg = _merged(args, {
        "grid": "0:4:201", "r-mode": "successive", "out": "-", "plot": None,
    })
    parts = cfg["grid"].split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:resolution, got {cfg['grid']!r}")
    try:
        lo, hi, res = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"grid must be lo:hi:resolution with numbers, got {cfg['grid']!r}") from None
    if lo != 0.0:
        raise ConfigError("grid must start at 0; the map covers the half-open square (0, hi]^2")
    if res * res > _MAX_ROWS:
        raise ConfigError(f"grid resolution must be at most {math.isqrt(_MAX_ROWS)}, got {res}")
    rmap = classify_mod.region_map(alpha_max=hi, resolution=res, r_mode=cfg["r-mode"])
    # about 800 distinct alphas in a 201-grid: format each once
    text = {a: _fmt(a) for a in {a for row in rmap.rows for a in row[:2]}}
    rows = [f"{text[a1]},{text[a2]},{sf},{sl},{cf},{cl},{v}" for a1, a2, sf, sl, cf, cl, v in rmap.rows]
    header = ["alpha1", "alpha2", "square_family", "square_log",
              "circle_family", "circle_log", "verdict"]
    comments = [
        f"square-labels = {rmap.square_label_count}",
        f"circle-labels = {rmap.circle_label_count}",
        f"square-components = {rmap.square_components}",
        f"circle-components = {rmap.circle_components}",
    ]
    _write(cfg["out"], _csv_text(header, rows, cfg, extra_comments=comments))
    if "plot" in cfg:
        sq_expr = "(strcol(3) eq 'SquareSubcritical' ? 0 : strcol(3) eq 'SquareCritical' ? 1 : 2) + 0.2*$4"
        ci_expr = "(strcol(5) eq 'CircleSubcritical' ? 0 : strcol(5) eq 'CircleCritical' ? 1 : 2) + 0.2*$6"
        script = "\n".join([
            "set datafile separator ','",
            "set xlabel 'alpha_1'",
            "set ylabel 'alpha_2'",
            "set palette defined (0 'web-blue', 1 'goldenrod', 2 'web-green')",
            "set terminal pngcairo size 1200,600",
            "set output 'regionmap.png'",
            "set multiplot layout 1,2",
            "set title 'box averages'",
            f"plot '{cfg['out']}' using 1:2:({sq_expr}) with points pt 5 ps 0.4 palette notitle",
            "set title 'ball averages'",
            f"plot '{cfg['out']}' using 1:2:({ci_expr}) with points pt 5 ps 0.4 palette notitle",
            "unset multiplot",
            "",
        ])
        _write(cfg["plot"], script)
    return 0


_COMMANDS = {
    "fourier": _cmd_fourier,
    "rates": _cmd_rates,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "regionmap": _cmd_regionmap,
}


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ergrates",
        description="decay rates of ergodic averages over dilated convex bodies",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file; command line wins")
        p.add_argument("--out", help="output path, '-' for stdout")
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        return p

    add("fourier", "indicator transform along a ray", {
        "--body": {}, "--dim": {"type": int}, "--direction": {},
        "--z-lo": {"type": float}, "--z-hi": {"type": float},
        "--points": {"type": int}, "--plot": {},
    })
    add("rates", "decay integral ladder along a ray", {
        "--body": {}, "--measure": {}, "--dim": {"type": int},
        "--direction": {}, "--p-lo": {"type": float}, "--p-hi": {"type": float},
        "--points": {"type": int}, "--tol": {"type": float},
    })
    add("simulate", "unitary-action average vs spectral sum", {
        "--action": {}, "--body": {}, "--dim": {"type": int},
        "--t": {"help": "dilation vector; '|'-separated list for several rows"},
    })
    add("verify", "theorem checkers, JSON verdicts", {
        "--theorem": {"type": int}, "--body": {}, "--measure": {}, "--phi": {},
        "--dim": {"type": int}, "--direction": {}, "--p-lo": {"type": float},
        "--p-hi": {"type": float}, "--points": {"type": int},
        "--sector": {"type": float}, "--degree": {"type": float},
        "--tol": {"type": float},
        "--no-sector": {"action": "store_true",
                        "help": "exploratory sweep outside the sector; no claim made"},
    })
    add("classify", "single exponent-vector regime report", {
        "--alpha": {}, "--r-mode": {"choices": ["successive", "at-max"]},
    })
    add("regionmap", "rasterized d=2 regime maps", {
        "--grid": {"help": "lo:hi:resolution, lo must be 0"},
        "--r-mode": {"choices": ["successive", "at-max"]}, "--plot": {},
    })
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"ergrates: config error: {exc}", file=sys.stderr)
        return 2
    except QuadratureBudgetError as exc:
        print(f"ergrates: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
