"""Command-line driver: configs in, CSV/JSON artifacts and gnuplot scripts out.

Layout rules the artifacts obey:
  - every CSV has a header row and a trailing comment block carrying the
    config hash and the package version, so outputs are traceable to the
    exact invocation;
  - identical effective configs produce byte-identical files (fixed float
    formatting, sorted JSON keys, seeded randomness only);
  - JSON is strict: a non-finite float is written as null;
  - plots are delegated to generated gnuplot scripts, never rendered here.

Exit codes: 0 success, 2 configuration problem, 3 numeric budget or
floating-point failure.
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
from .spectral import is_zero_measure, parse_measure

__all__ = ["main", "parse_config_text", "emit_config", "config_hash"]


class ConfigError(ValueError):
    """Raised for malformed configs; message already lists every problem."""


# -- config files ------------------------------------------------------------

# each number option's type: _merged checks a flag as a config file's value is
_NUMBERS = {**dict.fromkeys(("dim", "points", "theorem"), int),
            **dict.fromkeys(("z-lo", "z-hi", "p-lo", "p-hi", "tol", "sector", "degree"), float)}
# argparse settings of each option --key that is more than a plain string;
# which command takes which option, and its default, is set in _COMMANDS
_ARGPARSE = {
    "r-mode": {"choices": ["successive", "at-max"]},
    "no-sector": {"action": "store_true",
                  "help": "exploratory sweep outside the sector; no claim made"},
    "t": {"help": "dilation vector; '|'-separated list for several rows"},
    "grid": {"help": "lo:hi:resolution, lo must be 0"},
    "out": {"help": "output path, '-' for stdout"},
    "config": {"help": "key = value config file; command line wins"},
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
        # the spelling a flag writes into the config hash, and no other
        if _ARGPARSE.get(key, {}).get("action") == "store_true" and value not in ("True", "False"):
            errors.append(f"line {lineno}: {key} must be True or False, got {value!r}")
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


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _float_lines(table: np.ndarray) -> str:
    """One line per row of a 2-D float table, each value as f"{v:.12g}" writes it."""
    rows, cols = table.shape
    return ((",".join(["%.12g"] * cols) + "\n") * rows) % tuple(table.ravel().tolist())


def _csv_text(header: list[str], body: str, cfg: dict, extra_comments=()) -> str:
    """CSV text: the header, the formatted body and the trailing comment block."""
    comments = [*extra_comments, f"config-hash = {config_hash(cfg)}", f"version = {__version__}"]
    return "".join([",".join(header), "\n", body, *(f"# {c}\n" for c in comments)])


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


def _merged(args, options: dict[str, object]) -> dict:
    """Effective options: hard default < config file < command line."""
    file_cfg = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc.strerror}") from None
    out = {}
    for key, default in options.items():
        attr = key.replace("-", "_")
        cli_val = getattr(args, attr, None)
        if cli_val is not None and cli_val is not False:
            out[key] = str(_num({key: cli_val}, key, _NUMBERS[key]) if key in _NUMBERS else cli_val)
        elif key in file_cfg:
            out[key] = file_cfg[key]
        elif default is not None:
            out[key] = str(default)
    for path in (out.get("out", "-"), out.get("plot", "-")):  # checked before any work
        target = path if os.path.exists(path) else os.path.dirname(path) or "."
        if path != "-" and (os.path.isdir(path) or not os.access(target, os.W_OK)):
            raise ConfigError(f"cannot write {path!r}: a directory, or not writable")
    return out


def _vec(key: str, text: str) -> np.ndarray:
    try:
        return as_vec([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated number list, got {text!r}") from None


def _num(cfg: dict, key: str, kind=float):
    try:
        return kind(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from None


# -- subcommands -------------------------------------------------------------

# the most points a fourier ray, a p-ladder or a region-map grid may have,
# checked before any work: the largest accepted map (--grid 0:4:1000) peaks at
# about 400 MB resident, the largest d = 2 ray (--points 1000000) at about
# 540 MB (fresh interpreter, Python 3.11, numpy 2.4)
_MAX_ROWS = 1_000_000


def _points(cfg: dict) -> int:
    """--points, checked to be 1 to _MAX_ROWS before anything is allocated."""
    points = _num(cfg, "points", int)
    if points < 1:
        raise ConfigError(f"points must be at least 1, got {points}")
    if points > _MAX_ROWS:
        raise ConfigError(f"points must be at most {_MAX_ROWS}, got {points}")
    return points


def _cmd_fourier(cfg: dict) -> int:
    dim = _num(cfg, "dim", int)
    body = parse_body(cfg["body"], dim=dim)
    direction = _vec("direction", cfg["direction"]) if "direction" in cfg else np.ones(dim)
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
    _write(cfg["out"], _csv_text(header, _float_lines(table), cfg))
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


def _ladder(cfg: dict) -> tuple:
    """dim, body, measure, p-ladder, direction and tol, as rates and verify read them."""
    dim = _num(cfg, "dim", int)
    body = parse_body(cfg["body"], dim=dim)
    measure = parse_measure(cfg["measure"], dim=dim)
    direction = _vec("direction", cfg["direction"]) if "direction" in cfg else np.ones(dim)
    p = np.geomspace(_num(cfg, "p-lo"), _num(cfg, "p-hi"), _points(cfg))
    tol = _num(cfg, "tol")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be a finite number > 0, got {cfg['tol']!r}")
    return dim, body, measure, p, direction, tol


def _cmd_rates(cfg: dict) -> int:
    dim, body, measure, p, direction, tol = _ladder(cfg)
    grid = rates_mod.ray_grid(direction, p)
    vals = rates_mod.decay_integral(body, measure, grid, tol)
    # running rate slope from the first k+1 points; nan until 8 accumulate
    theta = np.full(p.size, math.nan)
    for k in range(7, p.size):
        if not np.any(vals[: k + 1] <= 0):
            theta[k] = rates_mod.rate_lstsq(p[: k + 1], vals[: k + 1])[0][0]
    header = ["p"] + [f"t_{k + 1}" for k in range(dim)] + ["I", "theta_fit_running"]
    _write(cfg["out"], _csv_text(header, _float_lines(np.column_stack([p, grid, vals, theta])), cfg))
    return 0


def _cmd_simulate(cfg: dict) -> int:
    if "action" not in cfg:
        raise ConfigError("simulate needs an action spec (try action = demo20)")
    dim = _num(cfg, "dim", int)
    body = parse_body(cfg["body"], dim=dim)
    ts = np.array([as_vec(_vec("t", chunk), dim=dim) for chunk in cfg["t"].split("|")])
    action = parse_action(cfg["action"], dim=dim)
    measure = induced_measure(action)
    norm_sq = np.array([average_norm_sq(action, body, t) for t in ts])
    atomic = rates_mod.decay_integral(body, measure, ts)
    rows = np.column_stack([ts, norm_sq, atomic, np.abs(norm_sq - atomic)])
    header = [f"t_{k + 1}" for k in range(dim)] + ["norm_sq", "i_k_atomic", "abs_diff"]
    _write(cfg["out"], _csv_text(header, _float_lines(rows), cfg))
    return 0


def _cmd_verify(cfg: dict) -> int:
    if "theorem" not in cfg:
        raise ConfigError("verify needs a theorem number (1, 2 or 3)")
    which = _num(cfg, "theorem", int)
    if which == 2 and _points(cfg) < 2:
        raise ConfigError("theorem 2 needs points >= 2: its boundedness trend is fitted "
                          "over distinct |t|, got points = 1")
    dim, body, measure, p, direction, tol = _ladder(cfg)
    if which == 3 and p.size < 8 and not is_zero_measure(measure):
        raise ConfigError(f"theorem 3 needs points >= 8 for its rate fit, got points = {p.size}")

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
        grid = rates_mod.sector_grid(grid_bound, dim, p)
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


def _cmd_classify(cfg: dict) -> int:
    if "alpha" not in cfg:
        raise ConfigError("classify needs an alpha vector (e.g. --alpha 2,1)")
    alpha = _vec("alpha", cfg["alpha"])
    params = classify_mod.PowerParams(tuple(alpha), r_mode=cfg["r-mode"])
    _write(cfg["out"], _json_text(classify_mod.params_report(params), cfg))
    return 0


def _cmd_regionmap(cfg: dict) -> int:
    parts = cfg["grid"].split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:resolution, got {cfg['grid']!r}")
    try:
        lo, hi, res = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"grid must be lo:hi:resolution with numbers, got {cfg['grid']!r}") from None
    if lo != 0.0:
        raise ConfigError("grid must start at 0; the map covers the half-open square (0, hi]^2")
    if not (math.isfinite(hi) and hi > 0):
        raise ConfigError(f"grid hi must be a finite number > 0, got {parts[1]!r}")
    if res * res > _MAX_ROWS:
        raise ConfigError(f"grid resolution must be at most {math.isqrt(_MAX_ROWS)}, got {res}")
    rmap = classify_mod.region_map(alpha_max=hi, resolution=res, r_mode=cfg["r-mode"])
    # a 201-grid holds about 700 distinct alphas and a dozen distinct label
    # tails: format each once, with its separator, and join the cells by index
    alphas, alpha = np.unique(rmap.points.ravel(), return_inverse=True)
    alpha_text = np.array(["%.12g," % a for a in alphas.tolist()], dtype=object)
    square, circle, verdict = rmap.codes.T
    # every code is below 16, so one integer keys the three
    _, first, tail = np.unique(256 * square + 16 * circle + verdict,
                               return_index=True, return_inverse=True)
    tail_text = np.array([",".join(map(str, labels)) + "\n"
                          for labels in zip(*rmap.decode(rmap.codes[first]))], dtype=object)
    cells = np.column_stack([alpha_text[alpha].reshape(-1, 2), tail_text[tail]])
    body = "".join(cells.ravel().tolist())
    header = ["alpha1", "alpha2", "square_family", "square_log",
              "circle_family", "circle_log", "verdict"]
    comments = [
        f"square-labels = {rmap.square_label_count}",
        f"circle-labels = {rmap.circle_label_count}",
        f"square-components = {rmap.square_components}",
        f"circle-components = {rmap.circle_components}",
    ]
    _write(cfg["out"], _csv_text(header, body, cfg, extra_comments=comments))
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


# name -> (help, runner, {option: default or None}), the options in --help order
_COMMANDS = {
    "fourier": ("indicator transform along a ray", _cmd_fourier, {
        "out": "-", "body": "ball:1", "dim": 2, "direction": None, "z-lo": 1.0,
        "z-hi": 100.0, "points": 400, "plot": None,
    }),
    "rates": ("decay integral ladder along a ray", _cmd_rates, {
        "out": "-", "body": "ball:1", "measure": "radial:2,1,1", "dim": 2,
        "direction": None, "p-lo": 10.0, "p-hi": 1000.0, "points": 14, "tol": 1e-5,
    }),
    "simulate": ("unitary-action average vs spectral sum", _cmd_simulate, {
        "out": "-", "action": None, "body": "ball:1", "dim": 2, "t": "10,10",
    }),
    "verify": ("theorem checkers, JSON verdicts", _cmd_verify, {
        "out": "-", "theorem": None, "body": "ball:1", "measure": "radial:2,1,1",
        "phi": None, "dim": 2, "direction": None, "p-lo": 10.0, "p-hi": 1000.0,
        "points": 14, "sector": 2.0, "degree": None, "tol": 1e-4, "no-sector": None,
    }),
    "classify": ("single exponent-vector regime report", _cmd_classify, {
        "out": "-", "alpha": None, "r-mode": "successive",
    }),
    "regionmap": ("rasterized d=2 regime maps", _cmd_regionmap, {
        "out": "-", "grid": "0:4:201", "r-mode": "successive", "plot": None,
    }),
}

# a config file may hold the keys of every command; each reads its own
_KNOWN_KEYS = frozenset().union(*(options for _, _, options in _COMMANDS.values()))


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ergrates",
        description="decay rates of ergodic averages over dilated convex bodies",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in ("config", *options):
            p.add_argument(f"--{key}", **_ARGPARSE.get(key, {}))
    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # a floating-point fault becomes one line and exit 3, not a warning
        # and a silent inf or nan; the package's local errstate blocks still win
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            _, run, options = _COMMANDS[args.command]
            return run(_merged(args, options))
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"ergrates: config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureBudgetError, FloatingPointError) as exc:
        print(f"ergrates: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
