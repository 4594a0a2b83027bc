"""The three workloads: seeded op lists, how each op runs, and how it is checked.

An op is a plain dict (JSON-able), generated from the seed alone; ergrates
receives only the generated inputs.  `build_ops` never imports ergrates, so
the same seed always yields the same op list whatever the program does.

Workloads (see BENCHMARK.json for the one-line reasons):
  ladder    library calls to rates.decay_integral(body, m, t, rel_tol=1e-5),
            one op per rung of a sqrt(2)-step p-ladder 10..1000, each along
            its own seeded ray, for eight (body, measure) cases plus a short
            d = 3 ladder;
  verdicts  in-process `cli.main` verify/rates jobs writing JSON/CSV;
  tables    regionmap, classify, simulate and fourier jobs plus
            spectral.mass / singular_integral calls: no continuous I(t).

run.py executes each pass in its own seeded order (worker.pass_order).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

import oracles

WORKLOADS = ("ladder", "verdicts", "tables")

LADDER_TOL = 1e-5
# the "same route, tighter" reference: 10x, not 100x, because at 100x the
# references cost ~2.5x the timed pass and exhaust the angular refinement
# budget (QuadratureBudgetError) at t ~ 1000 on many rays.  An op whose
# reference exhausts that budget even at 10x is reported as unchecked.
TIGHT_FACTOR = 10.0
# rel_tol stops the angular refinement once two successive levels agree to
# it, which bounds the error only up to the convergence rate; at the
# critical exponent gamma = 3 the seed code lands up to ~2x rel_tol from the
# tighter route.  err_over_tol reports that as measured, and an op fails
# only when it is off by an order of magnitude.
QUADRATURE_MISS = 10.0
# decay_integral_levelform is a quadrature cross-check; it agrees with the
# main route to ~1e-3 at gamma = 0.5 and costs O(max t), so it is the
# reference only at p <= 30 and only to this tolerance
LEVELFORM_MAX_P = 30.0
LEVELFORM_TOL = 2e-3
# closed-form masses and transforms: the package's quadratures and CSV
# formatting (12 significant digits) sit far below these
MASS_TOL = 1e-10
FOURIER_TOL = 1e-9
IDENTITY_TOL = 1e-10
CLASSIFY_TOL = 1e-12

# tables: op counts chosen so that, among the ~100 ops, the median op is a
# classify job and the 90th percentile falls among the fourier rays (the
# ellipsoid ones), not on the cliff between them and the ~1 s ops above
# (regionmap, the 3-D masses and the 3-D singular integral)
TABLE_CLASSIFY_OPS = 72
TABLE_FOURIER_RAYS = 2

CONSISTENT = "consistent with equivalence"
EXCLUDED = "rate excluded (decay stuck at the critical exponent)"

_LADDER_CASES = (
    # (case, body, dim, measure)
    ("ball-radial-0.5", "ball:1", 2, "radial:0.5,1,1"),
    ("ball-radial-1", "ball:1", 2, "radial:1,1,1"),
    ("ball-radial-2", "ball:1", 2, "radial:2,1,1"),
    ("ball-radial-2.5", "ball:1", 2, "radial:2.5,1,1"),
    ("ball-radial-3", "ball:1", 2, "radial:3,1,1"),
    ("ball-aniso", "ball:1", 2, "aniso:1.5,0.7;1,1;1"),
    ("ellipsoid-radial-2.5", "ellipsoid:2,1", 2, "radial:2.5,1,1"),
    ("cube-radial-2", "cube", 2, "radial:2,1,1"),
)
# short d = 3 ladder: the first two rungs
_LADDER_D3 = (("ball3-radial-2", "ball:1", 3, "radial:2,1,1"),)
_LADDER_D3_RUNGS = 2


def p_ladder(p_lo: float = 10.0, p_hi: float = 1000.0) -> np.ndarray:
    """Geometric ladder with step close to sqrt(2) (14 rungs on 10..1000)."""
    n = max(2, round(math.log(p_hi / p_lo) / math.log(math.sqrt(2.0))) + 1)
    return np.geomspace(p_lo, p_hi, n)


def _ray(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Positive direction with min coordinate 1 and coordinate ratio <= 2."""
    s = rng.uniform(1.0, 2.0, size=dim)
    return s / s.min()


def _fmt(v: float, digits: int = 6) -> str:
    return f"{v:.{digits}f}".rstrip("0").rstrip(".")


def _vec(v) -> str:
    return ",".join(_fmt(x) for x in v)


def _aniso_spec(alphas, halfwidths, total: float = 1.0) -> str:
    return f"aniso:{_vec(alphas)};{_vec(halfwidths)};{_fmt(total)}"


# -- op lists --------------------------------------------------------------------


def _stratified_rays(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n rays with coordinate ratios spread evenly over [1, 2), in random order.

    How many angular levels an op needs depends on its ray; one ratio per
    stratum, and the larger coordinate on each side equally often, keep
    the cost of a case steadier from seed to seed than independent draws.
    """
    ratios = 1.0 + (rng.permutation(n) + rng.uniform(size=n)) / n
    rays = np.ones((n, dim))
    if dim == 2:
        side = rng.permutation(np.arange(n) % 2)
        rays[np.arange(n), side] = ratios
    else:
        rays[:, 1:] = 1.0 + rng.uniform(size=(n, dim - 1)) * (ratios[:, None] - 1.0)
        rays[:, -1] = ratios
        rays = rng.permuted(rays, axis=1)
    return rays


def _ladder_ops(rng: np.random.Generator) -> list[dict]:
    ops = []
    p = p_ladder()
    cases = [(c, p) for c in _LADDER_CASES] + [(c, p[:_LADDER_D3_RUNGS]) for c in _LADDER_D3]
    for (case, body, dim, measure), rungs in cases:
        levelform = body.startswith("ball:") and measure.startswith("radial:")
        for pk, ray in zip(rungs, _stratified_rays(rng, len(rungs), dim)):
            ops.append({
                "kind": "decay", "label": f"{case}@p={pk:.4g}", "body": body,
                "dim": dim, "measure": measure, "t": (pk * ray).tolist(),
                "rel_tol": LADDER_TOL,
                "ref": "levelform" if levelform and pk <= LEVELFORM_MAX_P else "tight",
            })
    return ops


def _verify(theorem: int, measure: str, *extra: str) -> list[str]:
    return ["verify", "--theorem", str(theorem), "--measure", measure, *extra]


def _atomic_spec(rng: np.random.Generator, n: int) -> str:
    pts = rng.uniform(0.3, 2.5, size=(n, 2))
    w = rng.uniform(0.5, 2.0, size=n)
    atoms = ",".join(f"({_fmt(a, 4)},{_fmt(b, 4)};{_fmt(c, 4)})" for (a, b), c in zip(pts, w))
    return f"atomic:[{atoms}]"


def _verdict_ops(rng: np.random.Generator) -> list[dict]:
    ops = []

    def job(label, argv, ext, **expect):
        ops.append({"kind": "cli", "label": label, "argv": argv, "ext": ext, "expect": expect})

    d1 = _ray(rng, 2)
    job("verify1-radial", _verify(1, "radial:2,1,1", "--phi", "power:2",
                                  "--direction", _vec(d1), "--points", "8"),
        "json", verdict=CONSISTENT,
        masses={"family": "radial", "total": 1.0, "gamma": 2.0, "radius": 1.0})
    al = np.round(rng.uniform(0.6, 1.4, size=2), 3)
    d2 = _ray(rng, 2)
    job("verify1-aniso", _verify(1, _aniso_spec(al, (1, 1)), "--phi", f"mono:{_vec(al)}",
                                 "--direction", _vec(d2), "--points", "8"),
        "json", verdict=CONSISTENT,
        masses={"family": "aniso", "total": 1.0, "alphas": al.tolist(), "halfwidths": [1.0, 1.0]})
    job("verify2-radial-4", _verify(2, "radial:4,1,1", "--points", "4"), "json",
        verdict=CONSISTENT, singular_state="finite")
    job("verify2-radial-2", _verify(2, "radial:2,1,1", "--points", "4"), "json",
        verdict=CONSISTENT, singular_state="infinite")
    job("verify2-atomic-c11", _verify(2, "atomic:[(1,0;1),(0,2;4)]", "--points", "10"), "json",
        verdict=CONSISTENT, singular_state="finite")
    al = np.round(rng.uniform(1.6, 1.8, size=2), 3)
    job("verify2-aniso-probe", _verify(2, _aniso_spec(al, (1, 1)), "--points", "4"), "json",
        verdict=CONSISTENT, singular_state="finite")
    for k in range(2):
        job(f"verify3-atomic-{k}", _verify(3, _atomic_spec(rng, int(rng.integers(3, 9))),
                                           "--points", "120"),
            "json", verdict=EXCLUDED)
    d3 = _ray(rng, 2)
    job("rates-offdiag", ["rates", "--body", "ball:1", "--measure", "radial:2,1,1",
                          "--direction", _vec(d3), "--p-lo", "10", "--p-hi", "1000",
                          "--points", "8", "--tol", "1e-05"],
        "csv", ladder={"body": "ball:1", "measure": "radial:2,1,1", "direction": _vec(d3),
                       "p_lo": 10.0, "p_hi": 1000.0, "points": 8, "tol": 1e-5})
    return ops


def _classify_alpha(rng: np.random.Generator, category: str, dim: int) -> list[float]:
    """Exponents on the 1/8 lattice (exact in binary), forced onto ties or critical sets."""
    k = rng.integers(1, 33, size=dim)
    if category == "tie":
        k[1] = k[0]
    elif category == "square-critical":
        k = rng.integers(1, 17, size=dim)
        k[int(rng.integers(0, dim))] = 16
    elif category == "circle-critical":
        total = 8 * (dim + 1)
        while True:
            k = rng.integers(1, 25, size=dim)
            k[-1] = total - int(k[:-1].sum())
            if k[-1] >= 1:
                break
    return [int(v) / 8.0 for v in k]


def _table_ops(rng: np.random.Generator) -> list[dict]:
    ops = []

    def cli(label, argv, ext, **expect):
        ops.append({"kind": "cli", "label": label, "argv": argv, "ext": ext, "expect": expect})

    cli("regionmap", ["regionmap", "--grid", "0:4:201"], "csv",
        labels={"square-labels": 5, "circle-labels": 3})
    categories = ("generic", "tie", "square-critical", "circle-critical")
    for k in range(TABLE_CLASSIFY_OPS):
        dim = 3 if k % 3 == 2 else 2
        alpha = _classify_alpha(rng, categories[k % 4], dim)
        cli(f"classify-{categories[k % 4]}-{dim}d", ["classify", "--alpha", _vec(alpha)],
            "json", classify=oracles.classify_expected(alpha))
    t_list = "|".join(_vec(t) for t in rng.uniform(0.5, 50.0, size=(3, 2)))
    cli("simulate-demo20", ["simulate", "--action", "demo20", "--t", t_list], "csv",
        identity="demo20")
    for k in range(2):
        n = int(rng.integers(3, 13))
        freqs = rng.uniform(0.2, 3.0, size=(n, 2)) * rng.choice([-1.0, 1.0], size=(n, 2))
        coefs = rng.normal(size=(n, 2))
        comps = ",".join(f"({_fmt(f[0], 4)},{_fmt(f[1], 4)};{_fmt(c[0], 4)},{_fmt(c[1], 4)})"
                         for f, c in zip(freqs, coefs))
        t_list = "|".join(_vec(t) for t in rng.uniform(0.5, 50.0, size=(3, 2)))
        mass = float(sum(round(c[0], 4) ** 2 + round(c[1], 4) ** 2 for c in coefs))
        cli(f"simulate-action-{k}", ["simulate", "--action", f"action:[{comps}]", "--t", t_list],
            "csv", identity=mass)
    for body, dim in (("ball:1", 2), ("ellipsoid:2,1", 2), ("cube", 2),
                      ("ball:1", 3), ("ellipsoid:1,1.5", 2), ("ellipsoid:2,1,1.5", 3)):
        for k in range(TABLE_FOURIER_RAYS):
            cli(f"fourier-{body.split(':')[0]}-{dim}d-{k}",
                ["fourier", "--body", body, "--dim", str(dim),
                 "--direction", _vec(_ray(rng, dim)),
                 "--z-lo", "1", "--z-hi", "300", "--points", "1000"],
                "csv", fourier={"body": body, "dim": dim})
    for dim in (2, 3):
        al = np.round(rng.uniform(0.5, 2.0, size=dim), 3)
        hw = np.round(rng.uniform(0.5, 1.5, size=dim), 3)
        spec = _aniso_spec(al, hw)
        for hood in ("box", "ellipsoid"):
            axes = np.round(rng.uniform(0.02, 0.3, size=dim), 4)
            ops.append({"kind": "mass", "label": f"mass-aniso-{hood}-{dim}d", "measure": spec,
                        "dim": dim, "hood": hood, "axes": axes.tolist(),
                        "closed": {"family": "aniso", "total": 1.0, "alphas": al.tolist(),
                                   "halfwidths": hw.tolist()}})
    for dim in (2, 3):
        gamma = round(float(rng.uniform(0.5, 3.5)), 3)
        a = round(float(rng.uniform(0.02, 0.3)), 4)
        axes = [a, round(float(rng.uniform(0.02, 0.3)), 4)] if dim == 2 else \
            [a, a, round(a * float(rng.uniform(0.75, 1.3)), 4)]
        ops.append({"kind": "mass", "label": f"mass-radial-ellipsoid-{dim}d",
                    "measure": f"radial:{_fmt(gamma)},1,1", "dim": dim, "hood": "ellipsoid",
                    "axes": axes,
                    "closed": {"family": "radial", "total": 1.0, "gamma": gamma, "radius": 1.0}})
    for dim, lo, hi, state in ((2, 3.3, 4.0, "finite"), (3, 4.3, 5.0, "finite"),
                               (2, 1.0, 1.7, "infinite")):
        total = float(rng.uniform(lo, hi))
        frac = rng.dirichlet(np.ones(dim))
        al = np.round(np.maximum(frac * total, 0.1), 3)
        hw = np.round(rng.uniform(0.5, 1.5, size=dim), 3)
        ops.append({"kind": "singular", "label": f"singular-{state}-{dim}d",
                    "measure": _aniso_spec(al, hw), "dim": dim, "q": float(dim + 1),
                    "state": state, "alphas": al.tolist(), "halfwidths": hw.tolist()})
    return ops


def build_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one workload; a pure function of (workload, seed)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = {"ladder": _ladder_ops, "verdicts": _verdict_ops, "tables": _table_ops}[workload](rng)
    for k, op in enumerate(ops):
        op["id"] = f"{workload[0].upper()}{k:03d}"
    return ops


# -- running ops -------------------------------------------------------------------


class Program:
    """The ergrates modules, looked up at call time so tracing wrappers apply."""

    def __init__(self):
        import ergrates
        import ergrates.cli
        import ergrates.geometry
        import ergrates.rates
        import ergrates.spectral

        self.package = ergrates
        self.cli = ergrates.cli
        self.geometry = ergrates.geometry
        self.rates = ergrates.rates
        self.spectral = ergrates.spectral


def prepare(op: dict, prog: Program):
    """Build the op's inputs once; return call(out_path) that does only the op."""
    kind = op["kind"]
    if kind == "cli":
        def call(out_path):
            return prog.cli.main(op["argv"] + ["--out", out_path])
        return call
    m = prog.spectral.parse_measure(op["measure"], dim=op["dim"])
    if kind == "decay":
        body = prog.geometry.parse_body(op["body"], dim=op["dim"])
        t = np.asarray(op["t"], dtype=float)
        return lambda _out: prog.rates.decay_integral(body, m, t, rel_tol=op["rel_tol"])
    if kind == "mass":
        cls = prog.spectral.BoxNeighborhood if op["hood"] == "box" \
            else prog.spectral.EllipsoidNeighborhood
        hood = cls(tuple(op["axes"]))
        return lambda _out: prog.spectral.mass(m, hood)
    if kind == "singular":
        return lambda _out: prog.spectral.singular_integral(m, op["q"])
    raise ValueError(f"unknown op kind {kind!r}")


# -- references that need the program ------------------------------------------------


def needs_reference(op: dict) -> bool:
    return op["kind"] == "decay" or "ladder" in op.get("expect", {})


def compute_reference(op: dict) -> dict:
    """Reference values computed untimed with the program itself.

    decay ops: decay_integral_levelform (ball + radial, p <= 30) or the same
    route at a TIGHT_FACTOR tighter rel_tol; the rates CLI job: the same
    route at a TIGHT_FACTOR tighter --tol for every ladder point.
    """
    from ergrates.geometry import parse_body
    from ergrates.rates import decay_integral, decay_integral_levelform, ray_grid
    from ergrates.spectral import parse_measure

    if op["kind"] == "decay":
        body = parse_body(op["body"], dim=op["dim"])
        m = parse_measure(op["measure"], dim=op["dim"])
        t = np.asarray(op["t"], dtype=float)
        if op["ref"] == "levelform":
            return {"value": decay_integral_levelform(body, m, t), "tol": LEVELFORM_TOL}
        tight = op["rel_tol"] / TIGHT_FACTOR
        return {"value": decay_integral(body, m, t, rel_tol=tight), "tol": op["rel_tol"]}
    spec = op["expect"]["ladder"]
    body = parse_body(spec["body"])
    m = parse_measure(spec["measure"])
    p = np.geomspace(spec["p_lo"], spec["p_hi"], spec["points"])
    grid = ray_grid([float(v) for v in spec["direction"].split(",")], p)
    tight = spec["tol"] / TIGHT_FACTOR
    return {"t": grid.tolist(), "tol": spec["tol"],
            "values": [decay_integral(body, m, t, rel_tol=tight) for t in grid]}


def _reference_cost(op: dict) -> float:
    return float(np.linalg.norm(op["t"])) * op["dim"] ** 3 if op["kind"] == "decay" else 1e9


def compute_references(ops: list[dict], jobs: int) -> dict[str, dict]:
    """References for every op that needs one, keyed by op id; errors become {'error'}."""
    todo = sorted((op for op in ops if needs_reference(op)), key=_reference_cost, reverse=True)
    if not todo:
        return {}
    if jobs <= 1:
        results = [_safe_reference(op) for op in todo]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            results = list(pool.map(_safe_reference, todo))
    return {op["id"]: res for op, res in zip(todo, results)}


def _safe_reference(op: dict) -> dict:
    from ergrates.quadrature import QuadratureBudgetError

    try:
        return compute_reference(op)
    except QuadratureBudgetError as exc:  # the reference route itself ran out of budget
        return {"unchecked": str(exc)}
    except Exception as exc:  # any other reference failure fails its op
        return {"error": f"{type(exc).__name__}: {exc}"}


def source_digest(src_dir: str) -> str:
    """sha256 over the package sources, so cached references follow the code."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# -- checks ------------------------------------------------------------------------------


class CheckFailure(Exception):
    """An op's output missed its reference or the theory's verdict."""


class Unchecked(Exception):
    """The op's numeric reference could not be computed, so its value is unchecked."""


def _rel_err(value: float, ref: float, tol: float) -> float:
    if not (math.isfinite(value) and math.isfinite(ref)):
        raise CheckFailure(f"non-finite value {value!r} (reference {ref!r})")
    return abs(value - ref) / (tol * abs(ref)) if ref != 0.0 else (0.0 if value == 0.0 else math.inf)


def _read_csv(path: str) -> tuple[list[str], list[list[str]], dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = {}
    rows = []
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            comments[key] = val
        else:
            rows.append(line.split(","))
    return lines[0].split(","), rows, comments


def check(op: dict, output, ref: dict | None, out_path: str | None) -> float | None:
    """Raise CheckFailure if the op's output is wrong; return |v - ref| / (tol |ref|) if numeric."""
    kind = op["kind"]
    if ref is not None and "unchecked" in ref:
        raise Unchecked(ref["unchecked"])
    if kind == "decay":
        if ref is None or "error" in ref:
            raise CheckFailure(f"reference unavailable: {ref and ref.get('error')}")
        err = _rel_err(float(output), ref["value"], ref["tol"])
        if not err <= QUADRATURE_MISS:
            raise CheckFailure(f"I = {output!r} misses reference {ref['value']!r} "
                               f"by {err:.3g} x tol {ref['tol']:g}")
        return err
    if kind == "mass":
        c = op["closed"]
        if c["family"] == "aniso":
            fn = oracles.aniso_box_mass if op["hood"] == "box" else oracles.aniso_ellipsoid_mass
            want = fn(c["total"], c["alphas"], c["halfwidths"], op["axes"])
        else:
            want = oracles.radial_ellipsoid_mass(c["total"], c["gamma"], c["radius"], op["axes"])
        err = _rel_err(float(output), want, MASS_TOL)
        if not err <= 1.0:
            raise CheckFailure(f"mass {output!r} misses closed form {want!r}")
        return err
    if kind == "singular":
        lo, hi = oracles.aniso_singular_bracket(1.0, op["alphas"], op["halfwidths"], op["q"])
        value = float(output)
        if op["state"] == "infinite":
            if not math.isinf(value):
                raise CheckFailure(f"singular integral {value!r}, expected infinite")
        elif not lo <= value <= hi:
            raise CheckFailure(f"singular integral {value!r} outside [{lo!r}, {hi!r}]")
        return None
    if output != 0:
        raise CheckFailure(f"exit code {output!r}, expected 0")
    return _check_artifact(op, ref, out_path)


def _check_artifact(op: dict, ref: dict | None, path: str) -> float | None:
    expect = op["expect"]
    if op["ext"] == "json":
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        if "classify" in expect:
            return _check_classify(report, expect["classify"])
        if report["verdict"] != expect["verdict"]:
            raise CheckFailure(f"verdict {report['verdict']!r}, expected {expect['verdict']!r}")
        ev = report["evidence"]
        if "singular_state" in expect and ev["singular_state"] != expect["singular_state"]:
            raise CheckFailure(f"singular_state {ev['singular_state']!r}, "
                               f"expected {expect['singular_state']!r}")
        if "masses" in expect:
            return _check_masses(ev, expect["masses"])
        return None
    header, rows, comments = _read_csv(path)
    if "labels" in expect:
        for key, want in expect["labels"].items():
            if int(comments.get(key, -1)) != want:
                raise CheckFailure(f"{key} = {comments.get(key)!r}, expected {want}")
        return None
    if "identity" in expect:
        return _check_identity(rows, expect["identity"])
    if "fourier" in expect:
        return _check_fourier(header, rows, expect["fourier"])
    if "ladder" in expect:
        return _check_rates_csv(rows, ref)
    raise CheckFailure("no check defined")


def _check_classify(report: dict, want: dict) -> None:
    for key in ("verdict", "r"):
        if report[key] != want[key]:
            raise CheckFailure(f"{key} = {report[key]!r}, theory says {want[key]!r}")
    for key in ("m", "theta"):
        if abs(report[key] - want[key]) > CLASSIFY_TOL:
            raise CheckFailure(f"{key} = {report[key]!r}, theory says {want[key]!r}")
    for fam in ("square", "circle"):
        got, exp = report[fam], want[fam]
        if (got["family"], got["log_power"]) != (exp["family"], exp["log_power"]):
            raise CheckFailure(f"{fam} regime {got['family']}/{got['log_power']}, "
                               f"theory says {exp['family']}/{exp['log_power']}")
        if max(abs(a - b) for a, b in zip(got["exponents"], exp["exponents"])) > CLASSIFY_TOL:
            raise CheckFailure(f"{fam} exponents {got['exponents']}, theory says {exp['exponents']}")
    return None


def _check_masses(ev: dict, spec: dict) -> float:
    worst = 0.0
    for t, got in zip(ev["t_grid"], ev["neighborhood_mass"]):
        axes = [1.0 / v for v in t]
        if spec["family"] == "radial":
            want = oracles.radial_ellipsoid_mass(spec["total"], spec["gamma"], spec["radius"], axes)
        else:
            want = oracles.aniso_ellipsoid_mass(spec["total"], spec["alphas"], spec["halfwidths"], axes)
        worst = max(worst, _rel_err(got, want, MASS_TOL))
    if not worst <= 1.0:
        raise CheckFailure(f"neighbourhood masses miss the closed form by {worst:.3g} x tol")
    return worst


def _check_identity(rows: list[list[str]], total) -> float:
    if total == "demo20":
        from ergrates.hilbert_sim import demo_action
        total = demo_action(n=20, dim=2).norm_sq()
    worst = 0.0
    for row in rows:
        norm_sq, atomic, diff = (float(v) for v in row[-3:])
        # the CSV carries 12 significant digits; allow that rounding on top
        slack = 1e-11 * max(abs(norm_sq), abs(atomic))
        gap = max(diff, abs(norm_sq - atomic) - slack)
        worst = max(worst, gap / (IDENTITY_TOL * total))
    if not worst <= 1.0:
        raise CheckFailure(f"simulated average and atomic integral differ by {worst:.3g} x tol")
    return worst


def _check_fourier(header: list[str], rows: list[list[str]], spec: dict) -> float:
    dim = spec["dim"]
    x = np.array([[float(v) for v in row[:dim]] for row in rows])
    got = np.array([float(row[header.index("abs")]) for row in rows])
    want = oracles.indicator_ft_abs(spec["body"], dim, x)
    vol = oracles.body_volume(spec["body"], dim)
    worst = float(np.max(np.abs(got - want))) / (FOURIER_TOL * vol)
    if not worst <= 1.0:
        raise CheckFailure(f"|F| misses the closed form by {worst:.3g} x tol")
    return worst


def _check_rates_csv(rows: list[list[str]], ref: dict | None) -> float:
    if ref is None or "error" in ref:
        raise CheckFailure(f"reference unavailable: {ref and ref.get('error')}")
    if len(rows) != len(ref["values"]):
        raise CheckFailure(f"{len(rows)} ladder rows, expected {len(ref['values'])}")
    worst = 0.0
    for row, t, want in zip(rows, ref["t"], ref["values"]):
        dim = len(t)
        t_got = [float(v) for v in row[1:1 + dim]]
        if max(abs(a - b) / b for a, b in zip(t_got, t)) > 1e-11:
            raise CheckFailure(f"ladder point {t_got} differs from {t}")
        worst = max(worst, _rel_err(float(row[1 + dim]), want, ref["tol"]))
    if not worst <= QUADRATURE_MISS:
        raise CheckFailure(f"I column misses the tighter-tolerance route by {worst:.3g} x tol")
    return worst
