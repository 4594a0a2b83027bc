"""Tests of the benchmark itself: checks, failure counting, seeding, tracing.

    python -m pytest perfbench -q
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from ergrates.quadrature import QuadratureBudgetError  # noqa: E402


def _op(workload, label_prefix, seed=1):
    return next(op for op in workloads.build_ops(workload, seed)
                if op["label"].startswith(label_prefix))


# -- checks ---------------------------------------------------------------------


def test_perturbed_reference_counts_as_a_failure():
    op = _op("ladder", "ball-radial-2@p=242")
    value = 1.234e-4
    assert workloads.check(op, value, {"value": value, "tol": 1e-5}, None) == 0.0
    assert math.isclose(workloads.check(op, value, {"value": value * (1 + 2e-5), "tol": 1e-5},
                                        None), 2.0, rel_tol=1e-4)
    with pytest.raises(workloads.CheckFailure):
        workloads.check(op, value, {"value": value * (1 + 2e-4), "tol": 1e-5}, None)

    mass_op = _op("tables", "mass-aniso-box-2d")
    c = mass_op["closed"]
    exact = oracles.aniso_box_mass(c["total"], c["alphas"], c["halfwidths"], mass_op["axes"])
    assert workloads.check(mass_op, exact, None, None) <= 1.0
    perturbed = copy.deepcopy(mass_op)
    perturbed["closed"]["total"] *= 1.0 + 1e-6
    with pytest.raises(workloads.CheckFailure):
        workloads.check(perturbed, exact, None, None)


def test_perturbed_reference_fails_its_op_in_a_pass():
    op = _op("ladder", "ball-radial-2@p=242")
    res = {"outputs": [1.0], "errors": [None], "dir": "unused"}
    failures, errs, _, _ = worker.check_passes([op], [res], {op["id"]: {"value": 1.001, "tol": 1e-5}})
    assert len(failures) == 1 and failures[0]["op"] == op["id"] and not errs


def test_budget_error_is_counted_not_fatal(tmp_path):
    ops = [_op("ladder", "ball-radial-2@p=10"), _op("ladder", "ball-radial-2@p=14")]

    def raises(_out):
        raise QuadratureBudgetError("angular refinement did not reach rel_tol")

    res = worker._run_pass(ops, [raises, lambda _out: 0.5], str(tmp_path), str(tmp_path / "p0"))
    assert res["errors"][0].startswith("QuadratureBudgetError")
    assert res["errors"][1] is None and res["outputs"][1] == 0.5
    refs = {op["id"]: {"value": 0.5, "tol": 1e-5} for op in ops}
    failures, errs, _, _ = worker.check_passes(ops, [res], refs)
    assert [f["op"] for f in failures] == [ops[0]["id"]]
    assert "QuadratureBudgetError" in failures[0]["reason"]
    assert errs == [0.0]


# -- seeding --------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    a = workloads.build_ops(workload, 11)
    assert a == workloads.build_ops(workload, 11)
    b = workloads.build_ops(workload, 12)
    assert len(a) == len(b)
    assert a != b
    assert [op["label"] for op in a] == [op["label"] for op in b]


def test_pass_order_is_a_seeded_permutation():
    order = worker.pass_order(97, 5, 0)
    assert sorted(order) == list(range(97))
    assert order == worker.pass_order(97, 5, 0)
    assert order != worker.pass_order(97, 5, 1)
    assert order != worker.pass_order(97, 6, 0)


def test_run_pass_keeps_results_in_op_order(tmp_path):
    ops = [_op("ladder", "ball-radial-2@p=10"), _op("ladder", "ball-radial-2@p=14")]
    seen = []

    def call(value):
        return lambda _out: seen.append(value) or value

    res = worker._run_pass(ops, [call(1.0), call(2.0)], str(tmp_path), str(tmp_path / "p0"),
                           order=[1, 0])
    assert seen == [2.0, 1.0]
    assert res["outputs"] == [1.0, 2.0]


def test_op_latency_is_the_mean_over_passes():
    passes = [{"op_s": [0.001, 0.010]}, {"op_s": [0.003, 0.030]}]
    assert np.allclose(worker.op_latency_ms(passes), [2.0, 20.0])


def test_quantile_moves_smoothly_with_one_op():
    # half the ops at 1 ms, half at 10 ms; one op moves up a group
    base = [1.0] * 15 + [10.0] * 15
    moved = [1.0] * 14 + [10.0] * 16
    assert worker.quantile(base, 0.5) == pytest.approx(5.5)
    assert worker.quantile(base[::-1], 0.5) == worker.quantile(base, 0.5)
    # the plain median jumps from 5.5 to 10; the estimate moves by much less
    assert np.median(moved) / np.median(base) > 1.8
    assert 1.0 < worker.quantile(moved, 0.5) / worker.quantile(base, 0.5) < 1.3


def test_tables_percentiles_fall_inside_op_groups():
    ops = workloads.build_ops("tables", 4)
    labels = [op["label"] for op in ops]
    n = len(ops)
    # numpy's linear percentile sits between these ranks, counted from the top
    p90_from_top = (n - 1) * 0.1
    heavy = sum(lab == "regionmap" or lab.endswith("-3d") and lab.startswith(("mass-", "singular-finite"))
                for lab in labels)
    fourier = sum(lab.startswith("fourier-ellipsoid") for lab in labels)
    assert heavy + 1 < p90_from_top < heavy + fourier - 1
    assert sum(lab.startswith("classify-") for lab in labels) > 0.7 * n


def test_ladder_shape():
    ops = workloads.build_ops("ladder", 3)
    assert len(ops) == 8 * 14 + 2
    for op in ops:
        t = np.asarray(op["t"])
        assert t.max() <= 2.0 * t.min() * (1 + 1e-12)
        p = t.min()
        assert 10.0 * (1 - 1e-12) <= p <= 1000.0 * (1 + 1e-12)
        assert (op["ref"] == "levelform") == (op["body"] == "ball:1"
                                              and op["measure"].startswith("radial")
                                              and p <= workloads.LEVELFORM_MAX_P)


# -- tracing --------------------------------------------------------------------


def _trace_once(ops, tmp_path, tag):
    prog = workloads.Program()
    calls = [workloads.prepare(op, prog) for op in ops]
    tracer = tracing.Tracer()
    original = prog.rates.decay_integral
    assert tracer.install() > 0
    assert prog.rates.decay_integral is not original
    try:
        res = worker._run_pass(ops, calls, str(tmp_path), str(tmp_path / tag), tracer)
    finally:
        tracer.uninstall()
    assert prog.rates.decay_integral is original
    assert all(e is None for e in res["errors"]), res["errors"]
    return tracing.layer_metrics(tracer.summary(), res["wall_s"], res["wall_s"])


def test_count_metrics_repeat_between_traced_runs(tmp_path):
    ops = [_op("ladder", "ball-radial-2@p=10"), _op("ladder", "cube-radial-2@p=10"),
           _op("tables", "classify-tie"), _op("tables", "simulate-demo20"),
           _op("tables", "mass-aniso-box-2d"), _op("verdicts", "verify2-atomic-c11")]
    first = _trace_once(ops, tmp_path, "a")
    second = _trace_once(ops, tmp_path, "b")
    counts = [k for k, (_, unit) in first.items() if unit == "count"]
    assert "rates.rows_per_eval" in counts and "geometry.width.calls" in counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["rates.decay_integral.calls"][0] == 2
    assert first["classify.regime_calls_per_point"][0] == 4.0
    assert first["fourier.ratio_abs_sq.rows"][0] > 0
    assert first["cli.main.calls"][0] == 3
    assert set(run.PER_LAYER) <= set(first) | {"failed_share", "err_over_tol.max"}


# -- references -------------------------------------------------------------------


def test_mass_closed_forms_match_direct_quadrature():
    # 2-D radial, density c r^(gamma-2) with c = gamma/(2 pi) (mass 1, R = 1)
    g, d1, d2 = 1.7, 0.2, 0.07
    c = g / (2 * math.pi)
    direct = integrate.quad(
        lambda ph: c / g * (math.cos(ph) ** 2 / d1 ** 2 + math.sin(ph) ** 2 / d2 ** 2) ** (-g / 2),
        0, 2 * math.pi, limit=200)[0]
    assert math.isclose(oracles.radial_ellipsoid_mass(1.0, g, 1.0, (d1, d2)), direct, rel_tol=1e-10)
    # 3-D axisymmetric: c = gamma/(4 pi)
    da, db = 0.1, 0.13
    c = g / (4 * math.pi)
    direct = 2 * math.pi * integrate.quad(
        lambda u: c / g * ((1 - u * u) / da ** 2 + u * u / db ** 2) ** (-g / 2), -1, 1)[0]
    assert math.isclose(oracles.radial_ellipsoid_mass(1.0, g, 1.0, (da, da, db)), direct,
                        rel_tol=1e-10)
    # 2-D aniso ellipsoid by polar quadrature of the density
    al, hw, dl = (1.3, 0.6), (1.0, 0.8), (0.2, 0.1)
    scale = 1.0 / math.prod(2 * b ** a / a for a, b in zip(al, hw))
    s = sum(al)

    def angular(ph):
        rho = (math.cos(ph) ** 2 / dl[0] ** 2 + math.sin(ph) ** 2 / dl[1] ** 2) ** -0.5
        return abs(math.cos(ph)) ** (al[0] - 1) * abs(math.sin(ph)) ** (al[1] - 1) * rho ** s / s

    direct = 4 * scale * integrate.quad(angular, 0, math.pi / 2, limit=200)[0]
    assert math.isclose(oracles.aniso_ellipsoid_mass(1.0, al, hw, dl), direct, rel_tol=1e-8)


def test_classify_oracle_reproduces_the_worked_cells():
    cell = oracles.classify_expected((2.0, 2.0))
    assert (cell["square"]["family"], cell["square"]["log_power"]) == ("SquareCritical", 2)
    cell = oracles.classify_expected((2.0, 1.0))
    assert (cell["circle"]["family"], cell["circle"]["log_power"]) == ("CircleCritical", 1)
    cell = oracles.classify_expected((3.0, 1.0))
    assert np.allclose(cell["circle"]["exponents"], (-9 / 4, -3 / 4))
    assert np.allclose(cell["square"]["exponents"], (-2.0, -2 / 3))


def test_fourier_reference_has_the_volume_at_the_origin():
    for body, dim in (("ball:1", 2), ("ellipsoid:2,1", 2), ("cube", 2), ("ball:1", 3)):
        near0 = oracles.indicator_ft_abs(body, dim, np.full((1, dim), 1e-4))[0]
        assert math.isclose(near0, oracles.body_volume(body, dim), rel_tol=1e-7)


# -- the command --------------------------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
    assert not (tmp_path / ".perfbench_out").exists()
