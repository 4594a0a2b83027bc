"""ergrates benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload {ladder,verdicts,tables} --seed N \
        [--seconds S] [--trace 0|1]

Run from the root of a checkout that holds src/ergrates; nothing needs to be
installed.  The run

  1. runs the workload in a fresh interpreter (perfbench/worker.py) with
     ERGRATES_THREADS removed from the environment, so every op uses the
     serial default;
  2. measures set-up: `import ergrates, ergrates.cli` in SETUP_RUNS fresh
     interpreters, reported as their median;
  3. prints each metric with its unit and sample count, the environment,
     and every failed op with its reason, then as its last line
     {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-module ones
from an extra traced pass (see tracing.py).  Detailed results, artifact
sha256 digests and the trace spans go to .perfbench_out/; references are
cached per seed and source digest in .perfbench_cache/.  Without
src/ergrates the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ladder", "verdicts", "tables")

SETUP_RUNS = 3
# a run must end within 180 s; keep a margin for set-up and reporting
RUN_BUDGET_S = 170.0
SETUP_RESERVE_S = 15.0
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import ergrates, ergrates.cli\n"
    "print(time.perf_counter() - t0, ergrates.__file__)\n"
)

END_TO_END = ("setup_s", "wall_s", "op_ms.p50", "op_ms.p90", "peak_rss_mb")
PER_LAYER = (
    "rates.decay_integral.calls", "rates.decay_integral.busy_s", "rates.decay_integral.self_s",
    "rates.ratio_calls_per_eval", "rates.rows_per_eval",
    "rates.check_rate_equivalence.busy_s", "rates.check_critical_rate.busy_s",
    "rates.check_supercritical_rate.busy_s", "rates.fit.busy_s",
    "rates.decay_integral_atomic.calls", "rates.decay_integral_atomic.busy_s",
    "fourier.ratio_abs_sq.calls", "fourier.ratio_abs_sq.rows", "fourier.ratio_abs_sq.busy_s",
    "fourier.ratio_abs_sq.ns_per_row", "fourier.unit_ball_profile.rows",
    "fourier.unit_ball_profile.busy_s", "bessel.bessel_j.rows", "bessel.bessel_j.busy_s",
    "fourier.indicator_ft.calls", "fourier.indicator_ft.busy_s",
    "fourier.stationary_phase_ft.calls", "fourier.stationary_phase_ft.busy_s",
    "geometry.width.calls", "geometry.width.busy_s",
    "spectral.mass.calls", "spectral.mass.busy_s",
    "spectral.singular_integral.calls", "spectral.singular_integral.busy_s",
    "spectral.parse_measure.busy_s",
    "hilbert_sim.average_norm_sq.calls", "hilbert_sim.average_norm_sq.busy_s",
    "hilbert_sim.induced_measure.busy_s",
    "classify.region_map.busy_s", "classify.regime_calls_per_point",
    "cli.main.calls", "cli.main.self_s",
    "trace.overhead_s", "trace.wall_s", "failed_share", "err_over_tol.max",
)


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Import times of SETUP_RUNS fresh interpreters.

    Runs after the workload, whose own import has already written the
    bytecode caches, so no warm-up import is needed.
    """
    times = []
    for _ in range(SETUP_RUNS):
        timeout = deadline - time.monotonic()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=max(timeout, 1.0))
        if out.returncode != 0:
            raise RuntimeError(f"importing ergrates failed:\n{out.stderr.strip()}")
        elapsed, path = out.stdout.split()
        if not os.path.abspath(path).startswith(os.path.join(ROOT, "src", "ergrates")):
            raise RuntimeError(f"imported ergrates from {path}, not from the checkout")
        times.append(float(elapsed))
    return times


def run_worker(args, env: dict, out_path: str, deadline: float, cleared: str) -> None:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", out_path, "--cleared-threads", cleared]
    # the worker's stdout goes to our stderr: our stdout carries only the report
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise RuntimeError("workload ran past the time budget") from None
    except BaseException:
        _kill_group(proc)
        raise
    if code != 0:
        raise RuntimeError(f"workload process exited with {code}")


def report(res: dict, setup: list[float], trace: int) -> dict:
    """Print the human-readable report; return the metrics for the JSON line."""
    env = res["env"]
    print(f"perfbench {res['workload']} seed={res['seed']} seconds={res['seconds']:g} "
          f"trace={trace}: {res['ops']} ops x {len(res['passes'])} pass(es), closed loop, "
          f"1 caller")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    m = dict(res["metrics"])
    m["setup_s"] = {"value": statistics.median(setup), "unit": "s", "n": len(setup)}
    for name in ("setup_s", "wall_s", "op_ms.p50", "op_ms.p90", "peak_rss_mb",
                 "failed_share", "err_over_tol.max"):
        v = m[name]
        print(f"  {name:<18} {v['value']:>14.6g} {v['unit']:<9} n={v['n']}")
    for f in res["failures"]:
        print(f"  FAILED {f['op']} {f['label']} (pass {f['pass']}): {f['reason']}")
    for f in res["unchecked"]:
        print(f"  unchecked {f['op']} {f['label']} (pass {f['pass']}): {f['reason']}")
    for f in res["over_tol"]:
        print(f"  over tolerance {f['op']} {f['label']} (pass {f['pass']}): "
              f"{f['err_over_tol']:.3g} x tol")
    if trace:
        print("per-module (traced pass):")
        for name in PER_LAYER:
            v = res["layers"][name]
            print(f"  {name:<40} {v['value']:>14.6g} {v['unit']}")
        return {k: {"value": res["layers"][k]["value"], "unit": res["layers"][k]["unit"]}
                for k in PER_LAYER}
    return {k: {"value": m[k]["value"], "unit": m[k]["unit"]} for k in END_TO_END}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "ergrates", "__init__.py")):
        return _fail(f"no ergrates sources under {os.path.join(ROOT, 'src')}")
    env = dict(os.environ)
    cleared = env.pop("ERGRATES_THREADS", None)
    cleared = "unset" if cleared is None else repr(cleared)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-{args.seed}-trace{args.trace}.json")
    try:
        run_worker(args, env, out_path, deadline - SETUP_RESERVE_S, cleared)
        setup = measure_setup(env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    with open(out_path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["setup_s"] = setup
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    metrics = report(res, setup, args.trace)
    print(f"  results: {os.path.relpath(out_path, ROOT)} ({time.monotonic() - start:.1f} s)")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
