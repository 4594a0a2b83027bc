"""One workload run in a fresh interpreter; started by run.py, not by hand.

Closed loop, one caller, no threads: each op starts when the previous one
returns.  Passes over the op list repeat until --seconds have elapsed, with
at least one pass, or two when the workload writes CLI artifacts (every
artifact is written twice and compared byte for byte); a pass that would
end past OVERRUN x --seconds is not started.  Each pass runs the ops in its
own seeded order, so every kind of op is spread over the whole run rather
than timed in one contiguous block.  With --trace 1 one more pass runs with
the tracing wrappers installed; they are removed before anything else is
timed.  References are computed after all timing, then every op output of
every pass is checked.  The result goes to --out as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import tracing
import workloads

# references are computed after all timing, so running two at once cannot
# disturb a measurement
REF_JOBS = 2
# another pass starts only if, at the last pass's pace, it ends within this
# multiple of --seconds
OVERRUN = 1.5


def _artifact(op: dict) -> str:
    return f"{op['id']}.{op.get('ext', 'out')}"


def pass_order(n: int, seed: int, k: int) -> list[int]:
    """The order in which pass k runs the n ops: a permutation fixed by (seed, k)."""
    return np.random.default_rng([seed, 1 + k]).permutation(n).tolist()


def _run_pass(ops, calls, work: str, pass_dir: str, tracer=None, order=None) -> dict:
    """One closed-loop pass in the given order (default: as listed).

    Artifacts are moved to pass_dir after each op, untimed.  Results are
    indexed like ops whatever the order.  Every pass writes to the same
    relative --out path, because the path is part of the config hash inside
    the artifact: equal bytes across passes, runs and checkouts then mean
    equal results.
    """
    os.makedirs(pass_dir, exist_ok=True)
    n = len(ops)
    outputs, errors, times = [None] * n, [None] * n, [0.0] * n
    clock = time.perf_counter
    wall = 0.0
    for i in (range(n) if order is None else order):
        op, call = ops[i], calls[i]
        out_path = os.path.join(work, _artifact(op))
        start = clock()
        try:
            if tracer is None:
                out = call(out_path)
            else:
                out = tracer.run_op(op["id"], lambda: call(out_path))
            err = None
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        times[i] = elapsed
        wall += elapsed
        outputs[i] = out
        errors[i] = err
        if os.path.exists(out_path):
            os.replace(out_path, os.path.join(pass_dir, _artifact(op)))
    return {"wall_s": wall, "op_s": times, "outputs": outputs, "errors": errors,
            "dir": pass_dir}


def _references(ops, root: str, workload: str, seed: int) -> tuple[dict, dict]:
    digest = workloads.source_digest(os.path.join(root, "src", "ergrates"))
    cache_dir = os.path.join(root, ".perfbench_cache")
    path = os.path.join(cache_dir, f"refs-{workload}-{seed}-{digest[:16]}.json")
    info = {"cache": os.path.relpath(path, root), "source_sha256": digest}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            info["cached"] = True
            return json.load(fh), info
    start = time.perf_counter()
    refs = workloads.compute_references(ops, REF_JOBS)
    info.update(cached=False, compute_s=time.perf_counter() - start)
    if refs and not any("error" in r for r in refs.values()):
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(refs, fh)
        os.replace(tmp, path)
    return refs, info


def check_passes(ops, passes, refs) -> tuple[list[dict], list[float], dict, dict]:
    """Check every op of every pass.

    Returns (failures, numeric errors, artifact sha256, notes), where notes
    lists the ops left unchecked and those outside their stated tolerance
    but within the miss factor.
    """
    failures, errs, digests, unchecked, over_tol = [], [], {}, [], []
    first_bytes = {}
    for k, res in enumerate(passes):
        for op, out, err in zip(ops, res["outputs"], res["errors"]):
            path = os.path.join(res["dir"], _artifact(op))
            reason = err
            if reason is None:
                try:
                    e = workloads.check(op, out, refs.get(op["id"]), path)
                    if e is not None:
                        errs.append(e)
                        if e > 1.0:
                            over_tol.append({"op": op["id"], "label": op["label"], "pass": k,
                                             "err_over_tol": e})
                except workloads.Unchecked as exc:
                    unchecked.append({"op": op["id"], "label": op["label"], "pass": k,
                                      "reason": str(exc)})
                except workloads.CheckFailure as exc:
                    reason = str(exc)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    reason = f"unreadable output: {type(exc).__name__}: {exc}"
            if reason is None and op["kind"] == "cli":
                with open(path, "rb") as fh:
                    data = fh.read()
                if op["id"] not in first_bytes:
                    first_bytes[op["id"]] = data
                    digests[op["id"]] = hashlib.sha256(data).hexdigest()
                elif data != first_bytes[op["id"]]:
                    reason = "artifact bytes differ from its first write"
            if reason is not None:
                failures.append({"op": op["id"], "label": op["label"], "pass": k,
                                 "reason": reason})
    return failures, errs, digests, {"unchecked": unchecked, "over_tol": over_tol}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(root: str, seed: int, cleared_threads: str) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "seed": seed,
        "ERGRATES_THREADS": f"cleared (was {cleared_threads})",
    }


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all order statistics.

    A workload's op costs jump between refinement levels from one seeded ray
    to the next, so a single order statistic jumps with them; the weighted
    mean moves smoothly.
    """
    from scipy.stats import beta

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, q * (n + 1), (1 - q) * (n + 1)))
    return float(weights @ x)


def _another_pass(elapsed: float, last_wall: float, seconds: float) -> bool:
    return elapsed < seconds and elapsed + last_wall <= OVERRUN * seconds


def op_latency_ms(passes) -> np.ndarray:
    """Each op's mean latency over the passes, in ms.

    The percentiles are taken over these means: the host's speed changes in
    phases of milliseconds to seconds, and a percentile of single samples
    jumps with the share of ops that happened to run in a slow phase, while
    a mean over passes run at different times moves smoothly with it.
    """
    return 1000.0 * np.mean([p["op_s"] for p in passes], axis=0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--cleared-threads", default="unset")
    args = ap.parse_args(argv)
    os.environ.pop("ERGRATES_THREADS", None)

    root = os.path.abspath(args.root)
    prog = workloads.Program()
    pkg_dir = os.path.dirname(os.path.abspath(prog.package.__file__))
    if pkg_dir != os.path.join(root, "src", "ergrates"):
        print(f"perfbench: imported ergrates from {pkg_dir}, not from the checkout",
              file=sys.stderr)
        return 2

    ops = workloads.build_ops(args.workload, args.seed)
    calls = [workloads.prepare(op, prog) for op in ops]
    # relative to the checkout root, which is the working directory
    work = os.path.join(".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    min_passes = 2 if any(op["kind"] == "cli" for op in ops) else 1
    try:
        passes = []
        start = time.perf_counter()
        while len(passes) < min_passes or _another_pass(time.perf_counter() - start,
                                                        passes[-1]["wall_s"], args.seconds):
            k = len(passes)
            passes.append(_run_pass(ops, calls, work, os.path.join(work, f"pass{k}"),
                                    order=pass_order(len(ops), args.seed, k)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        traced = None
        layers = None
        if args.trace:
            tracer = tracing.Tracer()
            bindings = tracer.install()
            try:
                traced = _run_pass(ops, calls, work, os.path.join(work, "traced"), tracer,
                                   order=pass_order(len(ops), args.seed, len(passes)))
            finally:
                tracer.uninstall()
            untraced_wall = statistics.median(p["wall_s"] for p in passes)
            layers = tracing.layer_metrics(tracer.summary(), traced["wall_s"], untraced_wall)
            out_dir = os.path.dirname(os.path.abspath(args.out))
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl.gz")
            tracer.write(spans_path)

        refs, ref_info = _references(ops, root, args.workload, args.seed)
        all_passes = passes + ([traced] if traced else [])
        failures, errs, digests, notes = check_passes(ops, all_passes, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    op_ms = op_latency_ms(passes)
    samples = len(ops) * len(passes)
    attempted = len(ops) * len(all_passes)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s", len(passes)),
        "op_ms.p50": (quantile(op_ms, 0.5), "ms", samples),
        "op_ms.p90": (quantile(op_ms, 0.9), "ms", samples),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "failed_share": (len(failures) / attempted, "fraction", attempted),
        "err_over_tol.max": (max(errs) if errs else 0.0, "ratio", len(errs)),
    }
    if layers is not None:
        layers["failed_share"] = metrics["failed_share"][:2]
        layers["err_over_tol.max"] = metrics["err_over_tol.max"][:2]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(root, args.seed, args.cleared_threads),
        "ops": len(ops),
        "passes": [{"wall_s": p["wall_s"], "op_ms": {op["id"]: 1000.0 * t
                                                     for op, t in zip(ops, p["op_s"])}}
                   for p in passes],
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        **notes,
        "artifacts_sha256": digests,
        "references": ref_info,
        "op_labels": {op["id"]: op["label"] for op in ops},
    }
    if layers is not None:
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["trace_bindings_wrapped"] = bindings
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
