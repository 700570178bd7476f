"""Benchmark of the slrnmf solver, its initialisers and its command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's sessions (session.py) one after another, each in a
fresh interpreter pinned to one BLAS thread and holding one of the
workload's scenes, and prints one JSON object as the last line of standard
output: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The line before it records the environment.
Exits 2, printing no result, when the checkout has no ``src/slrnmf``.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import merge_totals, new_total  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def session_env():
    env = dict(os.environ, **PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_sessions(spec, seed, seconds, trace, deadline):
    """Each session in its own process group, waited for before the next.

    Session ``i`` holds scene ``i % len(spec.scenes)``.
    """
    results = []
    for i in range(spec.sessions):
        cmd = [sys.executable, str(HERE / "session.py"),
               "--workload", spec.name, "--seed", str(seed),
               "--scene", str(i % len(spec.scenes)),
               "--seconds", repr(seconds / spec.sessions),
               "--trace", str(trace), "--spawned", repr(time.time()),
               "--work", str(WORK / ("%s-%d-%d" % (spec.name, os.getpid(), i)))]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=session_env(), cwd=str(ROOT),
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - time.time(), 1))
        except subprocess.TimeoutExpired:
            stop_group(proc)
            raise SystemExit("session %d of %s ran past the time limit"
                             % (i, spec.name))
        if proc.returncode != 0:
            raise SystemExit("session %d of %s exited %d"
                             % (i, spec.name, proc.returncode))
        results.append(json.loads(stdout.strip().splitlines()[-1]))
    return results


def stop_group(proc):
    """Kill a session and its children, and wait until all have ended."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def scene_medians(ops):
    """Per scene, the median operation time, iterations and spectral angle.

    Scenes differ 30-fold in length and each session repeats its own scene
    as often as its seconds allow, so the figures are taken per scene
    first; otherwise short scenes would outweigh long ones.
    """
    by_pos = defaultdict(list)
    for op in ops:
        by_pos[op["pos"]].append(op)
    return [tuple(statistics.median(op[key] for op in v)
                  for key in ("op_s", "iterations", "sam"))
            for v in by_pos.values()]


def end_to_end(sessions):
    ops = [op for s in sessions for op in s["ops"]]
    per_scene = scene_medians(ops)
    round_s = sum(t for t, _, _ in per_scene)
    sams = [sam for _, _, sam in per_scene if math.isfinite(sam)]
    if not sams:
        raise SystemExit("no operation produced factors to score")
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in sessions), "s"),
        "ops_per_s": (len(per_scene) / round_s, "1/s"),
        "op_s_p50": (statistics.median(t for t, _, _ in per_scene), "s"),
        "iters_per_s": (sum(i for _, i, _ in per_scene) / round_s, "1/s"),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in sessions), "MB"),
        "mean_sam_deg": (statistics.fmean(sams), "deg"),
    }


def per_layer(sessions):
    ops = [op for s in sessions for op in s["ops"]]
    plain = [op for s in sessions for op in s["untraced_ops"]]
    n = len(ops)
    totals = {}
    for s in sessions:
        merge_totals(totals, s["totals"])

    def get(name):
        return totals.get(name, new_total())

    def per_op(name, key="total_s"):
        return (get(name)[key] / n, "s")

    cost = get("model.cost_eval")
    trials = cost["under"].get("solver.line_search", 0)
    load = get("io.load_matrix")
    imports = [t for s in sessions for t in s["import_s"]]
    return {
        "model.cost_evals": (cost["count"] / n, "count"),
        "model.cost_eval_s": per_op("model.cost_eval"),
        "model.minflt_per_cost_eval": (cost["minflt"] / max(cost["count"], 1),
                                       "count"),
        "solver.iterations": (sum(op["iterations"] for op in ops) / n, "count"),
        "solver.ls_trials": (trials / n, "count"),
        "solver.ls_accept_ratio": (sum(op["moved"] for op in ops)
                                   / max(trials, 1), "ratio"),
        "solver.stall_iters": (sum(op["stalls"] for op in ops) / n, "count"),
        "solver.update_w_s": per_op("solver.update_w"),
        "solver.update_phi_s": per_op("solver.update_phi"),
        "solver.irls_s": per_op("solver.irls"),
        "solver.prune_s": per_op("solver.prune"),
        "solver.ls_self_s": per_op("solver.line_search", "self_s"),
        "solver.solve_self_s": per_op("solver.solve", "self_s"),
        "initializers.vca_s": per_op("initializers.vca"),
        "initializers.nnls_s": per_op("initializers.nnls"),
        "synth.simulate_s": (statistics.median(
            s["setup_totals"].get("synth.simulate", new_total())["total_s"]
            for s in sessions), "s"),
        "metrics.evaluate_s": per_op("metrics.evaluate"),
        "io.load_matrix_s": per_op("io.load_matrix"),
        "io.load_mb_per_s": (load["bytes"] / 1e6 / max(load["total_s"], 1e-9),
                             "MB/s"),
        "io.save_matrix_s": per_op("io.save_matrix"),
        "io.report_s": per_op("io.report"),
        "cli.import_s": (statistics.fmean(imports) if imports else 0.0, "s"),
        "cli.run_self_s": per_op("cli.run", "self_s"),
        "trace.overhead_s": (statistics.fmean(op["op_s"] for op in ops)
                             - statistics.fmean(op["op_s"] for op in plain),
                             "s"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description="slrnmf benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "slrnmf" / "__init__.py").is_file():
        print("error: %s has no src/slrnmf; run from a checkout of the "
              "repository" % ROOT, file=sys.stderr)
        return 2

    deadline = time.time() + RUN_LIMIT_S
    sessions = run_sessions(WORKLOADS[args.workload], args.seed, args.seconds,
                            args.trace, deadline)
    with contextlib.suppress(OSError):
        WORK.rmdir()            # only when no other run is using it
    ops = [op for s in sessions
           for op in s["ops"] + s.get("untraced_ops", [])]
    metrics = per_layer(sessions) if args.trace else end_to_end(sessions)
    for op in ops:
        if op["problems"]:
            print("failed op %d: %s" % (op["pos"], "; ".join(op["problems"])),
                  file=sys.stderr)
            break
    print("env " + json.dumps(sessions[0]["env"], sort_keys=True))
    print(json.dumps({
        "correct": not any(op["wrong"] for op in ops),
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
