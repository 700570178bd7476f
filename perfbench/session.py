"""One fresh-process session of a benchmark workload.

run.py starts a workload's sessions one after another, each in a fresh
interpreter with one BLAS thread::

    python3 perfbench/session.py --workload NAME --seed N --scene I \
        --seconds S --trace 0|1 --spawned UNIX_TIME --work DIR

A session holds one scene, as a user's process that unmixes one scene
does.  It builds that scene from the seed and warms up (together, its
set-up), then repeats the scene's operation until the operations have
taken ``--seconds``.  Every operation's outputs are checked (checks.py);
the checks are not timed.  With ``--trace 1`` the session spends half the
time untraced and half traced (spans from tracing.py).  The last stdout
line is one JSON object for run.py.

Holding one scene matters: in a process that holds one 224x500 scene,
every cost evaluation takes about 400 minor page faults, while a process
that has allocated a second scene takes almost none (see README.md).

With ``--write-scene SPEC_JSON`` the process only simulates the scene and
writes it as .npy files into ``--work``.  ``large`` sessions run that in a
child, so that only Y is in their own memory.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from slrnmf import initializers, metrics, solver, synth

import checks
import tracing
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
# The warm-up solve uses this many leading pixels: 224 x 50 doubles stay
# below glibc's initial 128 KiB mmap threshold, so the warm-up does not
# change how the operations' large temporaries are allocated.
WARM_UP_PIXELS = 50


@dataclasses.dataclass
class Scene:
    seed: int
    y: np.ndarray
    phi_true: np.ndarray
    w_true: np.ndarray
    perm: np.ndarray | None


@dataclasses.dataclass
class Context:
    spec: object
    pos: int                  # index of the session's scene in spec.scenes
    work: Path
    scene: Scene | None = None
    traced: bool = False
    totals: dict = dataclasses.field(default_factory=dict)
    import_s: list = dataclasses.field(default_factory=list)


def op_record(pos, op_s, iterations, sam, problems, beta_w, beta_phi):
    beta_w = np.asarray(beta_w, float)
    beta_phi = np.asarray(beta_phi, float)
    return {
        "pos": pos, "op_s": op_s, "iterations": int(iterations),
        "sam": float(sam), "failed": bool(problems),
        "wrong": checks.is_wrong(problems),
        "problems": [msg for _, msg in problems][:3],
        "moved": int(np.count_nonzero(beta_w) + np.count_nonzero(beta_phi)),
        "stalls": int(np.count_nonzero((beta_w == 0.0) & (beta_phi == 0.0))),
    }


# --- solves through the Python API ("protocol" and "large") ---------------

def make_scene(spec, pos, seed):
    """Scene ``spec.scenes[pos]``, its pixels permuted by ``seed``."""
    s = spec.scenes[pos]
    y, truth = synth.simulate(spec.l, spec.k, spec.n, spec.density,
                              spec.sigma, s)
    w_true = truth.w_true
    perm = None
    if spec.permute:
        # One permutation per scene, the same whichever session draws it.
        perm = np.random.default_rng([seed, pos]).permutation(spec.k)
        # Row by row, in place: a whole-matrix copy would free the original
        # Y, which raises glibc's mmap threshold and takes the process out
        # of the page-faulting regime of a process that simulates a scene
        # and solves it.
        for row in y:
            row[:] = row[perm]
        w_true = w_true[perm]
    return Scene(s, y, truth.phi_true, w_true, perm)


SCENE_FILES = ("y", "phi_true", "w_true")


def write_scene(spec, pos, seed, work, trace):
    tracer = tracing.Tracer()
    with tracer.installed() if trace else contextlib.nullcontext():
        scene = make_scene(spec, pos, seed)
    for name in SCENE_FILES:
        np.save(work / (name + ".npy"), getattr(scene, name))
    if trace:
        with open(work / "scene_totals.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.totals(), fh)


def scene_from_child(ctx, seed):
    """Build the scene in a child process and load it from .npy files.

    ``simulate`` holds the noiseless product, the noise and Y at once;
    doing that in a child keeps it out of this session's peak RSS.
    """
    cmd = [sys.executable, str(HERE / "session.py"), "--workload",
           ctx.spec.name, "--seed", str(seed), "--seconds", "0",
           "--scene", str(ctx.pos), "--trace", str(int(ctx.traced)),
           "--work", str(ctx.work),
           "--write-scene", json.dumps(dataclasses.asdict(ctx.spec))]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("scene child failed (%d): %s"
                           % (proc.returncode, proc.stderr.strip()))
    arrays = [np.load(ctx.work / (name + ".npy")) for name in SCENE_FILES]
    if ctx.traced:
        with open(ctx.work / "scene_totals.json", encoding="utf-8") as fh:
            tracing.merge_totals(ctx.totals, json.load(fh))
    return Scene(ctx.spec.scenes[ctx.pos], *arrays, None)


def solve_op(ctx, spec=None, scene=None):
    spec = spec or ctx.spec
    scene = scene or ctx.scene
    last = {}

    def keep(state):
        last["state"] = state

    config = solver.SolverConfig(**spec.solver_kwargs(scene.seed))
    t0 = time.perf_counter()
    if spec.init == "vca":
        phi0 = initializers.init_vca(scene.y, spec.r, scene.seed)
        w0 = initializers.nnls_abundances(scene.y, phi0)
    else:
        phi0, w0 = initializers.init_uniform(spec.l, spec.k, spec.r, scene.seed)
        if scene.perm is not None:
            w0 = w0[scene.perm]
    phi, w, report = solver.solve(scene.y, phi0, w0, config, callback=keep)
    if spec.kind == "protocol":
        result = metrics.evaluate_unmixing(phi, scene.phi_true, w, scene.w_true)
    op_s = time.perf_counter() - t0
    if spec.kind != "protocol":
        result = metrics.evaluate_unmixing(phi, scene.phi_true, w, scene.w_true)

    cfg = report.config
    state = last["state"]
    problems = (
        checks.factor_problems(phi, w, report.final_effective_rank,
                               spec.l, spec.k)
        + checks.trace_problems(report.initial_cost, report.cost_trace)
        + checks.cost_problems(report.final_cost, checks.objective(
            scene.y, state.phi_hat, state.w_hat, cfg.delta, cfg.lambda1,
            cfg.eta))
        + checks.stall_problems(report.converged, report.beta_w_trace,
                                report.beta_phi_trace)
        + checks.sam_problems(phi, scene.phi_true, result.mean_sam_degrees))
    if spec.kind == "protocol":
        problems += checks.rank_problems(report.final_effective_rank, spec.n)
    return op_record(ctx.pos, op_s, report.iterations, result.mean_sam_degrees,
                     problems, report.beta_w_trace, report.beta_phi_trace)


def warm_up_solve(ctx):
    # Loads the lazily imported LAPACK and assignment code paths on a small
    # slice, so that the first timed operation does not pay for them.
    scene = ctx.scene
    p = min(WARM_UP_PIXELS, ctx.spec.k)
    spec = dataclasses.replace(ctx.spec, k=p, max_iter=2)
    small = Scene(scene.seed, np.ascontiguousarray(scene.y[:, :p]),
                  scene.phi_true, scene.w_true[:p], None)
    solve_op(ctx, spec, small)


# --- the command line ("cli") ----------------------------------------------

def run_cli(ctx, args):
    """Run one ``slrnmf.cli`` command in a fresh interpreter.

    Traced sessions run it under tracing.py and merge its span totals.
    Returns (exit status, stderr text).
    """
    args = [str(a) for a in args]
    if ctx.traced:
        dump = ctx.work / "child_totals.json"
        cmd = [sys.executable, str(HERE / "tracing.py"), str(dump)] + args
    else:
        cmd = [sys.executable, "-m", "slrnmf.cli"] + args
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if ctx.traced and proc.returncode == 0:
        with open(dump, encoding="utf-8") as fh:
            child = json.load(fh)
        tracing.merge_totals(ctx.totals, child["totals"])
        ctx.import_s.append(child["import_s"])
    return proc.returncode, proc.stderr.strip()


def cli_paths(work):
    return {
        "truth": work / "truth",
        "out": work / "out",
        "eval": work / "eval.txt",
    }


def cli_setup(ctx):
    """Write the scene with ``slrnmf synth``, as a user of the files would."""
    spec = ctx.spec
    paths = cli_paths(ctx.work)
    scene_seed = spec.scenes[ctx.pos]
    status, err = run_cli(ctx, [
        "synth", "--L", spec.l, "--K", spec.k, "--N", spec.n,
        "--density", repr(spec.density), "--sigma", repr(spec.sigma),
        "--seed", scene_seed, "--out-dir", paths["truth"]])
    if status != 0:
        raise RuntimeError("slrnmf synth failed (%d): %s" % (status, err))


def cli_scene(ctx):
    """The written scene, read back for the checks (not part of set-up)."""
    truth = cli_paths(ctx.work)["truth"]
    y, phi_true, w_true = (
        np.loadtxt(truth / name, delimiter=",", ndmin=2)
        for name in ("observations.csv", "endmembers_true.csv",
                     "abundances_true.csv"))
    return Scene(ctx.spec.scenes[ctx.pos], y, phi_true, w_true, None)


def read_flat_report(path):
    """Read a ``key = value`` report: numbers, booleans, strings, flat lists."""
    def value(text):
        if text.startswith("["):
            body = text[1:-1].strip()
            return [value(t.strip()) for t in body.split(",")] if body else []
        if text in ("true", "false"):
            return text == "true"
        if text.startswith('"') or text == "none":
            return text.strip('"')
        return float(text)

    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, text = line.strip().partition(" = ")
            if sep and not key.startswith("#"):
                values[key] = value(text.strip())
    return values


def cli_op(ctx):
    spec = ctx.spec
    scene = ctx.scene
    paths = cli_paths(ctx.work)
    out = paths["out"]
    t0 = time.perf_counter()
    unmix = run_cli(ctx, [
        "unmix", "--input", paths["truth"] / "observations.csv", "--r", spec.r,
        "--delta", repr(spec.delta), "--seed", scene.seed, "--out-dir", out])
    scored = run_cli(ctx, [
        "eval", "--estimated", out / "endmembers.csv",
        "--reference", paths["truth"] / "endmembers_true.csv",
        "--est-abundances", out / "abundances.csv",
        "--ref-abundances", paths["truth"] / "abundances_true.csv",
        "--out", paths["eval"]])
    op_s = time.perf_counter() - t0

    failures = [("error", "slrnmf %s exited %d: %s" % (name, status, err))
                for name, (status, err) in (("unmix", unmix), ("eval", scored))
                if status != 0]
    if failures:
        return op_record(ctx.pos, op_s, 0, float("nan"), failures, [], [])
    rep = read_flat_report(out / "report.txt")
    phi = np.loadtxt(out / "endmembers.csv", delimiter=",", ndmin=2)
    w = np.loadtxt(out / "abundances.csv", delimiter=",", ndmin=2)
    rank = int(rep["result.final_effective_rank"])
    sam = read_flat_report(paths["eval"])["metrics.mean_sam_degrees"]
    delta, lambda1, eta = (rep["config.delta"], rep["config.lambda1"],
                           rep["config.eta"])
    # The CSVs hold the surviving columns only; each pruned column adds
    # delta * sqrt(e^2 + eta^2) with e below prune_tol of the largest
    # column energy, counted here as delta * eta.
    own = (checks.objective(scene.y, phi, w, delta, lambda1, eta)
           + (int(rep["config.r"]) - rank) * delta * eta)
    problems = (
        checks.factor_problems(phi, w, rank, spec.l, spec.k)
        + checks.trace_problems(rep["result.initial_cost"], rep["trace.cost"])
        + checks.cost_problems(rep["result.final_cost"], own)
        + checks.stall_problems(rep["result.converged"], rep["trace.beta_w"],
                                rep["trace.beta_phi"])
        + checks.sam_problems(phi, scene.phi_true, sam))
    return op_record(ctx.pos, op_s, rep["result.iterations"], sam, problems,
                     rep["trace.beta_w"], rep["trace.beta_phi"])


# --- operations and the session -------------------------------------------

def run_op(ctx):
    """One operation on the session's scene; one that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        return cli_op(ctx) if ctx.spec.kind == "cli" else solve_op(ctx)
    except Exception as exc:
        traceback.print_exc()
        return op_record(ctx.pos, time.perf_counter() - t0, 0, float("nan"),
                         [("error", repr(exc))], [], [])


def run_ops(ctx, budget_s):
    """Operations until they have taken ``budget_s`` seconds; at least one."""
    ops = []
    spent = 0.0
    while True:
        ops.append(run_op(ctx))
        spent += ops[-1]["op_s"]
        if spent >= budget_s:
            return ops


def blas_threads():
    """Thread counts reported by every OpenBLAS library loaded in-process."""
    counts = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        # numpy's 64-bit-integer build and scipy's 32-bit one
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                counts[os.path.basename(path)] = getter()
                break
    return counts


def environment():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb(kind):
    who = resource.RUSAGE_CHILDREN if kind == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def run_session(spec, pos, seed, seconds, trace, work, spawned=None):
    """Set up, run and check one session on scene ``spec.scenes[pos]``.

    Returns the JSON-ready result.
    """
    t0 = time.time() if spawned is None else spawned
    ctx = Context(spec, pos, work, traced=bool(trace))
    setup_tracer = tracing.Tracer()
    with setup_tracer.installed() if trace else contextlib.nullcontext():
        if spec.kind == "cli":
            cli_setup(ctx)
        else:
            if spec.kind == "large":
                ctx.scene = scene_from_child(ctx, seed)
            else:
                ctx.scene = make_scene(spec, pos, seed)
            warm_up_solve(ctx)
    setup_s = time.time() - t0
    if spec.kind == "cli":
        ctx.scene = cli_scene(ctx)
    setup_totals = tracing.merge_totals(setup_tracer.totals(), ctx.totals)
    ctx.totals = {}
    ctx.import_s = []
    ctx.traced = False

    out = {"setup_s": setup_s}
    if not trace:
        out["ops"] = run_ops(ctx, seconds)
    else:
        out["untraced_ops"] = run_ops(ctx, seconds / 2)
        tracer = tracing.Tracer()
        ctx.traced = True
        with tracer.installed():
            out["ops"] = run_ops(ctx, seconds / 2)
        out["totals"] = tracing.merge_totals(tracer.totals(), ctx.totals)
        out["setup_totals"] = setup_totals
        out["import_s"] = ctx.import_s
    out["peak_rss_mb"] = peak_rss_mb(spec.kind)
    out["env"] = environment()
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, default=None,
                   help="time.time() at which the parent started this process")
    p.add_argument("--scene", type=int, default=0,
                   help="index of the session's scene in the workload")
    p.add_argument("--work", required=True,
                   help="scratch directory for this session's files")
    p.add_argument("--write-scene", metavar="SPEC_JSON", default=None,
                   help="only write the scene of this workload spec as .npy "
                   "files into --work")
    args = p.parse_args(argv)
    spec = WORKLOADS[args.workload]
    work = Path(args.work)
    if args.write_scene:
        fields = json.loads(args.write_scene)
        fields["scenes"] = tuple(fields["scenes"])
        write_scene(Workload(**fields), args.scene, args.seed, work,
                    args.trace)
        return 0
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = run_session(spec, args.scene, args.seed, args.seconds,
                          args.trace, work, args.spawned)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
