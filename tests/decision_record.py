"""Decision record of the acceptance and stall scenes, and the script that
writes it.  The scenes are defined here once; the tests take them from here.

``decision_record.json`` holds, for each scene of the two acceptance
protocols (uniform init at 224 x 500, r = 10; VCA init at 224 x 900,
r = 8; seeds 0-9 each) and for each of the stall scenes (``STALLS``),
what the solver decided: the iteration count,
the rank trace, the line searches' accepted trials, the surviving
columns and ``converged``, with the final cost and mean SAM.  A trial
count n says the search accepted beta = beta_init * shrink**(n - 1); 0
says it accepted none.  ``tests/test_acceptance.py`` compares the runs it
makes against the record: decisions exactly, cost and SAM within 1e-12
relative.

A change that moves results on purpose rewrites the record, from the
repository root, with one BLAS thread (results differ bitwise between
thread counts)::

    PYTHONPATH=src python tests/decision_record.py [--decisions]

It prints every final cost and mean SAM that moved, with its recorded
value, its new one and their relative gap.  When a decision moved (any
other field, or the set of scenes) it prints those too and exits 1 with
the record left as it is, unless ``--decisions`` allows the move.
"""

import argparse
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # Before numpy loads; tests/conftest.py pins the same for tier-1.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

from slrnmf.initializers import init_uniform, init_vca, nnls_abundances  # noqa: E402
from slrnmf.metrics import evaluate_unmixing  # noqa: E402
from slrnmf.solver import SolverConfig, solve  # noqa: E402
from slrnmf.synth import simulate  # noqa: E402

RECORD_PATH = Path(__file__).with_name("decision_record.json")
KINDS = ("uniform", "vca")
SEEDS = range(10)
# Uniform-init scenes that end away from a stationary point, by name:
# seeds 31, 37 and 38 of the protocol stop with neither block moving;
# seed 2 at K = 250 and seed 4 at K = 2000 and 5000 (otherwise the
# protocol's settings), and scene 0 with Y times 10, stop with one block
# frozen yet report convergence.
STALLS = {
    "uniform-31": dict(seed=31),
    "uniform-37": dict(seed=37),
    "uniform-38": dict(seed=38),
    "uniform-k250-2": dict(seed=2, k=250),
    "uniform-k2000-4": dict(seed=4, k=2000),
    "uniform-k5000-4": dict(seed=4, k=5000),
    "uniform-0-y10": dict(seed=0, scale=10.0),
}
# Relative tolerance on the recorded cost and SAM.
RTOL = 1e-12
# The recorded fields that are values, not decisions.
VALUES = ("final_cost", "mean_sam_deg")


def scene(kind, seed, k=500, scale=1.0):
    """(y, truth, phi0, w0, config) of one scene of a protocol, ``kind``
    "uniform" or "vca"; a uniform scene may take another pixel count
    ``k``, and ``scale`` multiplies its observations."""
    if kind == "uniform":
        y, truth = simulate(l=224, k=k, n=4, density=0.3, sigma=1e-3,
                            seed=seed)
        phi0, w0 = init_uniform(224, k, 10, seed=seed)
        return y * scale, truth, phi0, w0, SolverConfig(r=10, seed=seed)
    y, truth = simulate(l=224, k=900, n=3, density=0.5, sigma=1e-3, seed=seed)
    phi0 = init_vca(y, 8, seed=seed)
    return y, truth, phi0, nnls_abundances(y, phi0), SolverConfig(r=8, seed=seed)


def run_scene(kind, seed, **options):
    """Solve one scene (see :func:`scene`); returns (phi, w, report, mean SAM)."""
    y, truth, phi0, w0, config = scene(kind, seed, **options)
    phi, w, report = solve(y, phi0, w0, config)
    sam = (evaluate_unmixing(phi, truth.phi_true, w, truth.w_true)
           .mean_sam_degrees if phi.shape[1] else None)
    return phi, w, report, sam


def _trials(beta, config):
    """Line-search trials up to the accepted ``beta``; 0 if none was."""
    if beta == 0.0:
        return 0
    trial, n = config.beta_init, 1
    while trial != beta:
        trial *= config.shrink
        n += 1
        if n > config.max_backtracks:
            raise ValueError("beta %r is not on the backtracking schedule"
                             % beta)
    return n


def scene_record(report, sam):
    """The record of one solve: its decisions, final cost and mean SAM."""
    return {
        "iterations": report.iterations,
        "rank_trace": report.effective_rank_trace.tolist(),
        "beta_w_trials": [_trials(b, report.config) for b in report.beta_w_trace],
        "beta_phi_trials": [_trials(b, report.config)
                            for b in report.beta_phi_trace],
        "surviving_columns": report.surviving_columns.tolist(),
        "converged": report.converged,
        "final_cost": report.final_cost,
        "mean_sam_deg": sam,
    }


def records_of(runs):
    """Scene name -> record, from ``runs[kind]``, run_scene's returns by
    seed, and ``runs["stalls"]``, by name."""
    records = {"%s-%d" % (kind, seed): scene_record(report, sam)
               for kind in KINDS
               for seed, (_, _, report, sam) in zip(SEEDS, runs[kind])}
    for name, (_, _, report, sam) in runs["stalls"].items():
        records[name] = scene_record(report, sam)
    return records


def run_stalls():
    """run_scene's returns for the ``STALLS`` scenes, by name."""
    return {name: run_scene("uniform", **options)
            for name, options in STALLS.items()}


def differences(records, expected):
    """Where ``records`` departs from ``expected``, one line per field."""
    lines = ["%s: not recorded" % name for name in records
             if name not in expected]
    lines += ["%s: recorded but not run" % name for name in expected
              if name not in records]
    for name in records.keys() & expected.keys():
        for field, want in expected[name].items():
            got = records[name][field]
            if field in ("final_cost", "mean_sam_deg") and None not in (got, want):
                same = abs(got - want) <= RTOL * abs(want)
            else:
                same = got == want
            if same:
                continue
            if isinstance(want, list):
                # A trace: show where it departs, not all of it.
                at = next((i for i, (a, b) in enumerate(zip(got, want))
                           if a != b), min(len(got), len(want)))
                field += " from entry %d" % at
                got, want = got[at:at + 5], want[at:at + 5]
            lines.append("%s %s: %r, recorded %r" % (name, field, got, want))
    return sorted(lines)


def largest_gaps(records, expected):
    """The largest relative gaps from ``expected`` over the scenes both
    hold, and how many scenes are not bitwise the record.

    Returns (gaps, moved): ``gaps`` maps the final cost and the mean SAM
    each to (largest relative gap, its scene), the scene None where no
    gap is positive; ``moved`` counts the scenes whose cost or SAM is not
    exactly the recorded one.
    """
    gaps = {"final_cost": (0.0, None), "mean_sam_deg": (0.0, None)}
    moved = 0
    for name in sorted(records.keys() & expected.keys()):
        moved += any(records[name][field] != expected[name][field]
                     for field in gaps)
        for field in gaps:
            got, want = records[name][field], expected[name][field]
            if None not in (got, want) and want != 0.0:
                gap = abs(got - want) / abs(want)
                if gap > gaps[field][0]:
                    gaps[field] = (gap, name)
    return gaps, moved


def moved_values(records, expected):
    """One line per final cost or mean SAM of ``records`` that is not
    bitwise the one ``expected`` holds: recorded value, new value and
    their relative gap."""
    lines = []
    for name in sorted(records.keys() & expected.keys()):
        for field in VALUES:
            new, old = records[name][field], expected[name][field]
            if new == old:
                continue
            gap = (abs(new - old) / abs(old)
                   if None not in (new, old) and old != 0.0 else float("nan"))
            lines.append("%s %s: %r -> %r, relative gap %.1e"
                         % (name, field, old, new, gap))
    return lines


def moved_decisions(records, expected):
    """:func:`differences` in the decisions alone: every field but the
    final cost and mean SAM, and the set of scenes."""
    def blind(recs):
        return {name: {**record, **dict.fromkeys(VALUES)}
                for name, record in recs.items()}
    return differences(blind(records), blind(expected))


def load(path=RECORD_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write(records, path=RECORD_PATH):
    """One field per line, so a diff of the file names the fields that moved."""
    lines = []
    for name, record in records.items():
        fields = ",\n".join('  "%s": %s' % (field, json.dumps(value))
                            for field, value in record.items())
        lines.append('%s: {\n%s\n }' % (json.dumps(name), fields))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def rewrite(records, path=RECORD_PATH, decisions=False):
    """Write ``records`` over the record at ``path``, printing each moved
    cost and SAM; returns the exit status.  If a decision moved, it is
    printed too and, unless ``decisions``, the record is left as it is
    and the status is 1."""
    old = load(path) if path.exists() else {}
    for line in moved_values(records, old):
        print(line)
    changed = moved_decisions(records, old)
    for line in changed:
        print("decision moved: " + line)
    if changed and not decisions:
        print("%s left as it is: %d decision fields moved (--decisions "
              "allows that)" % (path, len(changed)))
        return 1
    write(records, path)
    print("wrote %s: %d scenes" % (path, len(records)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--decisions", action="store_true",
                        help="rewrite the record even if a decision moved")
    args = parser.parse_args(argv)
    runs = {kind: [run_scene(kind, seed) for seed in SEEDS] for kind in KINDS}
    records = records_of({**runs, "stalls": run_stalls()})
    return rewrite(records, decisions=args.decisions)


if __name__ == "__main__":
    sys.exit(main())
