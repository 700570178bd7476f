"""The benchmark's four workloads: scene sizes, solver settings, sessions.

Kept free of numpy so that run.py can read it without importing the
program's dependencies.

Scenes are the repository's acceptance-protocol scenes (``simulate`` seeds
listed in ``scenes``; the initialisation seed equals the scene seed).  Each
session of a run holds one scene: session ``i`` holds ``scenes[i %
len(scenes)]``.  Where ``permute`` is set, the benchmark's ``--seed`` draws
a pixel permutation of every scene, and the uniform initial abundances are
permuted with it, so each seed runs the same solves on different arrays.
Scene seeds are not drawn from ``--seed``: between scenes the iteration
count varies 30-fold (11 to 330 at 224x500) and some scenes stall, so
per-run timings would measure the scene draw rather than the program.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "protocol", "large" or "cli"
    sessions: int             # fresh processes per run, one after another
    l: int
    k: int
    n: int
    density: float
    sigma: float
    r: int
    scenes: tuple
    init: str = "uniform"     # "uniform" or "vca"
    delta: float | None = None
    max_iter: int | None = None
    tol_rel_cost: float | None = None
    permute: bool = True      # does --seed draw a pixel permutation?

    def solver_kwargs(self, seed):
        """SolverConfig keyword arguments; unset fields keep the defaults."""
        kwargs = {"r": self.r, "seed": seed}
        for key in ("delta", "max_iter", "tol_rel_cost"):
            if getattr(self, key) is not None:
                kwargs[key] = getattr(self, key)
        return kwargs


WORKLOADS = {
    w.name: w
    for w in (
        # The headline simulated protocol: all ten scenes of the uniform
        # acceptance gate, one session each.  Short converging solves,
        # working set in cache.
        Workload("uniform-k500", "protocol", 10, 224, 500, 4, 0.3, 1e-3, 10,
                 scenes=tuple(range(10))),
        # The VCA acceptance protocol.  Its ten scenes take 27 s, too long
        # for one run, so a run takes three of them, one session each:
        # seed 0 (261 iterations, the reference case), 3 (96) and 8 (66).
        Workload("vca-k900", "protocol", 3, 224, 900, 3, 0.5, 1e-3, 8,
                 scenes=(0, 3, 8), init="vca"),
        # Memory-bound.  Scene 0 stalls at iteration 4 (both line searches
        # reject every trial) and reports converged, so every operation
        # fails the stall check until the solver is fixed; its input is
        # kept independent of --seed so that the failed share is the same
        # in every run.
        Workload("large-k100k", "large", 2, 224, 100_000, 4, 0.3, 1e-3, 10,
                 scenes=(0,), max_iter=8, tol_rel_cost=0.0, permute=False),
        # The file path: synth writes the scene, then each operation runs
        # `unmix` and `eval` as fresh processes on synth's files as
        # written, so --seed does not change them.  delta = 12 * K / 500.
        Workload("cli-k5000", "cli", 2, 224, 5000, 4, 0.3, 1e-3, 10,
                 scenes=(0,), delta=120.0, permute=False),
    )
}
