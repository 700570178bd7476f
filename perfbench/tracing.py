"""Spans around the program's public functions, installed from outside.

A span records its name, the span open when it started, its wall time,
the minor page faults taken while it was open and, for ``io.load_matrix``,
the size of the file read.  Spans stay in memory; ``Tracer.totals`` folds
them into per-name sums (count, total and self seconds, faults, bytes, and
how often each name ran directly under each other name).

Run as a script, this module is the traced stand-in for
``python -m slrnmf.cli``: it times ``import slrnmf.cli`` in its fresh
interpreter, runs the command with spans installed and writes the import
time and the totals to a JSON file::

    python3 perfbench/tracing.py TOTALS.json unmix --input obs.csv --r 10 ...
"""

import contextlib
import functools
import importlib
import json
import os
import resource
import sys
import time

# span name -> (module, attribute); calls made through these attributes are
# traced, which covers the solver's own calls to its module-level steps.
POINTS = {
    "model.cost_eval": ("slrnmf.model", "Objective.total"),
    "solver.solve": ("slrnmf.solver", "solve"),
    "solver.update_w": ("slrnmf.solver", "update_abundances"),
    "solver.update_phi": ("slrnmf.solver", "update_endmembers"),
    "solver.irls": ("slrnmf.solver", "update_penalty_diag"),
    "solver.prune": ("slrnmf.solver", "prune_and_report_rank"),
    "solver.line_search": ("slrnmf.solver", "line_search"),
    "initializers.vca": ("slrnmf.initializers", "init_vca"),
    "initializers.nnls": ("slrnmf.initializers", "nnls_abundances"),
    "synth.simulate": ("slrnmf.synth", "simulate"),
    "metrics.evaluate": ("slrnmf.metrics", "evaluate_unmixing"),
    "io.load_matrix": ("slrnmf.io", "load_matrix"),
    "io.save_matrix": ("slrnmf.io", "save_matrix"),
    "io.report": ("slrnmf.io", "write_report"),
    "cli.run": ("slrnmf.cli", "run"),
}


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self):
        self.spans = []       # [name, parent index, start, end, minflt, bytes]
        self._stack = []

    def _open(self, name):
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter(), 0.0, _minflt(), 0])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[3] = time.perf_counter()
        span[4] = _minflt() - span[4]
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "io.load_matrix":
                span[5] = os.path.getsize(args[0])
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every point in POINTS for the duration of the block."""
        undo = []
        try:
            for name, (module, attr) in POINTS.items():
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                setattr(owner, leaf, self._wrap(name, original))
                undo.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def totals(self):
        out = {}
        for name, parent, start, end, faults, nbytes in self.spans:
            t = out.setdefault(name, new_total())
            t["count"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start
            t["minflt"] += faults
            t["bytes"] += nbytes
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname]["self_s"] -= end - start
                t["under"][pname] = t["under"].get(pname, 0) + 1
        return out


def new_total():
    return {"count": 0, "total_s": 0.0, "self_s": 0.0, "minflt": 0,
            "bytes": 0, "under": {}}


def merge_totals(into, other):
    """Add the per-name totals ``other`` into ``into``; returns ``into``."""
    for name, t in other.items():
        m = into.setdefault(name, new_total())
        for key in ("count", "total_s", "self_s", "minflt", "bytes"):
            m[key] += t[key]
        for pname, count in t["under"].items():
            m["under"][pname] = m["under"].get(pname, 0) + count
    return into


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import slrnmf.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    with tracer.installed():
        status = slrnmf.cli.run(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "totals": tracer.totals()}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
