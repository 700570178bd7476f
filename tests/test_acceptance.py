"""Acceptance gate: reference-scale recovery plus numerical contracts.

Each test covers one acceptance property end to end and records a
PASS/FAIL line that conftest prints in the terminal summary.  The
reference-scale protocols run the full solver, so this module takes a
few tens of seconds.
"""

import hashlib
import time

import numpy as np
import pytest

import conftest
import decision_record
import oracles
from slrnmf.initializers import init_uniform, init_vca
from slrnmf.io import load_matrix, read_report, report_values, save_matrix, write_report
from slrnmf.model import Objective
from slrnmf.cli import run
from slrnmf.solver import (
    SolverConfig,
    solve,
    update_penalty_diag,
    with_defaults,
)
from slrnmf.synth import simulate

RESULTS = []


def record(name, ok, detail):
    RESULTS.append((name, bool(ok), detail))
    return bool(ok)


# --- reference-scale protocols (shared with the decision record) ------------

_protocols = {}


def protocol(kind):
    """The 10 seeds of an acceptance protocol, solved once per test run:
    ``"uniform"`` (4 sources, uniform init) or ``"vca"`` (3 sources, VCA
    init).  Returns ([(phi, w, report, mean SAM)] by seed, seconds)."""
    if kind not in _protocols:
        t0 = time.time()
        runs = [decision_record.run_scene(kind, seed)
                for seed in decision_record.SEEDS]
        _protocols[kind] = (runs, time.time() - t0)
    return _protocols[kind]


def test_rank_recovery_uniform_init():
    runs, elapsed = protocol("uniform")
    hits = sum(report.final_effective_rank == 4 for _, _, report, _ in runs)
    ok = hits >= 8 and elapsed < 120.0
    detail = "%d/10 seeds at rank 4, %.1f s" % (hits, elapsed)
    record("rank recovery, 4 sources, uniform init, defaults", ok, detail)
    assert hits >= 8, detail
    assert elapsed < 120.0, detail


def test_recovered_signature_quality():
    runs, _ = protocol("uniform")
    sams = [sam for _, _, report, sam in runs
            if report.final_effective_rank == 4]
    worst = max(sams) if sams else float("inf")
    mean = float(np.mean(sams)) if sams else float("inf")
    ok = bool(sams) and worst < 5.0
    detail = "mean SAM %.2f deg, worst %.2f deg over %d recovered seeds" % (
        mean, worst, len(sams))
    record("endmember angles on recovered seeds < 5 deg", ok, detail)
    assert ok, detail


def test_rank_recovery_vca_init():
    runs, elapsed = protocol("vca")
    hits = sum(report.final_effective_rank == 3 for _, _, report, _ in runs)
    ok = hits >= 8
    detail = "%d/10 seeds at rank 3, %.1f s" % (hits, elapsed)
    record("rank recovery, 3 sources, vca init, defaults", ok, detail)
    assert ok, detail


def test_decisions_match_the_record():
    """The 20 protocol runs and the stall scenes decide as
    ``decision_record.json`` records: iterations, rank and trial traces,
    survivors and ``converged`` exactly, final cost and mean SAM within
    1e-12 relative.  The summary line carries the largest relative cost
    and SAM gaps with their scenes, to read against that tolerance, the
    number of scenes whose cost or SAM is not bitwise the record's, and a
    SHA-256 over all factors, for bitwise comparison between two checkouts
    on one machine."""
    runs = {kind: protocol(kind)[0] for kind in decision_record.KINDS}
    runs["stalls"] = decision_record.run_stalls()
    records = decision_record.records_of(runs)
    digest = hashlib.sha256()
    for phi, w, _, _ in [*(run for kind in decision_record.KINDS
                           for run in runs[kind]), *runs["stalls"].values()]:
        digest.update(phi.tobytes())
        digest.update(w.tobytes())
    expected = decision_record.load()
    problems = decision_record.differences(records, expected)
    gaps, moved = decision_record.largest_gaps(records, expected)
    ok = not problems
    detail = ("%d scenes, %d fields off the record; largest relative gaps: "
              "cost %.1e (%s), SAM %.1e (%s) (RTOL %.0e); %d scenes' cost or "
              "SAM not bitwise the record's; factors sha256 %s"
              % (len(records), len(problems), *gaps["final_cost"],
                 *gaps["mean_sam_deg"], decision_record.RTOL, moved,
                 digest.hexdigest()))
    record("decisions match tests/decision_record.json", ok, detail)
    # Other kernel sets sum in other orders: name the one this run used.
    assert ok, "\n".join([conftest.blas_line(), *problems])


def test_record_rewrite_cannot_move_decisions_silently(tmp_path, capsys):
    """The record's rewrite lists each moved cost and SAM with its old
    value, new value and relative gap, and writes; when a decision moved
    it lists that, exits 1 and leaves the file as it is, unless
    ``decisions`` allows the move."""
    records = decision_record.load()
    path = tmp_path / "record.json"
    old = {name: dict(rec) for name, rec in records.items()}
    old["vca-2"]["final_cost"] = records["vca-2"]["final_cost"] * (1 + 1e-13)
    decision_record.write(old, path)
    assert decision_record.rewrite(records, path) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "vca-2 final_cost: %r -> %r, relative gap 1.0e-13" % (
        old["vca-2"]["final_cost"], records["vca-2"]["final_cost"])
    assert out[1:] == ["wrote %s: 27 scenes" % path]
    assert decision_record.load(path) == records

    old["uniform-3"]["iterations"] += 1
    decision_record.write(old, path)
    before = path.read_bytes()
    assert decision_record.rewrite(records, path) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("vca-2 final_cost: ")
    assert out[1] == "decision moved: uniform-3 iterations: %d, recorded %d" % (
        records["uniform-3"]["iterations"], old["uniform-3"]["iterations"])
    assert "left as it is" in out[2] and len(out) == 3
    assert path.read_bytes() == before
    assert decision_record.rewrite(records, path, decisions=True) == 0
    assert decision_record.load(path) == records


def test_monotone_descent_on_random_instances():
    worst_rise = 0.0
    for t in range(50):
        rng = np.random.default_rng(9000 + t)
        l = int(rng.integers(5, 21))
        k = int(rng.integers(6, 41))
        r = int(rng.integers(2, 7))
        n = min(int(rng.integers(1, r + 1)), min(l, k))
        y = np.maximum(
            rng.uniform(0, 1, (l, n)) @ rng.uniform(0, 1, (k, n)).T
            + rng.normal(0.0, 0.02, (l, k)), 0.0)
        phi0, w0 = init_uniform(l, k, r, seed=t)
        config = SolverConfig(
            r=r,
            delta=float(rng.uniform(0.01, 1.0)),
            lambda1=float(rng.uniform(0.0, 0.05)),
            eta=float(rng.uniform(0.01, 0.3)),
            beta_init=float(rng.choice([1.0, 0.7])),
            max_iter=60)
        _, _, report = solve(y, phi0, w0, config)
        trace = np.concatenate([[report.initial_cost], report.cost_trace])
        rises = np.diff(trace) / np.maximum(np.abs(trace[:-1]), 1e-300)
        worst_rise = max(worst_rise, float(rises.max(initial=0.0)))
    ok = worst_rise <= 5e-12  # accept-rule slack is 1e-12 per block step
    detail = "max relative rise %.2e over 50 instances" % worst_rise
    record("cost trace non-increasing on 50 random instances", ok, detail)
    assert ok, detail


def test_gradients_match_finite_differences():
    from slrnmf.model import cost_total

    worst = 0.0
    for t in range(20):
        rng = np.random.default_rng(7000 + t)
        l = int(rng.integers(4, 13))
        k = int(rng.integers(5, 15))
        r = int(rng.integers(2, 4))
        y = rng.uniform(0, 1, (l, k))
        phi = rng.uniform(0.05, 1, (l, r))
        w = rng.uniform(0.05, 1, (k, r))
        delta = float(rng.uniform(0.05, 1.0))
        eta = float(rng.uniform(0.05, 0.3))
        gw, gp = oracles.solver_gradients(y, phi, w, delta, eta)
        fw = oracles.fd_gradient(lambda v: cost_total(y, phi, v, delta, 0.0, eta), w)
        fp = oracles.fd_gradient(lambda v: cost_total(y, v, w, delta, 0.0, eta), phi)
        err_w = np.linalg.norm(gw - fw) / max(np.linalg.norm(fw), 1e-12)
        err_p = np.linalg.norm(gp - fp) / max(np.linalg.norm(fp), 1e-12)
        worst = max(worst, err_w, err_p)
    ok = worst <= 1e-5
    detail = "worst relative error %.2e over 20 instances" % worst
    record("analytic gradients vs central differences", ok, detail)
    assert ok, detail


def test_soft_threshold_against_grid_search():
    """The abundance step's shrinkage is the nonnegative l1 prox: with
    Phi = [1] and D = 0 its Newton target is z itself."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        z = float(rng.uniform(-4.0, 4.0))
        lam = float(rng.uniform(0.0, 2.0))
        step = oracles.abundance_step(Objective([[z]], 1.0, lam, 1.0), np.ones((1, 1)),
                                      np.zeros((1, 1)), np.zeros(1), np.array([[z]]))[0]
        ours = float(step[0, 0])
        ref = oracles.prox_l1_grid(z, lam, lo=0.0)
        worst = max(worst, abs(ours - ref))
    ok = worst <= 1e-4
    detail = "worst gap %.2e over 1000 scalars at grid step 1e-4" % worst
    record("shrinkage equals grid-search prox", ok, detail)
    assert ok, detail


def test_block_updates_near_subproblem_oracles():
    """One inexact step lands within 5% of fully solved subproblems.

    Checked on well-posed states (factors near the truth, optimum mostly
    interior), the regime the closed-form step is designed for; far from
    such states the line search, not the raw step, guarantees progress.
    """
    worst_w = worst_p = 0.0
    for t in range(20):
        rng = np.random.default_rng(500 + t)
        l = int(rng.integers(8, 21))
        k = int(rng.integers(10, 41))
        n = int(rng.integers(2, 7))
        phi_t = rng.uniform(0, 1, (l, n))
        w_t = rng.uniform(0, 1, (k, n))
        w_t[rng.uniform(size=(k, n)) > 0.7] = 0.0
        y = np.maximum(phi_t @ w_t.T + rng.normal(0, 1e-2, (l, k)), 0)
        eta = with_defaults(SolverConfig(r=1), y).eta
        delta, lam = 0.5, 0.01
        phi_hat = np.maximum(phi_t + 0.05 * rng.normal(size=phi_t.shape), 0)
        w_hat = np.maximum(w_t + 0.05 * rng.normal(size=w_t.shape), 0)
        d = oracles.penalty_diag(phi_hat, w_hat, delta, eta)

        objective = Objective(y, 1.0, lam, 1.0)
        w_step = oracles.abundance_step(objective, phi_hat, w_hat, d)[0]
        m_step = oracles.subproblem_w_value(y, phi_hat, d, lam, w_step)
        m_opt = oracles.subproblem_w_value(
            y, phi_hat, d, lam, oracles.cd_w_oracle(y, phi_hat, d, lam))
        worst_w = max(worst_w, m_step / m_opt)

        phi_step = oracles.endmember_step(objective, phi_hat, w_hat, d)[0]
        p_step = oracles.subproblem_phi_value(y, w_hat, d, phi_step)
        p_opt = oracles.subproblem_phi_value(
            y, w_hat, d, oracles.pg_phi_oracle(y, w_hat, d))
        worst_p = max(worst_p, p_step / p_opt)
    ok = worst_w <= 1.05 and worst_p <= 1.05
    detail = ("worst abundance ratio %.4f, worst endmember ratio %.4f "
              "vs converged oracles" % (worst_w, worst_p))
    record("one-step updates within 5% of subproblem optima", ok, detail)
    assert ok, detail


def test_penalty_diag_bounds():
    ok = True
    checked = 0
    for t in range(25):
        rng = np.random.default_rng(300 + t)
        l = int(rng.integers(3, 15))
        k = int(rng.integers(3, 20))
        r = int(rng.integers(1, 8))
        phi = rng.uniform(0, 2, (l, r))
        w = rng.uniform(0, 2, (k, r))
        zero = int(rng.integers(0, r))
        phi[:, zero] = 0.0
        w[:, zero] = 0.0
        delta = float(rng.uniform(0.01, 5.0))
        eta = float(rng.choice([0.5, 0.25, 1.0, 2.0]))  # dyadic: delta/eta exact
        e_phi, e_w = oracles.column_energies(phi, w)
        d = update_penalty_diag(e_phi + e_w, delta, eta)
        ok = ok and (d > 0.0).all() and (d <= delta / eta).all()
        ok = ok and d[zero] == delta / eta
        checked += r
        # arbitrary eta stays within rounding of the closed-form bound
        eta2 = float(rng.uniform(0.01, 1.0))
        d2 = update_penalty_diag(e_phi + e_w, delta, eta2)
        bound = delta / eta2
        ok = ok and (d2 > 0.0).all()
        ok = ok and (d2 <= bound + 2 * np.spacing(bound)).all()
        ok = ok and abs(d2[zero] - bound) <= 2 * np.spacing(bound)
    detail = "%d diagonal entries in (0, delta/eta], zero columns exact" % checked
    record("reweighting diagonal bounds", ok, detail)
    assert ok, detail


def test_determinism_and_round_trip(tmp_path):
    flags = ["--L", "60", "--K", "80", "--N", "2", "--density", "0.5",
             "--sigma", "1e-3", "--source", "synthetic-smooth"]
    solver_flags = ["--r", "4", "--delta", "0.3", "--lambda1", "0.01",
                    "--eta", "0.05", "--max-iter", "60", "--seed", "1"]
    pairs = []
    for tag in ("a", "b"):
        sdir = tmp_path / ("synth_" + tag)
        fdir = tmp_path / ("fit_" + tag)
        assert run(["synth", *flags, "--seed", "3", "--out-dir", str(sdir)]) == 0
        assert run(["unmix", "--input", str(sdir / "observations.csv"),
                    *solver_flags, "--out-dir", str(fdir)]) == 0
        pairs.append((sdir, fdir))
    (sa, fa), (sb, fb) = pairs
    same_bytes = all(
        (da / name).read_bytes() == (db / name).read_bytes()
        for da, db, names in (
            (sa, sb, ("observations.csv", "endmembers_true.csv",
                      "abundances_true.csv")),
            (fa, fb, ("endmembers.csv", "abundances.csv")),
        )
        for name in names)
    with open(fa / "report.txt") as fh:
        rep_a = [ln for ln in fh if not ln.startswith("timing.")]
    with open(fb / "report.txt") as fh:
        rep_b = [ln for ln in fh if not ln.startswith("timing.")]

    rng = np.random.default_rng(0)
    m = rng.uniform(-1, 1, (9, 7)) * 10.0 ** rng.integers(-6, 7, (9, 7))
    save_matrix(tmp_path / "rt.csv", m)
    max_err = float(np.abs(load_matrix(tmp_path / "rt.csv") - m).max())

    y, _ = simulate(l=30, k=40, n=2, density=0.5, sigma=1e-3, seed=0,
                    source="synthetic-smooth")
    phi0, w0 = init_uniform(30, 40, 4, 0)
    _, _, report = solve(y, phi0, w0, SolverConfig(
        r=4, delta=0.3, lambda1=0.01, eta=0.05, max_iter=40))
    values = report_values(report)
    write_report(tmp_path / "rep.txt", values)
    back = read_report(tmp_path / "rep.txt")
    report_exact = all(
        np.array_equal(np.asarray(values[k], dtype=object),
                       np.asarray(back[k], dtype=object))
        for k in values)

    ok = same_bytes and rep_a == rep_b and max_err < 1e-12 and report_exact
    detail = ("reruns byte-identical %s, matrix round-trip max error %.1e, "
              "report fields exact %s" % (same_bytes, max_err, report_exact))
    record("determinism and save/load round-trip", ok, detail)
    assert same_bytes, "rerun outputs differ"
    assert rep_a == rep_b, "reports differ beyond timing"
    assert max_err < 1e-12, detail
    assert report_exact, "report round-trip changed a value"


def test_degenerate_inputs_run_clean():
    notes = []
    rng = np.random.default_rng(0)
    phi_t = np.zeros((8, 2))
    phi_t[:4, 0] = rng.uniform(0.5, 1.0, 4)
    phi_t[4:, 1] = rng.uniform(0.5, 1.0, 4)
    w_t = rng.uniform(0, 1, (10, 2))
    y = phi_t @ w_t.T
    phi0, w0 = init_uniform(8, 10, 2, 0)

    # no elementwise shrinkage
    _, _, rep = solve(y, phi0, w0, SolverConfig(
        r=2, delta=0.1, lambda1=0.0, eta=0.05, max_iter=50))
    notes.append("lambda1=0 rank %d" % rep.final_effective_rank)
    assert np.isfinite(rep.final_cost)

    # no group penalty at all (plain penalized-free alternating fit)
    _, _, rep = solve(y, phi0, w0, SolverConfig(
        r=2, delta=0.0, lambda1=0.0, eta=0.05, max_iter=50))
    notes.append("delta=0 rank %d" % rep.final_effective_rank)
    assert np.isfinite(rep.final_cost)
    assert rep.final_effective_rank == 2

    # noiseless synthesis is the exact product
    y0, truth = simulate(l=20, k=15, n=2, density=0.8, sigma=0.0, seed=1,
                         source="synthetic-smooth")
    assert np.array_equal(y0, truth.phi_true @ truth.w_true.T)
    notes.append("sigma=0 exact")

    # no iterations: report the (pruned) initial state
    _, _, rep = solve(y, phi0, w0, SolverConfig(
        r=2, delta=0.1, lambda1=0.01, eta=0.05, max_iter=0))
    assert rep.iterations == 0
    assert rep.cost_trace.size == 0
    assert rep.final_cost == rep.initial_cost
    notes.append("max_iter=0 clean")

    # all-zero observations collapse to an empty factorization
    z = np.zeros((6, 9))
    pz, wz = init_uniform(6, 9, 3, 0)
    phi_out, w_out, rep = solve(z, pz, wz, SolverConfig(r=3, max_iter=30))
    assert rep.rank_degenerate
    assert phi_out.shape == (6, 0)
    assert w_out.shape == (9, 0)
    assert np.isfinite(rep.final_cost)
    notes.append("zero data rank 0")

    # vertex extraction must refuse data that spans nothing
    with pytest.raises(ValueError, match="rank deficient"):
        init_vca(z, 2, seed=0)
    notes.append("vca on zero data errors")

    record("degenerate inputs run clean", True, "; ".join(notes))
