"""Acceptance gate: one test per headline claim, at its stated tolerance.

The whole scenario registry is executed once through the batch driver
(four workers) and every criterion is then asserted against the written
reports, so `pytest -v` prints one pass/fail line per criterion.  One
test holds every certificate's measured values to the committed
reference at roundoff level, and one holds each run's peak RSS within
20 MB of the others'.  The final test demands byte-identical outputs
from a serial sweep of the registry, run by the CLI beside the batch
driver's, which keeps the others honest: they grade artifacts any user
can regenerate exactly.
"""

import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import hypodecay
from hypodecay.analysis import TimeSeries, check_decay_inequality
from hypodecay.experiment import (batch, build_fields, parse_config, scenario_claims,
                                  scenario_doc, scenario_names)
from hypodecay.grids import Grid1D
from hypodecay.solvers.march import CFL

# The directory that holds the package, for the serial sweep's interpreter.
SRC = Path(hypodecay.__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def registry(tmp_path_factory):
    """The registry through `batch(jobs=4)`, with criterion 13's serial sweep
    started beside it.  thm6 holds one core for most of either sweep, so the
    two overlap.  `batch` forks, so the serial sweep is a process of the CLI,
    never a thread of this one."""
    root = tmp_path_factory.mktemp("acceptance")
    cfg_dir = root / "configs"
    cfg_dir.mkdir()
    for name in scenario_names():
        doc = scenario_doc(name)
        with open(cfg_dir / f"{name}.json", "w") as fh:
            json.dump(doc, fh, indent=2)
    serial_out, serial_log = root / "jobs1", root / "jobs1.log"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(serial_log, "w") as log:
        serial = subprocess.Popen(
            [sys.executable, "-m", "hypodecay", "batch", "--dir", str(cfg_dir), "--jobs", "1",
             "--out", str(serial_out)], env=env, stdout=log, stderr=subprocess.STDOUT)
    try:
        out = root / "jobs4"
        agg = batch(sorted(cfg_dir.glob("*.json")), out, jobs=4)
        yield {"cfg_dir": cfg_dir, "out": out, "agg": agg, "serial": serial,
               "serial_out": serial_out, "serial_log": serial_log}
    finally:
        if serial.poll() is None:
            serial.kill()
        serial.wait()


def _compare_reports():
    path = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(reg, name):
    return json.loads((reg["out"] / name / "report.json").read_text())


def cert(rep, cert_id):
    hits = [c for c in rep["certificates"] if c["id"] == cert_id]
    assert hits, f"report carries no certificate {cert_id!r}"
    return hits[0]


def wall_seconds(reg, name):
    return json.loads((reg["out"] / name / "timing.json").read_text())["wall_s"]


def test_criterion_01_linear_decay_exponents(registry):
    """Damped component and gradient decay like (1+t)^-1/2, within 60 s."""
    rep = report(registry, "thm1_linear")
    c = cert(rep, "thm1_linear:decay_exponents")
    assert c["passed"]
    assert c["measured"]["window"] == [25.0, 100.0]
    for ch in ("u2_l2", "dx_l2"):
        assert -0.65 <= c["measured"]["alpha"][ch] <= -0.38, ch
    assert wall_seconds(registry, "thm1_linear") <= 60.0


def test_criterion_02_modified_energy_and_coefficients(registry):
    """Modified energy never rises past 1e-8 rel; all four coefficient
    constraint families hold with margin <= 1."""
    rep = report(registry, "thm1_linear")
    mono = cert(rep, "thm1_linear:lyapunov_monotone")
    assert mono["passed"]
    assert mono["measured"]["max_increase_rel"] <= 1e-8
    fams = cert(rep, "thm1_linear:coefficient_constraints")
    assert fams["passed"]
    margins = fams["measured"]["margins"]
    assert sorted(margins) == ["e11", "e1a", "e1b", "e2"]
    assert all(v <= 1.0 + 1e-12 for v in margins.values())
    assert fams["measured"]["coercivity_sum"] <= 0.5 + 1e-12


def test_criterion_03_weighted_data_upgraded_rates(registry):
    """Zero-mean |x|-weighted data: L2 near -1/2, damped+gradient near -1,
    weighted sup below twice the weighted data size, stiffness above the
    computed threshold."""
    rep = report(registry, "thm2_weighted")
    slow = cert(rep, "thm2_weighted:l2_exponent")
    assert slow["passed"]
    assert -0.65 <= slow["measured"]["alpha"]["l2"] <= -0.38
    fast = cert(rep, "thm2_weighted:damped_gradient_exponents")
    assert fast["passed"]
    for ch in ("u2_l2", "dx_l2"):
        assert -1.2 <= fast["measured"]["alpha"][ch] <= -0.8, ch
    sup = cert(rep, "thm2_weighted:weighted_sup_bound")
    assert sup["passed"]
    assert sup["measured"]["factor"] == 2.0
    assert rep["manifest"]["weighted"]["kappa_margin"] >= 1.0


def test_criterion_04_wave_monitor_decay(registry):
    """Antiderivative wave reformulation: L2 near -1/2, gradient near -1,
    weighted wave energy nonincreasing to 1e-6 relative."""
    rep = report(registry, "thm3_wave")
    slow = cert(rep, "thm3_wave:l2_exponent")
    assert slow["passed"]
    assert -0.65 <= slow["measured"]["alpha"]["l2"] <= -0.38
    grad = cert(rep, "thm3_wave:gradient_exponent")
    assert grad["passed"]
    assert -1.2 <= grad["measured"]["alpha"]["dx_l2"] <= -0.8
    mono = cert(rep, "thm3_wave:wave_energy_monotone")
    assert mono["passed"]
    assert mono["measured"]["max_increase_rel"] <= 1e-6


def test_criterion_05_rank_deficient_coupling_no_decay(registry):
    """Degenerate coupling: stacked matrix has rank 1, coefficient selection
    refuses, undamped component's norm plateaus (|alpha| <= 0.05)."""
    rep = report(registry, "kalman_fail")
    rk = cert(rep, "kalman_fail:rank_deficiency")
    assert rk["passed"]
    assert rk["measured"]["kalman_rank"] == 1
    assert rk["measured"]["sk_holds"] is False
    assert rk["measured"]["selection_refused"] is True
    flat = cert(rep, "kalman_fail:no_decay_plateau")
    assert flat["passed"]
    assert -0.05 <= flat["measured"]["alpha"]["u1_l2"] <= 0.05


def test_criterion_06_energy_law_second_order(registry):
    """Discrete energy-law residual shrinks by ~4x when N and steps double."""
    rep = report(registry, "convergence_order")
    c = cert(rep, "convergence_order:residual_ratio")
    assert c["passed"]
    assert 3.2 <= c["measured"]["ratio"] <= 4.8


def test_criterion_07_damped_flow_small_data(registry):
    """Small-amplitude damped flow: velocity and gradient decay near -1/2,
    smallness cap never breached, H2 surrogate nonincreasing."""
    rep = report(registry, "thm4_euler")
    fit = cert(rep, "thm4_euler:decay_exponents")
    assert fit["passed"]
    for ch in ("u_l2", "dx_l2"):
        assert -0.7 <= fit["measured"]["alpha"][ch] <= -0.35, ch
    small = cert(rep, "thm4_euler:smallness_held")
    assert small["passed"]
    assert small["measured"]["max"] <= small["measured"]["cap"]
    mono = cert(rep, "thm4_euler:h2_monotone")
    assert mono["passed"]
    assert mono["measured"]["max_increase_rel"] <= 1e-6


def test_criterion_08_damped_flow_weighted_rates(registry):
    """Weighted-data damped flow: density near -1/2, velocity and gradient
    near -1."""
    rep = report(registry, "thm5_euler_weighted")
    dens = cert(rep, "thm5_euler_weighted:density_exponent")
    assert dens["passed"]
    assert -0.65 <= dens["measured"]["alpha"]["n_l2"] <= -0.38
    fast = cert(rep, "thm5_euler_weighted:fast_exponents")
    assert fast["passed"]
    for ch in ("u_l2", "dx_l2"):
        assert -1.25 <= fast["measured"]["alpha"][ch] <= -0.75, ch


def test_criterion_09_log_compensated_boundedness(registry):
    """Degenerately damped run over T=2000: log(1+t)-compensated L2 ratio
    <= 1.10, discrete L2 identity refines at order 2, H1 nonincreasing,
    all within 10 minutes."""
    rep = report(registry, "thm6_psystem_log")
    bp = cert(rep, "thm6_psystem_log:log_bounded")
    assert bp["passed"]
    assert bp["measured"]["ratio_late_early"] <= 1.10
    ref = cert(rep, "thm6_psystem_log:l2_identity_refines")
    assert ref["passed"]
    assert 3.2 <= ref["measured"]["ratio"] <= 4.8
    mono = cert(rep, "thm6_psystem_log:h1_monotone")
    assert mono["passed"]
    assert mono["measured"]["max_increase_rel"] <= 1e-6
    assert wall_seconds(registry, "thm6_psystem_log") <= 600.0


def test_criterion_10_diffusion_reference(registry):
    """Gaussian diffusion matches (pi/2)^(1/4)(1+4t)^(-1/4) to 1e-3 relative;
    zero-mean weighted data decays with exponent in [-0.62, -0.38]."""
    rep = report(registry, "heat_oracle")
    cf = cert(rep, "heat_oracle:closed_form")
    assert cf["passed"]
    assert cf["measured"]["max_rel_error"] <= 1e-3
    assert cf["measured"]["window"] == [1.0, 200.0]
    wf = cert(rep, "heat_oracle:weighted_exponent")
    assert wf["passed"]
    assert -0.62 <= wf["measured"]["alpha"] <= -0.38


def test_criterion_11_weighted_interpolation_sweep(registry):
    """Fifty random smooth bumps never beat the sharp constant by more than
    1e-3; the near-optimizer family reaches >= 0.9 of it."""
    rep = report(registry, "ckn_sweep")
    rand = cert(rep, "ckn_sweep:random_bumps")
    assert rand["passed"]
    assert rand["measured"]["trials"] == 50
    worst = rand["measured"]["worst_ratio"]
    assert sorted(worst) == ["0.6", "1.0", "1.5"]
    assert all(v <= 1.001 for v in worst.values())
    wit = cert(rep, "ckn_sweep:near_optimizer")
    assert wit["passed"]
    assert wit["measured"]["ratio"] >= 0.9


def test_criterion_12_comparison_inequality(registry):
    """The synthetic equality case passes the conclusion certificate with
    zero hypothesis slack; the executed stiff run passes with slack below
    1e-6 of its initial scale."""
    t = np.linspace(0.0, 50.0, 2001)
    series = TimeSeries(
        t=t,
        channels={"e1": 1.0 / (1.0 + t), "e2": np.zeros_like(t)},
        meta={},
    )
    res = check_decay_inequality(series, "e1", "e2", 1.0, 0.3, 1.0, 0.1)
    assert res["conclusion_margin"] <= 1.0
    assert res["slack"] == 0.0

    rep = report(registry, "thm2_weighted")
    c = cert(rep, "thm2_weighted:decay_inequality")
    assert c["passed"]
    assert c["measured"]["slack"] <= c["measured"]["slack_tol"]
    claim = [k for k in scenario_claims("thm2_weighted")
             if k["id"] == "thm2_weighted:decay_inequality"][0]
    assert claim["slack_rel"] == 1e-6


def test_registry_matches_the_committed_reference(registry):
    """Every certificate keeps its `passed` and, within perfbench's drift rule,
    its `measured` block of `tests/data/registry_measured.json`, which
    `scripts/compare_reports.py --regenerate` writes.  `ckn_sweep`'s random
    bumps are drawn at the registry's fixed seed, so their values are held
    too."""
    module = _compare_reports()
    reference = json.loads(module.REFERENCE.read_text())
    problems = module.check_reference(reference, module.reports(registry["out"]),
                                      module.drift_rule())
    assert problems == []


def read_series(path):
    """The channels of a series CSV, by header name."""
    header = path.read_text().partition("\n")[0].split(",")
    columns = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    return dict(zip(header, columns))


def symbol_series(cfg, coefficients):
    """Every channel a periodic linear run records, recomputed from the Fourier
    symbol of its step.

    Each sample applies G(theta)^k = (E R4(dt L(theta)) E)^k, k steps since
    the last, to the FFT of the config's initial data, with L(theta) =
    -i A sin(theta)/dx and E = exp(-B dt/2).  The channels are quadratic
    forms of [U; d_x U], read by Parseval; d_x has the symbol
    i sin(theta)/dx.  dt and the step count follow from the config and
    `eigvalsh` alone: the fewest uniform steps of at most CFL dx / rho(A).
    """
    system, T = cfg["system"], cfg["time"]["T"]
    A, D, n1 = np.array(system["A"]), np.array(system["D"]), system["n1"]
    n, N, dx = len(A), cfg["grid"]["N"], 2.0 * cfg["grid"]["L"] / cfg["grid"]["N"]
    nsteps = math.ceil(T / (CFL * dx / np.abs(np.linalg.eigvalsh(A)).max()) - 1e-9)
    dt = T / nsteps
    B = np.zeros((n, n))
    B[n1:, n1:] = D
    E = expm(-0.5 * dt * B)
    sin = np.sin(2.0 * np.pi * np.fft.fftfreq(N))
    Z = (-1j * dt / dx) * sin[:, None, None] * A
    eye = np.eye(n)
    G = E @ (eye + Z @ (eye + Z @ (eye / 2 + Z @ (eye / 6 + Z / 24)))) @ E
    C = None
    if coefficients is not None:  # the corrector's cross matrix, sum eps_k P_k^T P_{k+1}
        P = [B @ np.linalg.matrix_power(A, k) for k in range(n)]
        C = sum(e * P[k].T @ P[k + 1] for k, e in enumerate(coefficients["eps"]))

    V = np.fft.fft(build_fields(cfg, Grid1D(L=cfg["grid"]["L"], N=N), n), axis=0)
    stride = cfg["time"]["sample_stride"]
    steps = sorted({*range(0, nsteps + 1, stride), nsteps})
    powers, rows, last = {}, [], 0
    for j in steps:
        if j > last:
            if j - last not in powers:
                powers[j - last] = np.linalg.matrix_power(G, j - last)
            V = np.einsum("mab,mb->ma", powers[j - last], V)
        last = j
        W = np.concatenate((V, (1j / dx) * sin[:, None] * V), axis=1)
        g = (dx / N) * (W.conj().T @ W).real
        row = {
            "t": j * dt,
            "l2": math.sqrt(np.trace(g[:n, :n])),
            "u1_l2": math.sqrt(np.trace(g[:n1, :n1])),
            "u2_l2": math.sqrt(np.trace(g[n1:n, n1:n])),
            "dx_l2": math.sqrt(np.trace(g[n:, n:])),
            "dissipation": 2.0 * float((D * g[n1:n, n1:n]).sum()),
        }
        if C is not None:
            row["lyapunov"] = float(np.trace(g[:n, :n]) + np.trace(g[n:, n:])
                                    * (1.0 + coefficients["eta0"] * j * dt)
                                    + (C * g[:n, n:]).sum())
        rows.append(row)
    return {k: np.array([r[k] for r in rows]) for k in rows[0]}


@pytest.mark.parametrize("name", ["thm1_linear", "kalman_fail", "convergence_order"])
def test_periodic_linear_runs_are_their_fourier_symbol(registry, name):
    """Every sample of every channel of the three periodic linear runs, as
    written, within 1e-12 relative (absolute where it is 0, as t is at the
    start) of the same run recomputed mode by mode from the symbol of its
    step: this checks the step count, stride and sample times, the
    record's Gram contractions and the CSV together."""
    out = registry["out"] / name
    coefficients = report(registry, name)["manifest"].get("coefficients", {"refused": True})
    want = symbol_series(parse_config(scenario_doc(name)),
                         None if coefficients["refused"] else coefficients)
    got = read_series(out / "series.csv")
    assert sorted(got) == sorted(want)
    for channel, v in want.items():
        assert got[channel].shape == v.shape, channel
        diff = np.abs(got[channel] - v) / np.where(v == 0.0, 1.0, np.abs(v))
        assert diff.max() <= 1e-12, (channel, diff.max())


def test_no_run_holds_far_more_memory_than_the_others(registry):
    """No registry run's peak RSS (timing.json) lies more than 3 MB above
    the median run's: no certificate holds arrays or modules far beyond its
    run's, as the CKN witness did at N = 2^20 + 1 before it went block by
    block, and the CKN trials did while they loaded numpy.random."""
    peaks = {name: json.loads((registry["out"] / name / "timing.json").read_text())
             ["rss_peak_mb"] for name in scenario_names()}
    assert max(peaks.values()) - statistics.median(peaks.values()) < 3.0, peaks


def test_criterion_13_batch_determinism_and_isolation(registry):
    """Running the registry with 1 worker reproduces the 4-worker outputs
    byte for byte (timing sidecars aside); each sweep finishes in 20 min."""
    assert registry["serial"].wait(timeout=1200) == 0, registry["serial_log"].read_text()
    serial_out = registry["serial_out"]
    agg = json.loads((serial_out / "batch_report.json").read_text())
    assert agg == registry["agg"]
    assert agg["exit_code"] == 0

    skip = {"timing.json", "batch_timing.json"}
    files_forked = {
        p.relative_to(registry["out"])
        for p in registry["out"].rglob("*")
        if p.is_file() and p.name not in skip
    }
    files_serial = {
        p.relative_to(serial_out)
        for p in serial_out.rglob("*")
        if p.is_file() and p.name not in skip
    }
    assert files_serial == files_forked
    for rel in sorted(files_serial):
        a = (serial_out / rel).read_bytes()
        b = (registry["out"] / rel).read_bytes()
        assert a == b, f"outputs differ at {rel}"

    for root in (registry["out"], serial_out):
        wall = json.loads((root / "batch_timing.json").read_text())["wall_s"]
        assert wall <= 1200.0

