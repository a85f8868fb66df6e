"""Deterministic scenario execution: build, simulate, certify, emit.

A run is a pure function of (config, seed): the series CSV, snapshot
CSVs, and report.json it writes are byte-identical across repeats and
across batch parallelism.  Wall-clock timing goes to a separate
timing.json sidecar so the determinism contract stays checkable by
hashing everything else.
"""

import json
import math
import os
import resource
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from ..analysis import (
    TimeSeries,
    bounded_product,
    certify_weighted_bound,
    check_ckn,
    check_decay_inequality,
    check_energy_law,
    check_monotone,
    fit_power,
)
from ..corrector import (
    select_coefficients,
    select_weighted_coefficients,
    weighted_data_size,
)
from ..errors import HypodecayError, SKConditionFails
from ..grids import Grid1D, WeightSpec
from ..linalg import SystemSpec, min_eig_sym
from ..solvers import (
    EulerSpec,
    LinearSim,
    PSystemSpec,
    WaveWeightSpec,
    default_offset,
    heat_solve,
    linear_wave_monitor,
    scalar_wave_monitor,
    simulate_euler,
    simulate_linear,
    simulate_psystem,
)
from ..solvers.waves import LogWaveMonitor
from .config import (
    ConfigError,
    apply_override,
    build_fields,
    parse_config,
    serialize_config,
)
from .scenarios import scenario_claims, scenario_doc

OUT_ENV = "HYPODECAY_OUT"


# --- output plumbing ---------------------------------------------------


def resolve_out_dir(cfg, out_dir=None):
    """Output directory precedence: explicit arg > env var > config > default."""
    if out_dir is not None:
        return Path(out_dir)
    env = os.environ.get(OUT_ENV)
    if env:
        return Path(env) / cfg.scenario
    configured = cfg.outputs.get("dir")
    if configured:
        return Path(configured)
    return Path("runs") / cfg.scenario


def _f(x):
    return repr(float(x))


def write_series_csv(path, series):
    names = list(series.channels)
    with open(path, "w") as fh:
        fh.write(",".join(["t"] + names) + "\n")
        cols = [series.channels[n] for n in names]
        for j, t in enumerate(series.t):
            fh.write(",".join([_f(t)] + [_f(c[j]) for c in cols]) + "\n")


def write_snapshot_csv(path, grid, U):
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.shape[0] != grid.N:
        U = U.T
    n = U.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(["x"] + [f"U_{k + 1}" for k in range(n)]) + "\n")
        for i in range(grid.N):
            fh.write(",".join([_f(grid.x[i])] + [_f(U[i, k]) for k in range(n)]) + "\n")


def _json_ready(obj):
    """Recursively coerce numpy scalars/arrays so json.dump stays happy."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    return obj


# --- system construction -----------------------------------------------


def build_grid(cfg):
    g = cfg.grid
    return Grid1D(L=float(g["L"]), N=int(g["N"]), bc=g["bc"])


def spatial_weight(cfg):
    for w in cfg.weights:
        if w.role == "spatial":
            kind = "logarithmic" if w.kind in ("log", "logarithmic") else "power"
            return WeightSpec(kind, mu=w.mu, q=w.q)
    return None


def _wave_spec(cfg, ctx, family, kappa1=None, **shown):
    """(WaveWeightSpec, mass tolerance) of the config's wave weight, or (None, None).

    The weight must be of the system's `family`.  `kappa1()`, the power
    family's stiffness bound, is called only when there is a wave weight.
    """
    entry = next((w for w in cfg.weights if w.role == "wave"), None)
    if entry is None:
        return None, None
    if ("log" if entry.kind in ("log", "logarithmic") else "power") != family:
        raise ConfigError(f"the wave weight must be {family}, got {entry.kind!r}")
    if family == "power":
        shown = {"mu": entry.mu, "kappa1": kappa1(), **shown}
    if entry.a is not None:
        a = float(entry.a)
    else:
        a = default_offset(family, float(cfg.time["T"]) + ctx.grid.L,
                           kappa1=shown.get("kappa1", 1.0), mu=entry.mu,
                           q=entry.q, r=entry.r)
    wsp = WaveWeightSpec(kind=family, mu=entry.mu, q=entry.q, r=entry.r, a=a)
    ctx.manifest["wave"] = {"kind": family, "q": wsp.q, "r": wsp.r, "a": a, **shown}
    return wsp, entry.mass_tol


@dataclass
class RunContext:
    cfg: object
    grid: object
    series: object = None
    coeffs: object = None
    x0: float = None
    manifest: dict = field(default_factory=dict)
    extra_series: dict = field(default_factory=dict)
    simulate_s: float = None


def _build_linear(cfg, grid, ctx, weight):
    spec = SystemSpec(A=np.array(cfg.system["A"], dtype=float),
                      D=np.array(cfg.system["D"], dtype=float),
                      n1=int(cfg.system["n1"]))
    ctx.manifest["system"].update(
        n=spec.n,
        kappa=spec.kappa,
        kalman_rank=spec.kalman_rank,
        sk_holds=spec.sk_holds,
    )
    U0 = build_fields(cfg, grid, spec.n)

    if cfg.corrector is not None:
        try:
            coeffs = select_coefficients(
                spec, delta=cfg.corrector["delta"],
                safety=cfg.corrector["safety"],
            )
        except SKConditionFails as exc:
            ctx.manifest["coefficients"] = {
                "refused": True, "reason": str(exc),
            }
        else:
            ctx.coeffs = coeffs
            ctx.manifest["coefficients"] = {
                "refused": False,
                "eps0": coeffs.eps0,
                "eps": list(coeffs.eps),
                "exponent_ladder": list(coeffs.m),
                "eta0": coeffs.eta0,
                "C_bound": coeffs.C_bound,
                "C_K": coeffs.C_K,
                "coercivity_sum": coeffs.coercivity_sum,
                "margins": coeffs.margins(),
            }

    if weight is not None:
        wc = select_weighted_coefficients(spec, mu=weight.mu)
        ctx.x0 = weighted_data_size(grid, U0, weight.mu)
        ctx.manifest["weighted"] = {
            "mu": wc.mu,
            "C_tilde": wc.C_tilde,
            "eps_tilde": list(wc.eps_tilde),
            "kappa0": wc.kappa0,
            "kappa_margin": spec.kappa / wc.kappa0,
            "X0": ctx.x0,
        }

    wsp, mass_tol = _wave_spec(cfg, ctx, "power",
                               lambda: min_eig_sym(spec.A12 @ spec.A21))
    wave = None if wsp is None else linear_wave_monitor(spec, wsp, mass_tol=mass_tol)
    if wave is not None:
        wave.check_mass(grid, U0[:, : spec.n1])
    sim = LinearSim(spec=spec, grid=grid, cfl=float(cfg.time["cfl"]),
                    nu=float(cfg.time["nu"]))
    return partial(simulate_linear, sim, U0, coeffs=ctx.coeffs, weight=weight,
                   wave=wave)


def _build_euler(cfg, grid, ctx, weight):
    espec = EulerSpec(gamma=float(cfg.system["gamma"]),
                      rho_bar=float(cfg.system["rho_bar"]),
                      lam=float(cfg.system["lam"]))
    cap = float(cfg.system["smallness_cap"])
    fields_ = build_fields(cfg, grid, 2)
    ctx.manifest["system"].update(
        gamma=espec.gamma, rho_bar=espec.rho_bar, lam=espec.lam,
        c_bar=espec.c_bar, smallness_cap=cap,
    )
    kappa1 = float(espec.dpressure(espec.rho_bar))
    wsp, mass_tol = _wave_spec(cfg, ctx, "power", lambda: kappa1)
    wave = None if wsp is None else scalar_wave_monitor(
        wsp, stiffness=kappa1, damping=espec.lam, mass_tol=mass_tol)
    rho = espec.rho_bar + fields_[:, 0]
    if wave is not None:
        wave.check_mass(grid, rho - espec.rho_bar)
    if weight is not None:
        ctx.x0 = weighted_data_size(grid, fields_, weight.mu)
        ctx.manifest["weighted"] = {"X0": ctx.x0}
    return partial(simulate_euler, espec, grid, rho, fields_[:, 1],
                   cfl=float(cfg.time["cfl"]), nu=float(cfg.time["nu"]),
                   smallness_cap=cap, weight=weight, wave=wave)


def _build_psystem(cfg, grid, ctx, weight):
    pspec = PSystemSpec(r=float(cfg.system["r"]), eta2=float(cfg.system["eta2"]))
    eta3 = float(cfg.system["eta3"])
    fields_ = build_fields(cfg, grid, 2)
    ctx.manifest["system"].update(r=pspec.r, eta2=pspec.eta2, eta3=eta3)
    wsp, _ = _wave_spec(cfg, ctx, "log", eta3=eta3)
    wave = None if wsp is None else LogWaveMonitor(wspec=wsp, eta3=eta3)
    return partial(simulate_psystem, pspec, grid, fields_[:, 0], fields_[:, 1],
                   cfl=float(cfg.time["cfl"]), nu=float(cfg.time["nu"]),
                   wave=wave)


def _build_heat(cfg, grid, ctx, weight):
    dt = cfg.time["dt"]
    return partial(heat_solve, grid, build_fields(cfg, grid, 1)[:, 0],
                   dt=None if dt is None else float(dt), weight=weight)


# Each builder fills ctx and returns its solver call, or None for a run
# without a system.  The call takes T, the sample stride and the
# snapshot times, which every solver shares.  Beside each builder stand
# the weight roles it consumes; a config with any other role is refused.
_SYSTEMS = {
    "linear": (_build_linear, {"spatial", "wave"}),
    "euler": (_build_euler, {"spatial", "wave"}),
    "psystem": (_build_psystem, {"wave"}),
    "heat": (_build_heat, {"spatial"}),
    "none": (lambda cfg, grid, ctx, weight: None, set()),
}


def _simulate(cfg, grid, ctx):
    """Build the configured system into ctx, then integrate it: (series, snapshots).

    Whatever construction rejects, parameter ranges included, is a
    ConfigError raised before any step.
    """
    kind = cfg.system["kind"]
    ctx.manifest["system"] = {"kind": kind}
    build, roles = _SYSTEMS[kind]
    try:
        unused = sorted({w.role for w in cfg.weights} - roles)
        if unused:
            raise ConfigError(f"system {kind!r} takes no {unused[0]} weight")
        weight = spatial_weight(cfg)
        if weight is not None:
            ctx.manifest["spatial_weight"] = {
                "kind": weight.kind, "mu": weight.mu, "q": weight.q,
            }
        solve = build(cfg, grid, ctx, weight)
    except (HypodecayError, ValueError) as exc:
        raise ConfigError(f"cannot build system {kind!r}: {exc}") from exc
    if solve is None:
        return None, {}
    snaps = tuple(float(s) for s in cfg.outputs.get("snapshots", ()))
    started = time.perf_counter()
    result = solve(float(cfg.time["T"]), sample_stride=int(cfg.time["sample_stride"]),
                   snapshot_times=snaps)
    ctx.simulate_s = time.perf_counter() - started
    return result


# --- certificate executors ---------------------------------------------


def _check_fit(claim, ctx):
    lo, hi = claim["band"]
    t0, t1 = claim["window"]
    alphas = {}
    ok = True
    for ch in claim["channels"]:
        f = fit_power(ctx.series, ch, t0, t1)
        alphas[ch] = f.alpha
        ok = ok and lo <= f.alpha <= hi
    return ok, {"alpha": alphas, "band": [lo, hi], "window": [t0, t1]}


def _check_monotone(claim, ctx):
    res = check_monotone(ctx.series, claim["channel"],
                         tol_rel=claim.get("tol_rel", 1e-8))
    return res.pop("passed"), res


def _check_margins(claim, ctx):
    if ctx.coeffs is None:
        return False, {"error": "no coefficients were selected for this run"}
    margins = ctx.coeffs.margins()
    ok = all(v <= 1.0 + 1e-12 for v in margins.values())
    ok = ok and ctx.coeffs.coercivity_sum <= 0.5 + 1e-12
    return ok, {
        "margins": margins,
        "coercivity_sum": ctx.coeffs.coercivity_sum,
        "eta0": ctx.coeffs.eta0,
    }


def _check_weighted_bound(claim, ctx):
    if ctx.x0 is None:
        return False, {"error": "run recorded no weighted data size"}
    bound = claim["factor"] * ctx.x0
    res = certify_weighted_bound(ctx.series, claim["channel"], bound)
    res["X0"] = ctx.x0
    res["factor"] = claim["factor"]
    return res.pop("passed"), res


def _check_decay_inequality(claim, ctx):
    coeffs = ctx.coeffs
    if coeffs is None:
        return False, {"error": "no coefficients were selected for this run"}
    mu = claim.get("mu", 1.0)
    safety = ctx.cfg.corrector["safety"]
    a2 = 0.5 * coeffs.eta0 / safety
    t = ctx.series.t
    E2 = ctx.series.channel("dx_l2") ** 2
    E1 = ctx.series.channel("lyapunov") - coeffs.eta0 * t * E2
    if np.any(E1 <= 0.0):
        return False, {"error": "augmented energy is not positive",
                       "min_e1": float(E1.min())}
    F = E1 + coeffs.eta0 * t * E2
    dF = (F[2:] - F[:-2]) / (t[2:] - t[:-2])
    denom = E1[1:-1] ** (1.0 + 1.0 / mu)
    rj = (-dF - a2 * E2[1:-1]) / denom
    min_rj = float(rj.min())
    if min_rj <= 0.0:
        return False, {"error": "no positive quadratic-absorption rate exists",
                       "min_rj": min_rj}
    a1 = 0.999 * min_rj
    aug = TimeSeries(t=t, channels={"e1": E1, "e2": E2}, meta=dict(ctx.series.meta))
    res = check_decay_inequality(aug, "e1", "e2", a1, a2, mu, coeffs.eta0)
    ok = res.pop("conclusion_pass") and res["slack"] <= res["slack_tol"]
    res.update({"a1": a1, "a2": a2, "eta0": coeffs.eta0, "min_rj": min_rj})
    return ok, res


def _check_channel_max_below(claim, ctx):
    cap = ctx.manifest["system"][claim["bound_key"]]
    v = ctx.series.channel(claim["channel"])
    peak = float(v.max())
    return peak <= cap, {"max": peak, "cap": cap,
                         "t_max": float(ctx.series.t[int(np.argmax(v))])}


def _check_rank_deficiency(claim, ctx):
    sysd = ctx.manifest.get("system", {})
    refused = ctx.manifest.get("coefficients", {}).get("refused", False)
    rank = sysd.get("kalman_rank")
    ok = (rank == claim["expected_rank"]
          and not sysd.get("sk_holds", True)
          and refused)
    return ok, {"kalman_rank": rank, "sk_holds": sysd.get("sk_holds"),
                "selection_refused": refused}


def _check_bounded_product(claim, ctx):
    res = bounded_product(ctx.series, claim["channel"], claim["q"],
                          ratio_cap=claim.get("cap", 1.10))
    return res.pop("passed"), res


def derived_run(ctx, patch):
    """Series of a certificate sub-run: the run's config with `patch` applied.

    `patch` maps top-level config keys to new values; a dict updates that
    section key by key, anything else replaces it.  Sub-runs take no
    snapshots.
    """
    doc = serialize_config(ctx.cfg)
    for key, value in patch.items():
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    doc["outputs"] = {"snapshots": []}
    sub = parse_config(doc)
    grid = build_grid(sub)
    series, _ = _simulate(sub, grid, RunContext(cfg=sub, grid=grid))
    return series


def _check_psystem_refinement(claim, ctx):
    ref = claim["refine"]
    lo, hi = claim["band"]
    resids = []
    for N in ref["N"]:
        series = derived_run(ctx, {
            "grid": {"N": int(N)},
            "time": {"T": float(ref["T"]), "sample_stride": 1, "nu": 0.0},
            "data": [{"kind": "gaussian", "component": 0, "amp": ref["amp"],
                      "width": ref["width"], "center": 0.0}],
            "weights": [],
        })
        ctx.extra_series[f"series_refine_{int(N)}"] = series
        resids.append(check_energy_law(series)["l1_residual"])
    ratio = resids[0] / resids[1]
    return lo <= ratio <= hi, {
        "l1_residuals": resids, "ratio": ratio, "band": [lo, hi],
        "N": list(ref["N"]),
    }


def _check_energy_refinement(claim, ctx):
    lo, hi = claim["band"]
    base = check_energy_law(ctx.series)["l1_residual"]
    series = derived_run(ctx, {"grid": {"N": int(claim["refine_N"])}})
    ctx.extra_series["series_fine"] = series
    fine = check_energy_law(series)["l1_residual"]
    ratio = base / fine
    return lo <= ratio <= hi, {
        "l1_residual_base": base, "l1_residual_fine": fine,
        "ratio": ratio, "band": [lo, hi],
        "N": [ctx.cfg.grid["N"], claim["refine_N"]],
    }


def _check_heat_closed_form(claim, ctx):
    t0, t1 = claim["window"]
    t = ctx.series.t
    v = ctx.series.channel("l2")
    mask = (t >= t0) & (t <= t1)
    exact = (np.pi / 2.0) ** 0.25 * (1.0 + 4.0 * t[mask]) ** -0.25
    rel_max = float((np.abs(v[mask] - exact) / exact).max())
    return rel_max <= claim["rel_tol"], {
        "max_rel_error": rel_max, "rel_tol": claim["rel_tol"],
        "window": [t0, t1], "n_compared": int(mask.sum()),
    }


def _check_heat_weighted_fit(claim, ctx):
    d = claim["data"]
    series = derived_run(ctx, {
        "data": [{"kind": d["kind"], "component": 0, "amp": d["amp"],
                  "width": d["width"], "center": 0.0}],
        "weights": [{"role": "spatial", "kind": "power", "mu": 1.0}],
    })
    ctx.extra_series["series_weighted"] = series
    lo, hi = claim["band"]
    t0, t1 = claim["window"]
    f = fit_power(series, "l2", t0, t1)
    return lo <= f.alpha <= hi, {
        "alpha": f.alpha, "band": [lo, hi], "window": [t0, t1], "r2": f.r2,
    }


def _ckn_bump_field(x, rng):
    m = int(rng.integers(1, 4))
    h = np.zeros_like(x)
    for _ in range(m):
        amp = rng.uniform(-1.0, 1.0)
        center = rng.uniform(-12.0, 12.0)
        width = rng.uniform(0.5, 3.0)
        h += amp * np.exp(-(((x - center) / width) ** 2))
    return h, m


def _check_ckn_random(claim, ctx):
    rng = np.random.Generator(np.random.Philox(ctx.cfg.seed))
    mus = claim["mus"]
    cap = claim["cap"]
    rows = []
    worst = {mu: 0.0 for mu in mus}
    for trial in range(claim["trials"]):
        h, m = _ckn_bump_field(ctx.grid.x, rng)
        for mu in mus:
            ratio = check_ckn(ctx.grid, h, mu)["ratio"]
            worst[mu] = max(worst[mu], ratio)
            rows.append((trial, m, mu, ratio))
    ctx.manifest["ckn_rows"] = rows
    ok = all(v <= cap for v in worst.values())
    return ok, {"worst_ratio": {str(k): v for k, v in worst.items()},
                "cap": cap, "trials": claim["trials"]}


def _check_ckn_witness(claim, ctx):
    L = claim.get("L", 2000.0)
    N = claim.get("N", 1048577)
    mu = claim.get("mu", 1.0)
    grid = Grid1D(L=L, N=N, bc="compact_support")
    delta = 4.0 * grid.dx
    lam = math.log((delta**2 + L**2) / delta**2)
    s = (delta**2 + grid.x**2) / delta**2
    h = (delta**2 + grid.x**2) ** -0.25 * np.cos(0.5 * np.pi * np.log(s) / lam)
    ratio = check_ckn(grid, h, mu)["ratio"]
    return ratio >= claim["floor"], {
        "ratio": ratio, "floor": claim["floor"], "mu": mu,
        "grid": {"L": L, "N": N}, "regularization": delta,
    }


_CHECKS = {
    "fit": _check_fit,
    "monotone": _check_monotone,
    "margins": _check_margins,
    "weighted_bound": _check_weighted_bound,
    "decay_inequality": _check_decay_inequality,
    "channel_max_below": _check_channel_max_below,
    "rank_deficiency": _check_rank_deficiency,
    "bounded_product": _check_bounded_product,
    "psystem_refinement": _check_psystem_refinement,
    "energy_refinement": _check_energy_refinement,
    "heat_closed_form": _check_heat_closed_form,
    "heat_weighted_fit": _check_heat_weighted_fit,
    "ckn_random": _check_ckn_random,
    "ckn_witness": _check_ckn_witness,
}


def run_certificates(ctx):
    certs = []
    for claim in scenario_claims(ctx.cfg.scenario):
        executor = _CHECKS[claim["check"]]
        try:
            passed, measured = executor(claim, ctx)
        except HypodecayError as exc:
            passed, measured = False, {"error": str(exc)}
        certs.append({
            "id": claim["id"],
            "anchor": claim["anchor"],
            "passed": bool(passed),
            "measured": _json_ready(measured),
        })
    return certs


# --- the run itself ----------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    scenario: str
    out_dir: str
    passed: bool
    certificates: list
    manifest: dict
    series_path: str
    snapshot_paths: list
    timing: dict

    @property
    def exit_code(self):
        return 0 if self.passed else 4

    def doc(self):
        """Deterministic report body (timing deliberately excluded)."""
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "series": self.series_path,
            "snapshots": self.snapshot_paths,
            "certificates": self.certificates,
            "manifest": self.manifest,
        }


def run(cfg, out_dir=None):
    """Execute one configured scenario; write series, snapshots, report."""
    started = time.perf_counter()
    out = resolve_out_dir(cfg, out_dir)
    grid = build_grid(cfg)
    ctx = RunContext(cfg=cfg, grid=grid)
    ctx.manifest["config"] = serialize_config(cfg)
    ctx.manifest["grid"] = {"L": grid.L, "N": grid.N, "bc": grid.bc,
                            "dx": grid.dx}

    series, snapshots = _simulate(cfg, grid, ctx)
    ctx.series = series
    if series is not None:
        ctx.manifest["series_meta"] = _json_ready(dict(series.meta))

    certs = run_certificates(ctx)
    # nothing is written until the numerics, sub-runs included, have succeeded
    out.mkdir(parents=True, exist_ok=True)

    snapshot_paths = []
    if series is not None:
        series_path = "series.csv"
        write_series_csv(out / series_path, series)
        for ts in sorted(snapshots):
            name = f"snapshot_{ts:g}.csv"
            write_snapshot_csv(out / name, grid, snapshots[ts])
            snapshot_paths.append(name)
        for name in sorted(ctx.extra_series):
            write_series_csv(out / f"{name}.csv", ctx.extra_series[name])
    else:
        series_path = "results.csv"
        rows = ctx.manifest.pop("ckn_rows", [])
        with open(out / series_path, "w") as fh:
            fh.write("trial,n_bumps,mu,ratio\n")
            for trial, m, mu, ratio in rows:
                fh.write(f"{trial},{m},{_f(mu)},{_f(ratio)}\n")

    passed = all(c["passed"] for c in certs)
    timing = {
        "wall_s": time.perf_counter() - started,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if series is not None:
        n_steps = int(series.meta["n_steps"])
        timing.update(simulate_s=ctx.simulate_s, n_steps=n_steps,
                      ns_per_point_step=ctx.simulate_s * 1e9 / (n_steps * grid.N))
    report = RunReport(
        scenario=cfg.scenario,
        out_dir=str(out),
        passed=passed,
        certificates=certs,
        manifest=_json_ready(ctx.manifest),
        series_path=series_path,
        snapshot_paths=snapshot_paths,
        timing=timing,
    )
    with open(out / "report.json", "w") as fh:
        json.dump(report.doc(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "timing.json", "w") as fh:
        json.dump(report.timing, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def run_scenario(name, overrides=(), out_dir=None):
    """Convenience wrapper: registry defaults + dotted-path overrides."""
    doc = scenario_doc(name)
    for dotted, value in overrides:
        apply_override(doc, dotted, value)
    cfg = parse_config(doc)
    return run(cfg, out_dir=out_dir)


# What `run` raises for a rejected config or a numerical failure.
RUN_ERRORS = (HypodecayError, ValueError, FloatingPointError, ZeroDivisionError)


def failure(exc):
    """Exit code and label of an exception: 2 config, 3 numerical or internal."""
    if isinstance(exc, ConfigError):
        return 2, "config error"
    if isinstance(exc, RUN_ERRORS):
        return 3, f"numerical failure: {type(exc).__name__}"
    return 3, f"internal error: {type(exc).__name__}"


# --- batch -------------------------------------------------------------


def _batch_worker(job):
    path, out_root = job
    path = Path(path)
    try:
        cfg = parse_config(json.loads(path.read_text()))
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        return {"name": path.stem, "exit_code": 2, "error": str(exc)}
    try:
        report = run(cfg, out_dir=Path(out_root) / path.stem)
    except RUN_ERRORS as exc:
        return {"name": path.stem, "exit_code": failure(exc)[0], "error": str(exc)}
    except Exception as exc:  # a bug hit by one job must not take down the pool
        traceback.print_exc()
        code, label = failure(exc)
        return {"name": path.stem, "exit_code": code, "error": f"{label}: {exc}"}
    return {
        "name": path.stem,
        "exit_code": report.exit_code,
        "scenario": report.scenario,
        "passed": report.passed,
        "certificates": [
            {"id": c["id"], "passed": c["passed"]} for c in report.certificates
        ],
    }


def batch(config_paths, out_root, jobs=1):
    """Run many configs share-nothing; exit code is the max over runs.

    Results are keyed and ordered by config file stem, so the aggregate
    report does not depend on completion order or worker count.
    """
    started = time.perf_counter()
    paths = sorted(Path(p) for p in config_paths)
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    jobs_list = [(str(p), str(out_root)) for p in paths]
    if jobs <= 1:
        results = [_batch_worker(j) for j in jobs_list]
    else:
        with get_context("fork").Pool(processes=jobs) as pool:
            results = pool.map(_batch_worker, jobs_list)
    results.sort(key=lambda r: r["name"])
    exit_code = max((r["exit_code"] for r in results), default=0)
    aggregate = {"runs": results, "exit_code": exit_code}
    with open(out_root / "batch_report.json", "w") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_root / "batch_timing.json", "w") as fh:
        json.dump({"wall_s": time.perf_counter() - started}, fh, indent=2)
        fh.write("\n")
    return aggregate
