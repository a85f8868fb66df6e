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
import random
import resource
import shutil
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
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
    CONSTRAINT_TOL,
    select_coefficients,
    select_weighted_coefficients,
    weighted_data_size,
)
from ..errors import (HypodecayError, HypothesisViolated, InitialDataRejected,
                      NonpositiveValues, RunTooCostly, SKConditionFails, WindowTooSmall)
from ..grids import Grid1D, WeightSpec
from ..linalg import SystemSpec, min_eig_sym
from ..solvers.euler import EulerSpec, simulate_euler
from ..solvers.heat import heat_solve
from ..solvers.linear import LinearSim, simulate_linear
from ..solvers.psystem import PSystemSpec, simulate_psystem
from ..solvers.waves import (LinearWaveMonitor, LogWaveMonitor, WaveWeightSpec, default_offset,
                             linear_wave_monitor)
from .config import ConfigError, build_fields, parse_config, read_config
from .scenarios import scenario_claims

OUT_ENV = "HYPODECAY_OUT"


# --- output plumbing ---------------------------------------------------


def resolve_out_dir(out, leaf):
    """Where a run (`leaf` its scenario) or a batch (`leaf` "batch")
    writes: `out`, else $HYPODECAY_OUT/<leaf>, else runs/<leaf>.

    An empty $HYPODECAY_OUT counts as unset.  An empty `out` names no
    directory and is refused with a ConfigError.
    """
    if out == "":
        raise ConfigError("the output path (--out, out_dir, out_root) is empty; name a directory")
    if out is not None:
        return Path(out)
    return Path(os.environ.get(OUT_ENV) or "runs") / leaf


def make_dir(out):
    """Create the directory `out`; a failure is a ConfigError."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {out}: {exc.strerror or exc}") from exc


def _replaceable(out):
    """`out`, if a run may replace it whole; else a ConfigError, raised
    before any numerics.

    A run replaces neither the current directory nor one that holds it,
    nor a non-empty directory without an earlier run's report.json.  A
    path under a regular file cannot be created.
    """
    path, cwd = out.resolve(), Path.cwd()
    if path == cwd or path in cwd.parents:
        raise ConfigError(f"output directory {out} holds the current directory, "
                          "which a run may not replace; name a directory below it")
    base = next(p for p in (path, *path.parents) if p.exists())
    if not base.is_dir():
        raise ConfigError(f"cannot create output directory {out}: {base} is not a directory")
    if base == path and not (path / "report.json").is_file() and any(path.iterdir()):
        raise ConfigError(f"output directory {out} is not empty and holds no report.json "
                          "of an earlier run, which a run may replace whole")
    return out


@contextmanager
def _fresh_dir(out):
    """A fresh hidden sibling of `out` to write into, renamed onto `out`
    (an earlier run's directory there removed first) when the block ends.
    If the block raises, the sibling is removed and `out` left as it was.
    """
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {out}: {exc.strerror or exc}") from exc
    try:
        umask = os.umask(0)
        os.umask(umask)
        tmp.chmod(0o777 & ~umask)  # mkdtemp makes 0700; a plain mkdir honours the umask
        yield tmp
        if out.exists():
            shutil.rmtree(out)
        tmp.rename(out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _f(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    """A header line, then one line per row: ints via `str`, other values via `_f`."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, int) else _f(v) for v in row) + "\n")


def _write_json(path, obj):
    """Indented, key-sorted JSON plus a newline; numpy values go in as `.tolist()`."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=lambda v: v.tolist())
        fh.write("\n")


def write_series_csv(path, series):
    _write_csv(path, ["t", *series.channels], zip(series.t, *series.channels.values()))


def write_snapshot_csv(path, grid, U):
    """Columns x, U_1, ..., U_k of a field of shape (N,) or (N, k)."""
    table = np.column_stack((grid.x, U))
    header = ["x"] + [f"U_{k}" for k in range(1, table.shape[1])]
    _write_csv(path, header, table.tolist())


# --- system construction -----------------------------------------------


def build_grid(cfg):
    g = cfg["grid"]
    return Grid1D(L=float(g["L"]), N=int(g["N"]), bc=g["bc"])


def _weight(cfg, role):
    """The config's weight entry of `role`, without its role, or None."""
    for w in cfg["weights"]:
        if w["role"] == role:
            return {k: v for k, v in w.items() if k != "role"}
    return None


def _wave_spec(cfg, ctx, kappa1=None):
    """WaveWeightSpec of the config's wave weight, or None.

    The weight is of the system's family (`config.SYSTEM_KINDS`).
    `kappa1()`, the power family's stiffness bound, is called only when
    there is a wave weight.  The offset is `default_offset`'s, and a log
    weight's r is the p-system's: its |w_t|^{r+1} is the damping |u|^{r+1}.
    """
    entry = _weight(cfg, "wave")
    if entry is None:
        return None
    family = entry.pop("kind")
    if family == "power":
        params, bound = entry, {"kappa1": kappa1()}
    else:
        params, bound = {**entry, "r": float(cfg["system"]["r"])}, {}
    a = default_offset(family, float(cfg["time"]["T"]) + ctx.grid.L, **params, **bound)
    ctx.manifest["wave"] = {"kind": family, "a": a, **params, **bound}
    return WaveWeightSpec(kind=family, a=a, **params)


@dataclass
class RunContext:
    cfg: dict
    grid: object
    series: object = None
    coeffs: object = None
    x0: float = None
    manifest: dict = field(default_factory=dict)
    extra_series: dict = field(default_factory=dict)
    ckn_rows: list = field(default_factory=list)
    simulate_s: float = None


def _build_linear(cfg, grid, ctx, weight):
    system = cfg["system"]
    spec = SystemSpec(A=np.array(system["A"], dtype=float),
                      D=np.array(system["D"], dtype=float),
                      n1=int(system["n1"]))
    ctx.manifest["system"].update(
        n=spec.n,
        kappa=spec.kappa,
        kalman_rank=spec.kalman_rank,
        sk_holds=spec.sk_holds,
    )
    U0 = build_fields(cfg, grid, spec.n)

    if cfg["corrector"] is not None:
        try:
            coeffs = select_coefficients(spec, safety=cfg["corrector"]["safety"])
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

    wsp = _wave_spec(cfg, ctx, lambda: min_eig_sym(spec.A12 @ spec.A21))
    wave = None if wsp is None else linear_wave_monitor(spec, wsp)
    sim = LinearSim(spec=spec, grid=grid)
    return partial(simulate_linear, sim, U0, coeffs=ctx.coeffs, weight=weight,
                   wave=wave)


def _build_euler(cfg, grid, ctx, weight):
    system = cfg["system"]
    espec = EulerSpec(gamma=float(system["gamma"]),
                      rho_bar=float(system["rho_bar"]),
                      lam=float(system["lam"]))
    cap = float(system["smallness_cap"])
    fields_ = build_fields(cfg, grid, 2)
    ctx.manifest["system"].update(
        gamma=espec.gamma, rho_bar=espec.rho_bar, lam=espec.lam,
        c_bar=espec.c_bar, smallness_cap=cap,
    )
    kappa1 = float(espec.dpressure(espec.rho_bar))
    wsp = _wave_spec(cfg, ctx, lambda: kappa1)
    one = np.eye(1)
    wave = None if wsp is None else LinearWaveMonitor(
        wsp, a12=one, a12a21=kappa1 * one, a12_d_a12inv=espec.lam * one)
    rho = espec.rho_bar + fields_[:, 0]
    if weight is not None:
        ctx.x0 = weighted_data_size(grid, fields_, weight.mu)
        ctx.manifest["weighted"] = {"X0": ctx.x0}
    return partial(simulate_euler, espec, grid, rho, fields_[:, 1],
                   nu=float(cfg["time"]["nu"]), smallness_cap=cap, weight=weight, wave=wave)


def _build_psystem(cfg, grid, ctx, weight):
    pspec = PSystemSpec(r=float(cfg["system"]["r"]))
    fields_ = build_fields(cfg, grid, 2)
    ctx.manifest["system"].update(r=pspec.r)
    wsp = _wave_spec(cfg, ctx)
    wave = None if wsp is None else LogWaveMonitor(wspec=wsp)
    return partial(simulate_psystem, pspec, grid, fields_[:, 0], fields_[:, 1],
                   nu=float(cfg["time"]["nu"]), wave=wave)


def _build_heat(cfg, grid, ctx, weight):
    return partial(heat_solve, grid, build_fields(cfg, grid, 1)[:, 0], weight=weight)


# Each builder fills ctx and returns its solver call, or None for a run
# without a system.  The call takes T, the sample stride and the
# snapshot times, which every solver shares.  What each kind reads of
# the config is `config.SYSTEM_KINDS`.
_SYSTEMS = {
    "linear": _build_linear,
    "euler": _build_euler,
    "psystem": _build_psystem,
    "heat": _build_heat,
    "none": lambda cfg, grid, ctx, weight: None,
}


def _simulate(cfg, grid, ctx):
    """Build the configured system into ctx, then integrate it: (series, snapshots).

    Whatever construction rejects, parameter ranges included, is a
    ConfigError raised before any step.
    """
    kind = cfg["system"]["kind"]
    ctx.manifest["system"] = {"kind": kind}
    try:
        weight = None
        spatial = _weight(cfg, "spatial")
        if spatial is not None:
            ctx.manifest["spatial_weight"] = spatial
            weight = WeightSpec(**spatial)
        solve = _SYSTEMS[kind](cfg, grid, ctx, weight)
    except (HypodecayError, ValueError) as exc:
        raise ConfigError(f"cannot build system {kind!r}: {exc}") from exc
    if solve is None:
        return None, {}
    snaps = tuple(float(s) for s in cfg["outputs"].get("snapshots", ()))
    started = time.perf_counter()
    result = solve(float(cfg["time"]["T"]), sample_stride=int(cfg["time"]["sample_stride"]),
                   snapshot_times=snaps)
    ctx.simulate_s = time.perf_counter() - started
    return result


# --- certificate executors ---------------------------------------------
# Each returns (measured, bounds): the claim's record for report.json and
# the (value, lo, hi) triples, None for an open side, that
# `run_certificates` alone judges.  An unevaluable claim raises.


def _check_fit(claim, ctx):
    lo, hi = claim["band"]
    t0, t1 = claim["window"]
    alphas = {ch: fit_power(ctx.series, ch, t0, t1).alpha for ch in claim["channels"]}
    return ({"alpha": alphas, "band": [lo, hi], "window": [t0, t1]},
            [(a, lo, hi) for a in alphas.values()])


def _check_monotone(claim, ctx):
    res = check_monotone(ctx.series, claim["channel"], tol_rel=claim["tol_rel"])
    return res, [(res["max_increase"], None, res["allowed"])]


def _coeffs(ctx):
    if ctx.coeffs is None:
        raise HypothesisViolated("no coefficients were selected for this run")
    return ctx.coeffs


def _check_margins(claim, ctx):
    coeffs = _coeffs(ctx)
    margins = coeffs.margins()
    bounds = [(v, None, 1.0 + CONSTRAINT_TOL) for v in margins.values()]
    bounds.append((coeffs.coercivity_sum, None, 0.5 + CONSTRAINT_TOL))
    return ({"margins": margins, "coercivity_sum": coeffs.coercivity_sum,
             "eta0": coeffs.eta0}, bounds)


def _check_weighted_bound(claim, ctx):
    if ctx.x0 is None:
        raise HypothesisViolated("run recorded no weighted data size")
    res = certify_weighted_bound(ctx.series, claim["channel"], claim["factor"] * ctx.x0)
    res.update(X0=ctx.x0, factor=claim["factor"])
    return res, [(res["sup"], None, res["bound"])]


def _check_decay_inequality(claim, ctx):
    coeffs = _coeffs(ctx)
    safety = ctx.cfg["corrector"]["safety"]
    a2 = 0.5 * coeffs.eta0 / safety
    t = ctx.series.t
    E2 = ctx.series.channel("dx_l2") ** 2
    E1 = ctx.series.channel("lyapunov") - coeffs.eta0 * t * E2
    if np.any(E1 <= 0.0):
        raise HypothesisViolated(
            f"augmented energy is not positive: min_e1 = {float(E1.min())!r}")
    aug = TimeSeries(t=t, channels={"e1": E1, "e2": E2}, meta=dict(ctx.series.meta))
    # a1 is the largest absorption rate the samples admit, so slack has no
    # bound; the check raises HypothesisFails where it exceeds its tolerance
    res = check_decay_inequality(aug, "e1", "e2", None, a2, claim["mu"], coeffs.eta0,
                                 slack_rel=claim["slack_rel"])
    res.update({"a2": a2, "eta0": coeffs.eta0})
    return res, [(res["conclusion_margin"], None, 1.0 + 1e-12)]


def _check_channel_max_below(claim, ctx):
    cap = ctx.manifest["system"][claim["bound_key"]]
    res = certify_weighted_bound(ctx.series, claim["channel"], cap)
    return ({"max": res["sup"], "cap": cap, "t_max": res["t_sup"]},
            [(res["sup"], None, cap)])


def _check_rank_deficiency(claim, ctx):
    sysd = ctx.manifest.get("system", {})
    refused = ctx.manifest.get("coefficients", {}).get("refused", False)
    rank, sk_holds = sysd.get("kalman_rank"), sysd.get("sk_holds")
    expected = claim["expected_rank"]
    return ({"kalman_rank": rank, "sk_holds": sk_holds, "selection_refused": refused},
            [(rank, expected, expected), (sk_holds, False, False), (refused, True, True)])


def _check_bounded_product(claim, ctx):
    res = bounded_product(ctx.series, claim["channel"], claim["q"])
    res["ratio_cap"] = claim["cap"]
    return res, [(res["ratio_late_early"], None, claim["cap"])]


def derived_run(ctx, patch):
    """Series of a certificate sub-run: the run's config with `patch` applied.

    `patch` maps top-level config keys to new values; a dict updates that
    section key by key, anything else replaces it.  Sub-runs take no
    snapshots.
    """
    doc = dict(ctx.cfg)
    for key, value in patch.items():
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    doc["outputs"] = {"snapshots": []}
    sub = parse_config(doc)
    grid = build_grid(sub)
    series, _ = _simulate(sub, grid, RunContext(cfg=sub, grid=grid))
    return series


def _refinement_ratio(coarse, fine):
    """coarse / fine of two energy-law residuals."""
    if fine == 0.0:
        raise NonpositiveValues(f"the fine energy-law residual is 0; the coarse is {coarse!r}")
    return coarse / fine


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
    ratio = _refinement_ratio(*resids)
    return {
        "l1_residuals": resids, "ratio": ratio, "band": [lo, hi],
        "N": list(ref["N"]),
    }, [(ratio, lo, hi)]


def _check_energy_refinement(claim, ctx):
    lo, hi = claim["band"]
    base = check_energy_law(ctx.series)["l1_residual"]
    series = derived_run(ctx, {"grid": {"N": int(claim["refine_N"])}})
    ctx.extra_series["series_fine"] = series
    fine = check_energy_law(series)["l1_residual"]
    ratio = _refinement_ratio(base, fine)
    return {
        "l1_residual_base": base, "l1_residual_fine": fine,
        "ratio": ratio, "band": [lo, hi],
        "N": [ctx.cfg["grid"]["N"], claim["refine_N"]],
    }, [(ratio, lo, hi)]


def _check_heat_closed_form(claim, ctx):
    t0, t1 = claim["window"]
    t = ctx.series.t
    v = ctx.series.channel("l2")
    mask = (t >= t0) & (t <= t1)
    if not mask.any():
        raise WindowTooSmall(f"window [{t0}, {t1}] holds no sample")
    exact = (np.pi / 2.0) ** 0.25 * (1.0 + 4.0 * t[mask]) ** -0.25
    rel_max = float((np.abs(v[mask] - exact) / exact).max())
    return {
        "max_rel_error": rel_max, "rel_tol": claim["rel_tol"],
        "window": [t0, t1], "n_compared": int(mask.sum()),
    }, [(rel_max, None, claim["rel_tol"])]


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
    return {
        "alpha": f.alpha, "band": [lo, hi], "window": [t0, t1], "r2": f.r2,
    }, [(f.alpha, lo, hi)]


def _ckn_bump_field(rng):
    """A sum of one to three random Gaussian bumps as a function of the
    nodes, and the number of bumps, drawn from `rng.random()` alone: the
    count, then (amp, center, width) per bump."""
    m = 1 + int(3.0 * rng.random())
    bumps = [(-1.0 + 2.0 * rng.random(), -12.0 + 24.0 * rng.random(), 0.5 + 2.5 * rng.random())
             for _ in range(m)]

    def h(x):
        return sum(amp * np.exp(-(((x - center) / width) ** 2)) for amp, center, width in bumps)

    return h, m


def _check_ckn_random(claim, ctx):
    rng = random.Random(ctx.cfg["seed"])
    mus = claim["mus"]
    cap = claim["cap"]
    worst = {mu: 0.0 for mu in mus}
    for trial in range(claim["trials"]):
        h, m = _ckn_bump_field(rng)
        for mu in mus:
            ratio = check_ckn(ctx.grid, h, mu)["ratio"]
            worst[mu] = max(worst[mu], ratio)
            ctx.ckn_rows.append((trial, m, float(mu), ratio))
    return ({"worst_ratio": {str(k): v for k, v in worst.items()},
             "cap": cap, "trials": claim["trials"]},
            [(v, None, cap) for v in worst.values()])


def _check_ckn_witness(claim, ctx):
    L, N, mu = claim["L"], claim["N"], claim["mu"]
    grid = Grid1D(L=L, N=N, bc="compact_support")
    delta = 4.0 * grid.dx
    lam = math.log((delta**2 + L**2) / delta**2)

    def near_optimizer(x):
        s = (delta**2 + x**2) / delta**2
        return (delta**2 + x**2) ** -0.25 * np.cos(0.5 * np.pi * np.log(s) / lam)

    ratio = check_ckn(grid, near_optimizer, mu)["ratio"]
    return {
        "ratio": ratio, "floor": claim["floor"], "mu": mu,
        "grid": {"L": L, "N": N}, "regularization": delta,
    }, [(ratio, claim["floor"], None)]


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
    """One certificate per claim: it passes when every bound its executor
    returns holds, edges included (a NaN holds none), and fails with the
    error under `measured.error` when the executor raises."""
    certs = []
    for claim in scenario_claims(ctx.cfg["scenario"]):
        try:
            measured, bounds = _CHECKS[claim["check"]](claim, ctx)
        except HypodecayError as exc:
            measured, passed = {"error": f"{type(exc).__name__}: {exc}"}, False
        else:
            passed = all(v == v and (lo is None or lo <= v) and (hi is None or v <= hi)
                         for v, lo, hi in bounds)
        certs.append({
            "id": claim["id"],
            "anchor": claim["anchor"],
            "passed": passed,
            "measured": measured,
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


def _rss_peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(cfg, out_dir=None):
    """Execute one configured scenario; write series, snapshots, report."""
    started = time.perf_counter()
    out = _replaceable(resolve_out_dir(out_dir, cfg["scenario"]))
    grid = build_grid(cfg)
    ctx = RunContext(cfg=cfg, grid=grid)
    ctx.manifest["config"] = cfg
    ctx.manifest["grid"] = {"L": grid.L, "N": grid.N, "bc": grid.bc,
                            "dx": grid.dx}

    series, snapshots = _simulate(cfg, grid, ctx)
    ctx.series = series
    if series is not None:
        ctx.manifest["series_meta"] = dict(series.meta)

    certs = run_certificates(ctx)
    # nothing is written until the numerics, sub-runs included, have
    # succeeded, and then all of it at once
    with _fresh_dir(out) as tmp:
        series_path = "results.csv" if series is None else "series.csv"
        snapshot_paths = []
        if series is not None:
            write_series_csv(tmp / series_path, series)
            for ts in sorted(snapshots):
                name = f"snapshot_{repr(ts).removesuffix('.0')}.csv"
                write_snapshot_csv(tmp / name, grid, snapshots[ts])
                snapshot_paths.append(name)
            for name in sorted(ctx.extra_series):
                write_series_csv(tmp / f"{name}.csv", ctx.extra_series[name])
        else:
            _write_csv(tmp / series_path, ["trial", "n_bumps", "mu", "ratio"], ctx.ckn_rows)

        passed = all(c["passed"] for c in certs)
        timing = {
            "wall_s": time.perf_counter() - started,
            "rss_peak_mb": _rss_peak_mb(),
        }
        if series is not None:
            n_steps = int(series.meta["n_steps"])
            timing.update(simulate_s=ctx.simulate_s, n_steps=n_steps,
                          ns_per_point_step=ctx.simulate_s * 1e9 / (n_steps * grid.N))
        report = RunReport(
            scenario=cfg["scenario"],
            out_dir=str(out),
            passed=passed,
            certificates=certs,
            manifest=ctx.manifest,
            series_path=series_path,
            snapshot_paths=snapshot_paths,
            timing=timing,
        )
        _write_json(tmp / "report.json", report.doc())
        _write_json(tmp / "timing.json", report.timing)
    return report


# What `run` raises for a rejected config or a numerical failure.
RUN_ERRORS = (HypodecayError, ValueError, FloatingPointError, ZeroDivisionError)


def failure(exc):
    """Exit code and message of a failed run: 2 config, 3 numerical or internal.

    An InitialDataRejected is raised before the first step, by a solver's
    own check or by a guard at the step-0 sample, and a RunTooCostly before
    the solver builds its step: exit 2 like a ConfigError.
    An exception outside RUN_ERRORS is a bug: its traceback goes to stderr.
    """
    if isinstance(exc, (ConfigError, InitialDataRejected, RunTooCostly)):
        return 2, f"config error: {exc}"
    if isinstance(exc, RUN_ERRORS):
        return 3, f"numerical failure: {type(exc).__name__}: {exc}"
    traceback.print_exception(exc)
    return 3, f"internal error: {type(exc).__name__}: {exc}"


# --- batch -------------------------------------------------------------


def get_context(method):
    """multiprocessing's start-method context, imported here: only `batch`
    forks, so a single run never loads the module."""
    import multiprocessing

    return multiprocessing.get_context(method)


def _batch_worker(job):
    """One job's result, with its wall time, parse included, under "wall_s"
    and its process's peak RSS under "rss_peak_mb"."""
    started = time.perf_counter()
    path = Path(job[0])
    try:
        report = run(parse_config(read_config(path)), out_dir=Path(job[1]) / path.stem)
    except Exception as exc:  # a bug hit by one job must not take down the pool
        code, message = failure(exc)
        result = {"exit_code": code, "error": message}
    else:
        result = {
            "exit_code": report.exit_code,
            "scenario": report.scenario,
            "passed": report.passed,
            "certificates": [
                {"id": c["id"], "passed": c["passed"]} for c in report.certificates
            ],
        }
    return {"name": path.stem, **result, "wall_s": time.perf_counter() - started,
            "rss_peak_mb": _rss_peak_mb()}


def _cost(path):
    """Scheduling key of a batch job: largest N^2 T / L first, a config
    that does not parse last, ties by name."""
    try:
        cfg = parse_config(read_config(path))
    except Exception:  # the job's own run reports why, as its exit code
        return (1, 0.0, path.stem)
    return (0, -cfg["grid"]["N"] ** 2 * cfg["time"]["T"] / cfg["grid"]["L"], path.stem)


def batch(config_paths, out_root, jobs=1):
    """Run many configs share-nothing; exit code is the max over runs.

    Jobs start in `_cost` order, one at a time, each in a fresh forked
    worker at every `jobs`, so the longest run does not start last and no
    job inherits another's heap.  Results are keyed and ordered by config
    file stem, so the aggregate report does not depend on completion
    order or worker count.  Two configs with one stem would share an
    output directory and a result key, and a root (`resolve_out_dir`'s,
    leaf "batch") that is empty or cannot be created holds no output: each
    raises ConfigError before anything is written.
    Wall times, the batch's and each job's, and each job's peak RSS go to
    batch_timing.json only.
    """
    started = time.perf_counter()
    out_root = resolve_out_dir(out_root, "batch")
    paths = sorted(Path(p) for p in config_paths)
    by_stem = {}
    for path in paths:
        other = by_stem.setdefault(path.stem, path)
        if other is not path:
            raise ConfigError(f"configs {other} and {path} share the stem "
                              f"{path.stem!r}, which names their output directory")
    make_dir(out_root)
    jobs_list = [(str(p), str(out_root)) for p in sorted(paths, key=_cost)]
    workers = max(1, min(jobs, len(jobs_list)))
    with get_context("fork").Pool(processes=workers, maxtasksperchild=1) as pool:
        results = list(pool.imap_unordered(_batch_worker, jobs_list, chunksize=1))
    results.sort(key=lambda r: r["name"])
    per_job = {r["name"]: {"wall_s": r.pop("wall_s"), "rss_peak_mb": r.pop("rss_peak_mb")}
               for r in results}
    exit_code = max((r["exit_code"] for r in results), default=0)
    aggregate = {"runs": results, "exit_code": exit_code}
    _write_json(out_root / "batch_report.json", aggregate)
    _write_json(out_root / "batch_timing.json",
                {"wall_s": time.perf_counter() - started, "runs": per_job})
    return aggregate
