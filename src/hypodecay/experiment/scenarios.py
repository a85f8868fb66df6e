"""Scenario registry: desk-scale runs reproducing each decay claim.

Every entry resolves to a complete, valid config document plus a
claim plan — the list of certificates the runner must emit for that
scenario.  Claim anchors state the quantitative assertion being checked,
self-contained, so the report reads without external context.
"""

import copy

_STD_LINEAR = {"kind": "linear", "A": [[0.0, 1.0], [1.0, 0.0]], "D": [[1.0]], "n1": 1}
_STIFF_LINEAR = {"kind": "linear", "A": [[0.0, 1.0], [1.0, 0.0]], "D": [[32.0]], "n1": 1}
_DEGENERATE_LINEAR = {"kind": "linear", "A": [[1.0, 0.0], [0.0, -1.0]], "D": [[1.0]], "n1": 1}

_DOCS = {
    "thm1_linear": {
        "system": _STD_LINEAR,
        "grid": {"L": 200.0, "N": 4096, "bc": "periodic"},
        "time": {"T": 100.0, "sample_stride": 2},
        "data": [
            {"kind": "gaussian", "component": 0, "amp": 1.0, "width": 10.0, "center": 0.0},
            {"kind": "gaussian", "component": 1, "amp": 1.0, "width": 10.0, "center": 0.0},
        ],
        "weights": [],
        "corrector": {"safety": 0.5},
        "outputs": {"snapshots": [0.0, 50.0, 100.0]},
        "seed": 0,
    },
    "thm2_weighted": {
        "system": _STIFF_LINEAR,
        "grid": {"L": 200.0, "N": 4096, "bc": "compact_support"},
        "time": {"T": 100.0, "sample_stride": 2},
        "data": [
            {"kind": "dgaussian", "component": 0, "amp": 1.0, "width": 1.6, "center": 0.0}
        ],
        "weights": [{"role": "spatial", "kind": "power", "mu": 1.0}],
        "corrector": {"safety": 0.125},
        "outputs": {"snapshots": []},
        "seed": 0,
    },
    "thm3_wave": {
        "system": _STD_LINEAR,
        "grid": {"L": 200.0, "N": 4096, "bc": "compact_support"},
        "time": {"T": 100.0, "sample_stride": 2},
        "data": [
            {"kind": "dgaussian", "component": 0, "amp": 1.0, "width": 9.0, "center": 0.0},
            {"kind": "dgaussian", "component": 1, "amp": 1.0, "width": 9.0, "center": 0.0},
        ],
        "weights": [{"role": "wave", "kind": "power", "mu": 1.0}],
        "corrector": {"safety": 0.5},
        "outputs": {"snapshots": []},
        "seed": 0,
    },
    "kalman_fail": {
        "system": _DEGENERATE_LINEAR,
        "grid": {"L": 200.0, "N": 4096, "bc": "periodic"},
        "time": {"T": 100.0, "sample_stride": 2},
        "data": [
            {"kind": "gaussian", "component": 0, "amp": 1.0, "width": 8.0, "center": 0.0},
            {"kind": "gaussian", "component": 1, "amp": 1.0, "width": 8.0, "center": 0.0},
        ],
        "weights": [],
        "corrector": {"safety": 0.5},
        "outputs": {"snapshots": []},
        "seed": 0,
    },
    "thm4_euler": {
        "system": {"kind": "euler", "gamma": 2.0, "rho_bar": 1.0, "lam": 1.0,
                   "smallness_cap": 0.1},
        "grid": {"L": 200.0, "N": 4096, "bc": "periodic"},
        "time": {"T": 100.0, "sample_stride": 4, "nu": 0.01},
        "data": [
            {"kind": "gaussian", "component": 0, "amp": 0.01, "width": 12.0, "center": 0.0}
        ],
        "weights": [],
        "outputs": {"snapshots": []},
        "seed": 0,
    },
    "thm5_euler_weighted": {
        "system": {"kind": "euler", "gamma": 2.0, "rho_bar": 1.0, "lam": 1.0,
                   "smallness_cap": 0.1},
        "grid": {"L": 240.0, "N": 4096, "bc": "compact_support"},
        "time": {"T": 100.0, "sample_stride": 4, "nu": 0.01},
        "data": [
            {"kind": "dgaussian", "component": 0, "amp": 0.01, "width": 12.0, "center": 0.0}
        ],
        "weights": [
            {"role": "spatial", "kind": "power", "mu": 1.0},
            {"role": "wave", "kind": "power", "mu": 1.0},
        ],
        "outputs": {"snapshots": []},
        "seed": 0,
    },
    "thm6_psystem_log": {
        "system": {"kind": "psystem", "r": 2.0},
        "grid": {"L": 400.0, "N": 8192, "bc": "periodic"},
        "time": {"T": 2000.0, "sample_stride": 25, "nu": 0.01},
        "data": [
            {"kind": "dgaussian", "component": 0, "amp": 0.25, "width": 10.0, "center": 0.0}
        ],
        "weights": [{"role": "wave", "kind": "log", "q": 1.0}],
        "outputs": {"snapshots": []},
        "seed": 0,
    },
    "heat_oracle": {
        "system": {"kind": "heat"},
        "grid": {"L": 100.0, "N": 2048, "bc": "periodic"},
        "time": {"T": 200.0, "sample_stride": 8},
        "data": [
            {"kind": "gaussian", "component": 0, "amp": 1.0, "width": 1.0, "center": 0.0}
        ],
        "weights": [{"role": "spatial", "kind": "power", "mu": 1.0}],
        "outputs": {"snapshots": []},
        "seed": 0,
    },
    "convergence_order": {
        "system": _STD_LINEAR,
        "grid": {"L": 200.0, "N": 4096, "bc": "periodic"},
        "time": {"T": 100.0, "sample_stride": 5},
        "data": [
            {"kind": "gaussian", "component": 0, "amp": 1.0, "width": 10.0, "center": 0.0},
            {"kind": "gaussian", "component": 1, "amp": 1.0, "width": 10.0, "center": 0.0},
        ],
        "weights": [],
        "outputs": {"snapshots": []},
        "seed": 0,
    },
    "ckn_sweep": {
        "system": {"kind": "none"},
        "grid": {"L": 50.0, "N": 4097, "bc": "compact_support"},
        "time": {"T": 1.0},
        "data": [],
        "weights": [],
        "outputs": {"snapshots": []},
        "seed": 12345,
    },
}

DESCRIPTIONS = {
    "thm1_linear": "2x2 relaxation system, H1 data: damped half + gradient decay exponent near -1/2",
    "thm2_weighted": "stiff relaxation, |x|-weighted data: L2 near -1/2, damped+gradient near -1, weighted sup bound",
    "thm3_wave": "relaxation system with antiderivative wave monitor: weighted wave energy nonincreasing",
    "kalman_fail": "decoupled degenerate coupling: rank 1, coefficient selection must refuse, no decay",
    "thm4_euler": "damped isentropic flow, small data: velocity + gradient decay, H2 surrogate monotone",
    "thm5_euler_weighted": "damped flow with weighted data: density near -1/2, velocity+gradient near -1",
    "thm6_psystem_log": "degenerately damped p-system: log-compensated L2 bounded on a long horizon",
    "heat_oracle": "diffusion reference: closed-form L2 decay to 1e-3, weighted decay near -1/2",
    "convergence_order": "energy-law residual drops ~4x when (N, steps) double",
    "ckn_sweep": "weighted interpolation inequality: 50 random bumps + near-optimizer witness",
}

# certificate plans ----------------------------------------------------

CLAIMS = {
    "thm1_linear": [
        {
            "id": "thm1_linear:decay_exponents",
            "check": "fit",
            "channels": ["u2_l2", "dx_l2"],
            "window": [25.0, 100.0],
            "band": [-0.65, -0.38],
            "anchor": "damped-component and gradient L2 norms each fit a power "
                      "(1+t)^alpha with alpha in [-0.65, -0.38] on t in [25, 100]",
        },
        {
            "id": "thm1_linear:lyapunov_monotone",
            "check": "monotone",
            "channel": "lyapunov",
            "tol_rel": 1e-8,
            "anchor": "modified energy never increases between consecutive samples "
                      "beyond 1e-8 of its initial value",
        },
        {
            "id": "thm1_linear:coefficient_constraints",
            "check": "margins",
            "anchor": "all four coupling-coefficient constraint families hold with "
                      "ratio <= 1 and the coercivity sum stays <= 1/2",
        },
    ],
    "thm2_weighted": [
        {
            "id": "thm2_weighted:l2_exponent",
            "check": "fit",
            "channels": ["l2"],
            "window": [25.0, 100.0],
            "band": [-0.65, -0.38],
            "anchor": "L2 norm fits (1+t)^alpha with alpha in [-0.65, -0.38] "
                      "on t in [25, 100]",
        },
        {
            "id": "thm2_weighted:damped_gradient_exponents",
            "check": "fit",
            "channels": ["u2_l2", "dx_l2"],
            "window": [25.0, 100.0],
            "band": [-1.2, -0.8],
            "anchor": "damped-component and gradient norms each fit (1+t)^alpha "
                      "with alpha in [-1.2, -0.8] on t in [25, 100]",
        },
        {
            "id": "thm2_weighted:weighted_sup_bound",
            "check": "weighted_bound",
            "channel": "weighted_l2",
            "factor": 2.0,
            "anchor": "sup over time of the |x|-weighted L2 norm stays below "
                      "2x the weighted data size",
        },
        {
            "id": "thm2_weighted:decay_inequality",
            "check": "decay_inequality",
            "mu": 1.0,
            "slack_rel": 1e-6,
            "anchor": "modified energy satisfies the comparison hypothesis "
                      "d/dt(E1 + eta0 t E2) + a1 E1^2 + a2 E2 <= 0 within "
                      "1e-6 of its initial scale, and the t^-1 conclusion bound holds",
        },
    ],
    "thm3_wave": [
        {
            "id": "thm3_wave:l2_exponent",
            "check": "fit",
            "channels": ["l2"],
            "window": [25.0, 100.0],
            "band": [-0.65, -0.38],
            "anchor": "L2 norm fits (1+t)^alpha with alpha in [-0.65, -0.38] "
                      "on t in [25, 100]",
        },
        {
            "id": "thm3_wave:gradient_exponent",
            "check": "fit",
            "channels": ["dx_l2"],
            "window": [25.0, 100.0],
            "band": [-1.2, -0.8],
            "anchor": "gradient L2 norm fits (1+t)^alpha with alpha in [-1.2, -0.8] "
                      "on t in [25, 100]",
        },
        {
            "id": "thm3_wave:wave_energy_monotone",
            "check": "monotone",
            "channel": "wave_energy",
            "tol_rel": 1e-6,
            "anchor": "space-time weighted wave energy never increases between "
                      "samples beyond 1e-6 of its initial value",
        },
    ],
    "kalman_fail": [
        {
            "id": "kalman_fail:rank_deficiency",
            "check": "rank_deficiency",
            "expected_rank": 1,
            "anchor": "stacked damping-coupling matrix has rank 1 < 2 and "
                      "coefficient selection refuses the system",
        },
        {
            "id": "kalman_fail:no_decay_plateau",
            "check": "fit",
            "channels": ["u1_l2"],
            "window": [25.0, 100.0],
            "band": [-0.05, 0.05],
            "anchor": "undamped-component L2 norm fits (1+t)^alpha with alpha "
                      "in [-0.05, 0.05]: no decay",
        },
    ],
    "thm4_euler": [
        {
            "id": "thm4_euler:decay_exponents",
            "check": "fit",
            "channels": ["u_l2", "dx_l2"],
            "window": [25.0, 100.0],
            "band": [-0.7, -0.35],
            "anchor": "velocity norm and perturbation-gradient norm each fit "
                      "(1+t)^alpha with alpha in [-0.7, -0.35] on t in [25, 100]",
        },
        {
            "id": "thm4_euler:smallness_held",
            "check": "channel_max_below",
            "channel": "h2_raw",
            "bound_key": "smallness_cap",
            "anchor": "H2 size of the perturbation stays below the smallness cap "
                      "for the whole run",
        },
        {
            "id": "thm4_euler:h2_monotone",
            "check": "monotone",
            "channel": "h2_sym",
            "tol_rel": 1e-6,
            "anchor": "H2 norm of the symmetrized variables never increases "
                      "between samples beyond 1e-6 of its initial value",
        },
    ],
    "thm5_euler_weighted": [
        {
            "id": "thm5_euler_weighted:density_exponent",
            "check": "fit",
            "channels": ["n_l2"],
            "window": [25.0, 100.0],
            "band": [-0.65, -0.38],
            "anchor": "density-perturbation L2 norm fits (1+t)^alpha with alpha "
                      "in [-0.65, -0.38] on t in [25, 100]",
        },
        {
            "id": "thm5_euler_weighted:fast_exponents",
            "check": "fit",
            "channels": ["u_l2", "dx_l2"],
            "window": [25.0, 100.0],
            "band": [-1.25, -0.75],
            "anchor": "velocity norm and perturbation-gradient norm each fit "
                      "(1+t)^alpha with alpha in [-1.25, -0.75] on t in [25, 100]",
        },
    ],
    "thm6_psystem_log": [
        {
            "id": "thm6_psystem_log:log_bounded",
            "check": "bounded_product",
            "channel": "l2",
            "q": 1.0,
            "cap": 1.10,
            "anchor": "log(1+t)-compensated L2 norm stays bounded: late/early "
                      "window ratio <= 1.10 past t = 10",
        },
        {
            "id": "thm6_psystem_log:h1_monotone",
            "check": "monotone",
            "channel": "h1",
            "tol_rel": 1e-6,
            "anchor": "H1 norm never increases between samples beyond 1e-6 "
                      "of its initial value",
        },
        {
            "id": "thm6_psystem_log:l2_identity_refines",
            "check": "psystem_refinement",
            "band": [3.2, 4.8],
            "refine": {"T": 10.0, "N": [1024, 2048], "amp": 0.25, "width": 10.0},
            "anchor": "L1-in-time residual of the discrete L2 energy identity "
                      "shrinks by a factor in [3.2, 4.8] when N and step count double",
        },
    ],
    "heat_oracle": [
        {
            "id": "heat_oracle:closed_form",
            "check": "heat_closed_form",
            "rel_tol": 1e-3,
            "window": [1.0, 200.0],
            "anchor": "L2 norm of the Gaussian solution matches "
                      "(pi/2)^(1/4) (1+4t)^(-1/4) to 1e-3 relative on t in [1, 200]",
        },
        {
            "id": "heat_oracle:weighted_exponent",
            "check": "heat_weighted_fit",
            "band": [-0.62, -0.38],
            "window": [50.0, 200.0],
            "data": {"kind": "dgaussian", "amp": 1.0, "width": 14.0},
            "anchor": "L2 norm of a zero-mean run carrying |x|-moment data "
                      "fits (1+t)^alpha with alpha in [-0.62, -0.38] on t in [50, 200]",
        },
    ],
    "convergence_order": [
        {
            "id": "convergence_order:residual_ratio",
            "check": "energy_refinement",
            "band": [3.2, 4.8],
            "refine_N": 8192,
            "anchor": "L1-in-time residual of the discrete energy dissipation law "
                      "shrinks by a factor in [3.2, 4.8] when N and step count double",
        },
    ],
    "ckn_sweep": [
        {
            "id": "ckn_sweep:random_bumps",
            "check": "ckn_random",
            "mus": [0.6, 1.0, 1.5],
            "trials": 50,
            "cap": 1.001,
            "anchor": "weighted interpolation ratio stays <= 1 + 1e-3 for 50 "
                      "random smooth bumps at mu in {0.6, 1.0, 1.5}",
        },
        {
            "id": "ckn_sweep:near_optimizer",
            "check": "ckn_witness",
            "floor": 0.9,
            "L": 2000.0,
            "N": 1048577,
            "mu": 1.0,
            "anchor": "the near-optimizer family reaches ratio >= 0.9 at mu = 1",
        },
    ],
}


def scenario_names():
    return sorted(_DOCS)


def scenario_doc(name):
    if name not in _DOCS:
        raise KeyError(f"unknown scenario {name!r}; have {scenario_names()}")
    return {"scenario": name, **copy.deepcopy(_DOCS[name])}


def scenario_claims(name):
    return copy.deepcopy(CLAIMS.get(name, []))


def describe(name):
    return DESCRIPTIONS.get(name, "")
