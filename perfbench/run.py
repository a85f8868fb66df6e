"""hypodecay benchmark: time to a certified report, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every step runs in a fresh
interpreter (`child.py`) with `src/` on the path and the BLAS/OpenMP
thread pools pinned to one thread. The loop is closed: one execution
at a time, the next after the previous one ends, at least three per run,
until S seconds have passed. Every execution is checked (exit code 0,
every certificate passed, `report.json` byte-identical across the
executions of the run, measured values within a roundoff tolerance of
`reference.json`).

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
split from traced executions, interleaved with untraced ones for the
tracing overhead, plus the kernel microbenchmarks. Human-readable lines
come first; the last line is the result as JSON.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
REGISTRY_FAST = [
    "ckn_sweep", "convergence_order", "heat_oracle", "kalman_fail",
    "thm1_linear", "thm2_weighted", "thm3_wave", "thm4_euler",
    "thm5_euler_weighted",
]
# scenarios, per-scenario dotted-path patches, batch workers (None: run())
WORKLOADS = {
    "psystem_long": (["thm6_psystem_log"], {"thm6_psystem_log": {"time.T": 200.0}}, None),
    "linear_observers": (["thm3_wave"], {}, None),
    "registry_fast": (REGISTRY_FAST, {}, 2),
}
DEADLINE_S = 170.0
MIN_EXECUTIONS = 3
SETUP_PROBES = 3
# Share of the traced wall time that the layer spans must account for.
COVERAGE_MIN = 0.95
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Bench:
    """Children, their work directory and the wall-clock deadline of one run."""

    def __init__(self, root, work, deadline_s=DEADLINE_S):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + deadline_s
        self.env = dict(os.environ, **PINNED)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.steps = 0

    def child(self, mode, spec):
        """Run one child step; returns (result dict or None, error text)."""
        self.steps += 1
        spec_path = self.work / f"spec-{self.steps}.json"
        spec_path.write_text(json.dumps(spec))
        timeout = max(1.0, self.deadline - time.monotonic())
        # A session of its own, so a timeout also ends forked batch workers.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, str(spec_path)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, f"{mode} step timed out after {timeout:.0f} s"
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
            return None, f"{mode} step exited {proc.returncode}: {tail[0]}"
        return json.loads(stdout.strip().splitlines()[-1]), None


# --- correctness -------------------------------------------------------


def _drift(measured, ref, rtol, atol, where):
    if isinstance(ref, dict) and isinstance(measured, dict):
        if set(ref) != set(measured):
            return [f"{where}: keys {sorted(measured)} != {sorted(ref)}"]
        return [p for k in ref for p in _drift(measured[k], ref[k], rtol, atol, f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(measured, list):
        if len(ref) != len(measured):
            return [f"{where}: length {len(measured)} != {len(ref)}"]
        return [p for i, (m, r) in enumerate(zip(measured, ref))
                for p in _drift(m, r, rtol, atol, f"{where}[{i}]")]
    numbers = (int, float)
    if (isinstance(ref, numbers) and isinstance(measured, numbers)
            and not isinstance(ref, bool) and not isinstance(measured, bool)):
        if abs(measured - ref) <= rtol * abs(ref) + atol:
            return []
        return [f"{where}: {measured!r} drifted from {ref!r}"]
    return [] if measured == ref else [f"{where}: {measured!r} != {ref!r}"]


class Checker:
    """Correctness of executions: certificates, byte identity, drift."""

    def __init__(self, reference):
        self.ref = reference
        self.first_bytes = {}

    def check(self, out_dir):
        problems = []
        reports = sorted(out_dir.rglob("*report.json"))
        if not reports:
            return ["no report.json written"]
        for path in reports:
            key = str(path.relative_to(out_dir))
            data = path.read_bytes()
            if self.first_bytes.setdefault(key, data) != data:
                problems.append(f"{key} differs from the run's first execution")
            if path.name != "report.json":
                continue
            for cert in json.loads(data)["certificates"]:
                problems.extend(self._certificate(cert))
        return problems

    def _certificate(self, cert):
        cid = cert["id"]
        if not cert["passed"]:
            return [f"{cid} did not pass"]
        if cid not in self.ref["certificates"]:
            return [f"{cid} has no reference value"]
        if cid in self.ref["seed_dependent"]:
            return []
        return _drift(cert["measured"], self.ref["certificates"][cid],
                      self.ref["rtol"], self.ref["atol"], cid)


# --- per-layer metrics from a traced execution --------------------------


def _nodes(result):
    """(path, calls, total_s, self_s) of the main process and every worker."""
    trees = [result["trace"]] + result["workers"]
    return [(tuple(p), c, tot, slf) for t in trees for p, c, tot, slf in t["tree"]]


def _counts(result):
    return sum((Counter(t["counts"]) for t in [result["trace"]] + result["workers"]),
               Counter())


def _outer(nodes, names, within=None):
    """Calls and inclusive time of outermost spans named in `names`."""
    calls, total = 0, 0.0
    for path, c, tot, _ in nodes:
        if path[-1] in names and not set(path[:-1]) & set(names):
            if within is None or within in path:
                calls += c
                total += tot
    return calls, total


def layer_metrics(result, jobs):
    nodes = _nodes(result)
    counts = _counts(result)

    def t(*names, within=None):
        return _outer(nodes, names, within)[1]

    def n(*names):
        return _outer(nodes, names)[0]

    simulate, observer = t("solvers.simulate"), t("solvers.observer")
    if result["workers"]:
        busy, wall = t("experiment.job"), t("experiment.batch")
    else:
        busy, wall, jobs = t("experiment.run"), t("execution"), 1
    return {
        "grids.d_dx_s": t("grids.d_dx"),
        "grids.d_dx_calls": n("grids.d_dx"),
        "grids.fourth_difference_s": t("grids.fourth_difference"),
        "grids.fourth_difference_calls": n("grids.fourth_difference"),
        "grids.norm_s": t("grids.l2_norm", "grids.inner"),
        "solvers.steps": counts["solvers.steps"],
        "solvers.samples": counts["solvers.samples"],
        "solvers.step_self_s": sum(s for p, _, _, s in nodes if p[-1] == "solvers.simulate"),
        "solvers.ns_per_point_step":
            (simulate - observer) / counts["solvers.point_steps"] * 1e9,
        "solvers.observer_s": observer,
        "solvers.wave_s": t("solvers.wave"),
        "corrector.select_s": t("corrector.select"),
        "corrector.lyapunov_s": t("corrector.lyapunov"),
        "corrector.lyapunov_calls": n("corrector.lyapunov"),
        "linalg.spec_s": t("linalg.spec"),
        "analysis.check_s": t("analysis.check"),
        "experiment.parse_s": t("experiment.parse"),
        "experiment.certify_s": t("experiment.certify"),
        "experiment.subrun_s": t("solvers.simulate", within="experiment.certify"),
        "experiment.write_s": t("experiment.write"),
        "experiment.batch_idle_frac": 1.0 - busy / (jobs * wall),
    }


EXACT_COUNTS = ["solvers.steps", "solvers.samples", "grids.d_dx_calls",
                "grids.fourth_difference_calls", "corrector.lyapunov_calls"]


def trace_problems(result):
    """Self-checks of one traced execution; returns (coverage, problems)."""
    problems = []
    for path, calls, _, self_s in _nodes(result):
        if self_s < -1e-6 * calls:
            problems.append(f"span {'/'.join(path)} has negative self time {self_s:.3g} s")
    (_, _, root_s, root_self_s), = [n for n in _nodes(result) if n[0] == ("execution",)]
    coverage = (root_s - root_self_s) / result["run_s"]
    if not COVERAGE_MIN <= coverage <= 1.0 + 1e-9:
        problems.append(f"layer spans cover {coverage:.3f} of the traced wall time, "
                        f"outside [{COVERAGE_MIN}, 1]")
    return coverage, problems


# --- the run -----------------------------------------------------------


def provenance(root):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    rev = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "git_rev": rev,
        "src_lines": src_lines,
        "threads_pinned": PINNED,
    }


def measure(bench, workload, seed, seconds, trace, say):
    scenarios, patch, jobs = WORKLOADS[workload]
    reference = json.loads((HERE / "reference.json").read_text())
    checker = Checker(reference)
    config_dir = bench.work / "configs"
    config_dir.mkdir()
    prep, err = bench.child("prepare", {"scenarios": scenarios, "patch": patch,
                                        "seed": seed, "config_dir": str(config_dir)})
    if prep is None:
        raise RuntimeError(err)
    base = {"configs": prep["configs"], "jobs": jobs, "trace": False}

    metrics, setups, execs = {}, [], []
    if trace:
        micro, err = bench.child("micro", {"seed": seed})
        if micro is None:
            raise RuntimeError(err)
        metrics.update(micro)
    else:
        for _ in range(SETUP_PROBES):
            res, err = bench.child("setup", base)
            if res is None:
                raise RuntimeError(err)
            setups.append(res["setup_s"])

    started = time.monotonic()
    while True:
        traced = trace and len(execs) % 2 == 1
        done = sum(1 for e in execs if e[0] == trace)
        if done >= MIN_EXECUTIONS and time.monotonic() - started >= seconds:
            break
        k = len(execs)
        out = bench.work / f"out-{k}"
        spec = dict(base, out_dir=str(out), trace=traced,
                    trace_dir=str(bench.work / f"trace-{k}"))
        if traced:
            Path(spec["trace_dir"]).mkdir()
        res, err = bench.child("exec", spec)
        problems = [err] if res is None else []
        if res is not None:
            if res["exit_code"] != 0:
                problems.append(f"workload exit code {res['exit_code']}")
            problems += checker.check(out)
        if res is not None and traced:
            res["coverage"], tp = trace_problems(res)
            problems += tp
        shutil.rmtree(out, ignore_errors=True)
        execs.append((traced, res, problems))
        if res is not None:
            say(f"execution {k}{' traced' if traced else ''}: run_s {res['run_s']:.4f} "
                f"cpu_s {res['cpu_s']:.4f} setup_s {res['setup_s']:.4f}")
        for p in problems:
            say(f"execution {k} failed: {p}")
        if res is None:
            break

    attempted = len(execs)
    failed = sum(1 for _, _, p in execs if p)
    plain = [r for tr, r, p in execs if not p and not tr]
    traced_ok = [r for tr, r, p in execs if not p and tr]
    counts_repeat = True
    if trace:
        per_exec = [layer_metrics(r, jobs) for r in traced_ok]
        exact = {tuple(m[c] for c in EXACT_COUNTS) for m in per_exec}
        counts_repeat = len(exact) <= 1
        if not counts_repeat:
            say(f"exact counts differ across traced executions: {sorted(exact)}")
        if per_exec and plain:
            for name in per_exec[0]:
                values = [m[name] for m in per_exec]
                metrics[name] = values[0] if name in EXACT_COUNTS else statistics.median(values)
            metrics["trace.overhead_s"] = (
                statistics.median(r["run_s"] for r in traced_ok)
                - statistics.median(r["run_s"] for r in plain))
            metrics["trace.coverage_frac"] = statistics.median(r["coverage"] for r in traced_ok)
        say(f"executions: {len(traced_ok)} traced, {len(plain)} untraced, {failed} failed")
    elif plain:
        setups += [r["setup_s"] for r in plain]
        summary = {
            "setup_s": setups,
            "run_s": [r["run_s"] for r in plain],
            "cpu_s": [r["cpu_s"] for r in plain],
            "rss_peak_mb": [r["rss_peak_mb"] for r in plain],
        }
        for name, values in summary.items():
            metrics[name] = statistics.median(values)
            say(f"{name} median {metrics[name]:.6g} over {len(values)} samples")
        metrics["pass_frac"] = (attempted - failed) / attempted
    correct = bool(failed == 0 and plain and (traced_ok or not trace) and counts_repeat)
    return correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hypodecay" / "experiment" / "__init__.py").is_file():
        print("run from the root of a hypodecay checkout (no src/hypodecay here)",
              file=sys.stderr)
        return 2
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    def say(line):
        print(line, flush=True)

    say("provenance " + json.dumps(provenance(root), sort_keys=True))
    say(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    work = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        correct, attempted, failed, metrics = measure(
            Bench(root, work), args.workload, args.seed, args.seconds,
            bool(args.trace), say)
    except RuntimeError as exc:
        say(f"run failed: {exc}")
        correct, attempted, failed, metrics = False, 1, 1, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if correct and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    for name in sorted(metrics):
        say(f"metric {name} {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
