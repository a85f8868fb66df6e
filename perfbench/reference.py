"""Regenerate the benchmark's stored references.

    python3 perfbench/reference.py certs   # writes perfbench/reference.json
    python3 perfbench/reference.py sweep   # writes perfbench/reference_sweep.json

`certs` runs every workload once at seeds 0 and 1 and stores the seed-0
`measured` block of each certificate; certificates whose values differ
between the two seeds are marked seed-dependent and are checked only by
passing and byte identity. `sweep` times the full-horizon ten-scenario
registry (serial and two batch workers) and `thm6_psystem_log` alone
with the benchmark's own timer; it is an ungated reference for the
hand-measured baseline. Run from the root of a source checkout; `sweep`
takes about four minutes on two cores.
"""

import json
import os
import shutil
import sys
from pathlib import Path

from run import HERE, REGISTRY_FAST, WORKLOADS, Bench, provenance

RTOL = 1e-8
ATOL = 1e-11


def _execute(bench, tag, scenarios, patch, seed, jobs):
    config_dir = bench.work / f"configs-{tag}"
    config_dir.mkdir()
    prep, err = bench.child("prepare", {"scenarios": scenarios, "patch": patch,
                                        "seed": seed, "config_dir": str(config_dir)})
    if prep is None:
        raise RuntimeError(err)
    out = bench.work / f"out-{tag}"
    res, err = bench.child("exec", {"configs": prep["configs"], "jobs": jobs,
                                    "trace": False, "out_dir": str(out)})
    if res is None or res["exit_code"] != 0:
        raise RuntimeError(err or f"{tag} exited {res['exit_code']}")
    return res, out


def certs(bench):
    by_seed = []
    for seed in (0, 1):
        values = {}
        for workload, (scenarios, patch, jobs) in WORKLOADS.items():
            _, out = _execute(bench, f"{workload}-{seed}", scenarios, patch, seed, jobs)
            for path in sorted(out.rglob("report.json")):
                for cert in json.loads(path.read_text())["certificates"]:
                    if values.setdefault(cert["id"], cert["measured"]) != cert["measured"]:
                        raise RuntimeError(f"{cert['id']} differs between workloads")
        by_seed.append(values)
    seed0, seed1 = by_seed
    doc = {
        "rtol": RTOL,
        "atol": ATOL,
        "seed_dependent": sorted(c for c in seed0 if seed0[c] != seed1[c]),
        "certificates": seed0,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def sweep(bench):
    everything = sorted(REGISTRY_FAST + ["thm6_psystem_log"])
    runs = {
        "registry_serial": (everything, 1),
        "registry_jobs2": (everything, 2),
        "thm6_psystem_log": (["thm6_psystem_log"], None),
    }
    measured = {}
    for tag, (scenarios, jobs) in runs.items():
        res, _ = _execute(bench, tag, scenarios, {}, None, jobs)
        measured[tag] = {k: res[k] for k in ("run_s", "cpu_s", "rss_peak_mb", "setup_s")}
        print(tag, json.dumps(measured[tag]), flush=True)
    doc = {
        "note": "ungated: full-horizon registry configs, one execution each, "
                "timed by child.py (run_s excludes interpreter start and setup)",
        "provenance": provenance(bench.root),
        "measured": measured,
    }
    (HERE / "reference_sweep.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(what):
    root = Path.cwd()
    work = root / ".perfbench" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        {"certs": certs, "sweep": sweep}[what](Bench(root, work, deadline_s=1800.0))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
