"""Run the full scenario registry through the batch driver.

Materializes every registry config as JSON under <out>/configs/, runs
the configs it wrote share-nothing (never ones an earlier run left
there), and prints one status line per scenario.  The exit code is the
worst exit code over the runs (0 ok, 2 config rejected, 3 numerical
failure, 4 certificate failed), so this script doubles as a
reproduction gate: a zero exit means every certificate passed.  Each
status line ends with the run's wall time and its process's peak RSS,
and the last line gives the batch's wall time and the largest job peak
RSS with its job's name, all from batch_timing.json: the slowest run is
the sweep's critical path, and the largest peak sets the sweep's memory
ceiling among the jobs.

Outputs land under <out>/<scenario>/ (series.csv, snapshots, report.json,
timing.json) plus <out>/batch_report.json.  Re-running with a different
--jobs value must reproduce every non-timing file byte for byte.
"""

import argparse
import json
import sys
from pathlib import Path

from hypodecay.experiment import batch, scenario_doc, scenario_names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/registry", help="output root")
    ap.add_argument("--jobs", type=int, default=4, help="worker processes")
    ap.add_argument("names", nargs="*", help="subset of scenarios (default: all)")
    args = ap.parse_args()

    names = args.names or scenario_names()
    unknown = sorted(set(names) - set(scenario_names()))
    if unknown:
        ap.error(f"unknown scenarios: {unknown}; try `hypodecay list`")

    out = Path(args.out)
    cfg_dir = out / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = sorted({cfg_dir / f"{name}.json" for name in names})
    for path in paths:
        with open(path, "w") as fh:
            json.dump(scenario_doc(path.stem), fh, indent=2)

    agg = batch(paths, out, jobs=args.jobs)
    timing = json.loads((out / "batch_timing.json").read_text())
    for r in agg["runs"]:
        status = r.get("error") or ("ok" if r["exit_code"] == 0 else "certificate failure")
        job = timing["runs"][r["name"]]
        print(f"[{r['exit_code']}] {r['name']}: {status} "
              f"({job['wall_s']:.1f} s, {job['rss_peak_mb']:.1f} MB)")
    line = f"batch wall time: {timing['wall_s']:.1f} s at --jobs {args.jobs}"
    if timing["runs"]:
        top = max(timing["runs"], key=lambda name: timing["runs"][name]["rss_peak_mb"])
        line += f", largest peak RSS {timing['runs'][top]['rss_peak_mb']:.1f} MB ({top})"
    print(line)
    print(f"batch report: {out / 'batch_report.json'}")
    return agg["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
