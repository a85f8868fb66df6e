"""Run the full scenario registry through the batch driver.

Materializes every registry config as JSON under <out>/configs/ and
runs the configs it wrote (never ones an earlier run left there) through
`hypodecay batch`'s front end, which prints a status line per scenario.
The exit code is the worst over the runs (0 ok, 2 config rejected, 3
numerical failure, 4 certificate failed), so this script doubles as a
reproduction gate: a zero exit means every certificate passed.  An
empty --out, or one that cannot be created, exits 2 with nothing written.

Outputs land under <out>/<scenario>/ (series.csv, snapshots, report.json,
timing.json) plus <out>/batch_report.json.  Re-running with a different
--jobs value must reproduce every non-timing file byte for byte.
"""

import argparse
import json
import sys

from hypodecay.experiment import scenario_doc, scenario_names
from hypodecay.experiment.cli import run_batch
from hypodecay.experiment.runner import make_dir


def write_configs(names, root):
    """Write each named scenario's config to <root>/configs/; return the paths."""
    cfg_dir = root / "configs"
    make_dir(cfg_dir)
    paths = sorted({cfg_dir / f"{name}.json" for name in names})
    for path in paths:
        with open(path, "w") as fh:
            json.dump(scenario_doc(path.stem), fh, indent=2)
    return paths


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
    return run_batch(args.out, args.jobs, lambda root: write_configs(names, root))


if __name__ == "__main__":
    sys.exit(main())
