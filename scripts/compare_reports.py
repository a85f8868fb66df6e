"""Compare the report.json files of two registry output trees.

    python3 scripts/compare_reports.py OLD_DIR NEW_DIR

Each tree is one that `scripts/run_registry.py --out DIR` writes, with a
`<scenario>/report.json` per run.  Both trees must hold the same
scenarios.  In each scenario every certificate's `measured` block must
stay within perfbench's drift rule of the old one: `_drift` from
`perfbench/run.py`, at the rtol and atol of `perfbench/reference.json`
(1e-8 and 1e-11).  Its `passed` must be equal, and every other field of
`report.json` must serialise to the same bytes.  Prints one line per
difference and exits 1 on any, else 0.
"""

import argparse
import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_run():
    """perfbench/run.py as a module; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reports(root):
    return {p.parent.name: json.loads(p.read_text())
            for p in sorted(Path(root).glob("*/report.json"))}


def _split(report):
    """(the certificates' measured blocks by id, the report without them)."""
    measured = {c["id"]: c.pop("measured", None) for c in report.get("certificates", [])}
    return measured, json.dumps(report, sort_keys=True)


def compare(old_root, new_root, drift, rtol, atol):
    """Every difference between the two trees, one line each."""
    old, new = _reports(old_root), _reports(new_root)
    problems = [f"{name}: report.json in only one tree"
                for name in sorted(set(old) ^ set(new))]
    if not old and not new:
        problems.append("no <scenario>/report.json in either tree")
    for name in sorted(set(old) & set(new)):
        (old_measured, old_rest), (new_measured, new_rest) = _split(old[name]), _split(new[name])
        for cid in sorted(set(old_measured) & set(new_measured)):
            problems += [f"{name}: {p}" for p in
                         drift(new_measured[cid], old_measured[cid], rtol, atol, cid)]
        old_passed = {c["id"]: c["passed"] for c in old[name].get("certificates", [])}
        new_passed = {c["id"]: c["passed"] for c in new[name].get("certificates", [])}
        if old_passed != new_passed:
            problems.append(f"{name}: passed {new_passed} != {old_passed}")
        if old_rest != new_rest:
            problems.append(f"{name}: report.json differs outside the measured blocks")
    return problems, len(set(old) | set(new))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="registry output tree of the old code")
    ap.add_argument("new", help="registry output tree of the new code")
    args = ap.parse_args()
    for root in (args.old, args.new):
        if not Path(root).is_dir():
            ap.error(f"{root} is not a directory")
    ref = json.loads((PERFBENCH / "reference.json").read_text())
    problems, count = compare(args.old, args.new, _perfbench_run()._drift,
                              ref["rtol"], ref["atol"])
    for p in problems:
        print(p)
    print(f"{count} scenarios compared, {len(problems)} differences "
          f"(rtol {ref['rtol']:g}, atol {ref['atol']:g})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
