"""Compare two registry output trees, or a tree with the committed reference.

    python3 scripts/compare_reports.py OLD_DIR NEW_DIR
    python3 scripts/compare_reports.py --regenerate DIR

Each tree is one that `scripts/run_registry.py --out DIR` writes, with a
`<scenario>/report.json` and the run's `*.csv` files per scenario.

One rule compares them: perfbench's drift rule, `_drift` from
`perfbench/run.py`, at the rtol and atol of `perfbench/reference.json`
(1e-8 and 1e-11).  Every number must stay within rtol of the old one
plus atol; every string, bool, key set and list length must be equal.

Comparing: both trees must hold the same scenarios.  Each scenario's
`report.json` is held to the rule as a whole, with its certificates
keyed by `id`, so that a message names the scenario and the
certificate.  Both scenario directories must hold the same `*.csv`
files; each file must keep its header and row count, and every value
must stay within the rule.  Prints one line per difference (one per file
for CSV values) and exits 1 on any, else 0.

Regenerating: writes `tests/data/registry_measured.json`, each
certificate's `passed` and `measured` by scenario, from DIR.  The tier-1
suite holds every certificate of the registry it runs to that file by
the same rule (`check_reference`), so a change that moves a certified
value beyond roundoff fails there.  Regenerate only on purpose, from a
tree of the code that should be the new reference.
"""

import argparse
import csv
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
REFERENCE = ROOT / "tests" / "data" / "registry_measured.json"


def _perfbench_run():
    """perfbench/run.py as a module; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def drift_rule():
    """(drift, rtol, atol) of perfbench."""
    ref = json.loads((PERFBENCH / "reference.json").read_text())
    return _perfbench_run()._drift, ref["rtol"], ref["atol"]


def reports(root):
    """{scenario: its report.json, with the certificates keyed by id}."""
    found = {}
    for path in sorted(Path(root).glob("*/report.json")):
        report = json.loads(path.read_text())
        report["certificates"] = {c["id"]: c for c in report.get("certificates", [])}
        found[path.parent.name] = report
    return found


def _cells(row):
    out = []
    for cell in row:
        try:
            out.append(float(cell))
        except ValueError:
            out.append(cell)
    return out


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[:1], [_cells(r) for r in rows[1:]]


def compare_csvs(name, old_dir, new_dir, rule):
    """Differences between the `*.csv` files of two scenario directories."""
    drift, rtol, atol = rule
    old = {p.name for p in old_dir.glob("*.csv")}
    new = {p.name for p in new_dir.glob("*.csv")}
    problems = [f"{name}/{f}: in only one tree" for f in sorted(old ^ new)]
    for f in sorted(old & new):
        (old_head, old_rows), (new_head, new_rows) = _read_csv(old_dir / f), _read_csv(new_dir / f)
        if old_head != new_head:
            problems.append(f"{name}/{f}: header {new_head} != {old_head}")
        elif len(old_rows) != len(new_rows):
            problems.append(f"{name}/{f}: {len(new_rows)} rows != {len(old_rows)}")
        else:
            bad = [p for i, (n, o) in enumerate(zip(new_rows, old_rows), 1)
                   for p in drift(n, o, rtol, atol, f"row {i}")]
            if bad:
                problems.append(f"{name}/{f}: {len(bad)} differences, the first {bad[0]}")
    return problems


def compare(old_root, new_root, rule):
    """Every difference between the two trees, and the number of scenarios seen."""
    drift, rtol, atol = rule
    old, new = reports(old_root), reports(new_root)
    problems = [f"{name}: report.json in only one tree"
                for name in sorted(set(old) ^ set(new))]
    if not old and not new:
        problems.append("no <scenario>/report.json in either tree")
    for name in sorted(set(old) & set(new)):
        problems += drift(new[name], old[name], rtol, atol, name)
        problems += compare_csvs(name, Path(old_root) / name, Path(new_root) / name, rule)
    return problems, len(set(old) | set(new))


def reference_of(tree_reports):
    """{scenario: {certificate id: {passed, measured}}}: what the reference file holds."""
    return {name: {cid: {"passed": c["passed"], "measured": c.get("measured")}
                   for cid, c in report["certificates"].items()}
            for name, report in sorted(tree_reports.items())}


def check_reference(reference, tree_reports, rule):
    """Differences of a tree's reports from the reference file, by the same rule."""
    drift, rtol, atol = rule
    return drift(reference_of(tree_reports), reference, rtol, atol, "tree")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", metavar="DIR",
                    help="OLD_DIR NEW_DIR to compare, or one DIR with --regenerate")
    ap.add_argument("--regenerate", action="store_true",
                    help="write tests/data/registry_measured.json from the one tree DIR")
    args = ap.parse_args()
    if len(args.trees) != (1 if args.regenerate else 2):
        ap.error("give OLD_DIR NEW_DIR, or --regenerate DIR")
    for root in args.trees:
        if not Path(root).is_dir():
            ap.error(f"{root} is not a directory")
    if args.regenerate:
        found = reports(args.trees[0])
        if not found:
            ap.error(f"no <scenario>/report.json under {args.trees[0]}")
        REFERENCE.parent.mkdir(parents=True, exist_ok=True)
        REFERENCE.write_text(json.dumps(reference_of(found), indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE}: {len(found)} scenarios")
        return 0
    rule = drift_rule()
    problems, count = compare(*args.trees, rule)
    for p in problems:
        print(p)
    print(f"{count} scenarios compared, {len(problems)} differences "
          f"(rtol {rule[1]:g}, atol {rule[2]:g})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
