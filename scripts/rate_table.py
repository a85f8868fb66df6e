"""Tabulate fitted decay exponents from a finished sweep.

Walks <root>/*/report.json, pulls every power-law-fit certificate, and
prints an aligned table: scenario, channel, fitted exponent, allowed
band, fit window, verdict.  After the table it lists every failed
certificate that has no fitted exponent, with its error, so a fit that
raised (a window with too few samples, say) still shows.  Also writes
<root>/rates.csv for downstream plotting.  Run scripts/run_registry.py
first (or point --root at any batch output directory).
"""

import argparse
import csv
import json
import sys
from pathlib import Path


def collect(root):
    """(table rows, (scenario, certificate id, error) of each failed
    certificate with no `alpha`)."""
    rows, failed = [], []
    for report_path in sorted(root.glob("*/report.json")):
        rep = json.loads(report_path.read_text())
        for cert in rep["certificates"]:
            m = cert["measured"]
            if "alpha" not in m:
                if not cert["passed"]:
                    failed.append((rep["scenario"], cert["id"], m.get("error", "failed")))
                continue
            alphas = m["alpha"] if isinstance(m["alpha"], dict) else {"l2": m["alpha"]}
            for channel, alpha in sorted(alphas.items()):
                rows.append({
                    "scenario": rep["scenario"],
                    "channel": channel,
                    "alpha": alpha,
                    "band_lo": m["band"][0],
                    "band_hi": m["band"][1],
                    "t0": m["window"][0],
                    "t1": m["window"][1],
                    "passed": cert["passed"],
                })
    return rows, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default="runs/registry", help="batch output root")
    args = ap.parse_args()
    root = Path(args.root)

    rows, failed = collect(root)
    if rows:
        _table(root, rows)
    elif not failed:
        print(f"no fit certificates under {root}", file=sys.stderr)
    if failed:
        print("\nfailed with no fitted exponent:")
        for scenario, cid, error in failed:
            print(f"{scenario:22s} {cid}: {error}")
    return 0 if rows else 1


def _table(root, rows):
    print(f"{'scenario':22s} {'channel':8s} {'alpha':>8s} {'band':>16s} "
          f"{'window':>12s}  verdict")
    for r in rows:
        band = f"[{r['band_lo']:g}, {r['band_hi']:g}]"
        window = f"[{r['t0']:g}, {r['t1']:g}]"
        verdict = "ok" if r["passed"] else "FAIL"
        print(f"{r['scenario']:22s} {r['channel']:8s} {r['alpha']:8.4f} "
              f"{band:>16s} {window:>12s}  {verdict}")

    out_csv = root / "rates.csv"
    with open(out_csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"\nwrote {out_csv}")


if __name__ == "__main__":
    sys.exit(main())
