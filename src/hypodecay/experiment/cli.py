"""Command-line entry point.

Exit codes: 0 all certificates pass, 2 configuration rejected (nothing
written), 3 numerical failure during the run, 4 at least one
certificate failed (outputs written for inspection).
"""

import argparse
import json
import sys
from pathlib import Path

from .config import ConfigError, apply_override, parse_config, read_config
from .runner import batch, failure, resolve_out_dir, run
from .scenarios import describe, scenario_doc, scenario_names


def _parse_set(pairs):
    out = []
    for p in pairs:
        if "=" not in p:
            raise ConfigError(f"--set expects key=value, got {p!r}")
        k, v = p.split("=", 1)
        out.append((k, v))
    return out


def _load_doc(args):
    if args.config:
        doc = read_config(args.config)
    else:
        try:
            doc = scenario_doc(args.scenario)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
    for k, v in _parse_set(args.set or []):
        try:
            apply_override(doc, k, v)
        except ConfigError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad override {k}={v}: {exc}") from None
    return doc


def _cmd_run(args):
    cfg = parse_config(_load_doc(args))
    try:
        report = run(cfg, out_dir=args.out)
    except Exception as exc:  # a bug, too, exits 3 with its traceback, not 1
        code, message = failure(exc)
        print(message, file=sys.stderr)
        return code
    for c in report.certificates:
        tag = "PASS" if c["passed"] else "FAIL"
        print(f"[{tag}] {c['id']} — {c['anchor']}")
    print(f"report: {Path(report.out_dir) / 'report.json'}")
    return report.exit_code


def _cmd_list(_args):
    for name in scenario_names():
        print(f"{name:22s} {describe(name)}")
    return 0


def run_batch(out, jobs, configs):
    """The batch front end of `hypodecay batch` and scripts/run_registry.py:
    run the configs `configs(root)` returns into the root `out` resolves
    to, then print one status line per job and the batch's wall time and
    largest job peak RSS from batch_timing.json.  Returns the batch's exit
    code, or 2 for a ConfigError, raised before anything is written.
    """
    try:
        root = resolve_out_dir(out, "batch")
        aggregate = batch(configs(root), root, jobs=jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    timing = json.loads((root / "batch_timing.json").read_text())
    for r in aggregate["runs"]:
        status = r.get("error") or ("ok" if r["exit_code"] == 0 else "certificate failure")
        job = timing["runs"][r["name"]]
        print(f"[{r['exit_code']}] {r['name']}: {status} "
              f"({job['wall_s']:.1f} s, {job['rss_peak_mb']:.1f} MB)")
    line = f"batch wall time: {timing['wall_s']:.1f} s at --jobs {jobs}"
    if timing["runs"]:
        top = max(timing["runs"], key=lambda name: timing["runs"][name]["rss_peak_mb"])
        line += f", largest peak RSS {timing['runs'][top]['rss_peak_mb']:.1f} MB ({top})"
    print(line)
    print(f"batch report: {root / 'batch_report.json'}")
    return aggregate["exit_code"]


def _cmd_batch(args):
    paths = sorted(Path(args.dir).glob("*.json"))
    if not paths:
        raise ConfigError(f"no *.json configs under {args.dir}")
    return run_batch(args.out, args.jobs, lambda _root: paths)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypodecay",
        description="Desk-scale decay experiments for partially damped systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario or config file")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to a JSON config")
    src.add_argument("--scenario", help="registry scenario id")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path override, e.g. time.T=50")
    p_run.add_argument("--out", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list registry scenarios")
    p_list.set_defaults(func=_cmd_list)

    p_batch = sub.add_parser("batch", help="run every config in a directory")
    p_batch.add_argument("--dir", required=True, help="directory of *.json configs")
    p_batch.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_batch.add_argument("--out", help="output root directory")
    p_batch.set_defaults(func=_cmd_batch)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
