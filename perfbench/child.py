"""One benchmark step in a fresh interpreter; `run.py` starts it.

    python3 perfbench/child.py MODE SPEC_JSON

MODE is one of
  prepare  write the workload's configs (registry docs, seed, patches)
  setup    import `hypodecay.experiment` and parse the configs
  exec     setup, then one execution of the workload (traced if asked)
  micro    kernel microbenchmarks

The last line of standard output is the step's result as JSON.
"""

import json
import resource
import sys
import time
from pathlib import Path

_clock = time.perf_counter


def _prepare(spec):
    from hypodecay.experiment import apply_override, parse_config, scenario_doc

    paths = []
    for name in spec["scenarios"]:
        doc = scenario_doc(name)
        for dotted, value in spec["patch"].get(name, {}).items():
            apply_override(doc, dotted, json.dumps(value))
        if spec["seed"] is not None:
            doc["seed"] = spec["seed"]
        parse_config(doc)
        path = Path(spec["config_dir"]) / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        paths.append(str(path))
    return {"configs": paths}


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _rss_peak_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def _setup_and_exec(spec, execute):
    t0 = _clock()
    from hypodecay.experiment import runner

    rec = None
    if execute and spec["trace"]:
        import tracing

        rec = tracing.install(spec["trace_dir"])
        rec.open("setup", t0)
    docs = [json.loads(Path(p).read_text()) for p in spec["configs"]]
    cfgs = [runner.parse_config(doc) for doc in docs]
    if rec is not None:
        rec.close(_clock())
    setup_s = _clock() - t0
    if not execute:
        return {"setup_s": setup_s}

    out = Path(spec["out_dir"])
    cpu0 = _cpu_s()
    t1 = _clock()
    if rec is not None:
        rec.open("execution", t1)
    if spec["jobs"] is None:
        (cfg,) = cfgs
        exit_code = runner.run(cfg, out_dir=out).exit_code
    else:
        exit_code = runner.batch(spec["configs"], out, jobs=spec["jobs"])["exit_code"]
    t2 = _clock()
    if rec is not None:
        rec.close(t2)
    result = {
        "setup_s": setup_s,
        "run_s": t2 - t1,
        "cpu_s": _cpu_s() - cpu0,
        "rss_peak_mb": _rss_peak_mb(),
        "exit_code": exit_code,
    }
    if rec is not None:
        result["trace"] = rec.dump()
        result["workers"] = [
            json.loads(p.read_text())
            for p in sorted(Path(spec["trace_dir"]).glob("job-*.json"))
        ]
    return result


def main(mode, spec_path):
    spec = json.loads(Path(spec_path).read_text())
    if mode == "prepare":
        result = _prepare(spec)
    elif mode == "setup":
        result = _setup_and_exec(spec, execute=False)
    elif mode == "exec":
        result = _setup_and_exec(spec, execute=True)
    elif mode == "micro":
        import micro

        result = micro.run(spec["seed"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
