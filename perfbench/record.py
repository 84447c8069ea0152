"""Record reference summaries of the current program's outputs.

    python3 perfbench/record.py SEEDS [WORKLOAD ...]

SEEDS is a range such as 0-23.  For each workload (default: all) and
seed, this writes the inputs, runs one pass of the commands, requires
every oracle check to pass, and stores the input digests and output
summaries (checks.summarize) in perfbench/references.json.  run.py
compares later runs on those seeds against them at the checks' 1e-8
tolerance, with counts exact.  Re-record only when the workloads or
the input generator change, never to absorb a change in results.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import inputs


def record(name, seed, work):
    wl = run.WORKLOADS[name]
    farm = inputs.write_farm(work / "in", wl.rows, wl.cols, wl.t_len, wl.rate, seed)
    specs = run.command_specs(name, farm, seed, work / "out")
    result = run.run_worker(work, "record", specs, "once", 0.0,
                            time.monotonic() + run.DEADLINE_S, run.child_env())
    if any(code != 0 for code in result["passes"][0]["codes"].values()):
        raise SystemExit(f"{name} seed {seed}: a command failed")
    problems, summaries = run.check_outputs(name, farm, specs, seed)
    if any(problems.values()):
        raise SystemExit(f"{name} seed {seed}: {problems}")
    return {"inputs": farm.digests, "commands": summaries}


def main(argv):
    lo, _, hi = argv[0].partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    names = argv[1:] or list(run.WORKLOADS)
    path = run.HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    work = run.ROOT / ".perfbench-work" / "record"
    for name in names:
        for seed in seeds:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            refs.setdefault(name, {})[str(seed)] = record(name, seed, work)
            print(f"recorded {name} seed {seed}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    path.write_text(_nested(refs))


def _nested(refs):
    """JSON with one line per (workload, seed) entry, for readable diffs."""
    parts = []
    for name in sorted(refs):
        entries = [
            f"  {json.dumps(seed)}: {json.dumps(refs[name][seed], sort_keys=True)}"
            for seed in sorted(refs[name], key=int)
        ]
        parts.append(f"{json.dumps(name)}: {{\n" + ",\n".join(entries) + "\n}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main(sys.argv[1:])
