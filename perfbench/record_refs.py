"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py [workload ...]

Runs every invocation seed of POOL once through entguess.cli.main and
writes refs/<workload>.json: per seed, the lhs each report printed (its
defect must be far inside the relation's tolerance, so the value stands
for both sides), or the game's analytic rate.  Every recorded invocation
must exit 0 with every report holding, so a workload run on these seeds
has no failing operation.
Re-record only when the program's output is meant to change.
"""

import json
import sys

import workloads as wl
from worker import git_sha


def record(w, cli):
    out = wl.OUT / "record.json"
    values = {}
    for seed in wl.POOL:
        rc = cli.main(wl.argv_for(w, seed, out))
        doc = json.loads(out.read_text())
        if rc != 0:
            raise SystemExit(f"{w.name} seed {seed}: exit code {rc}")
        if w.command == "game":
            values[str(seed)] = doc["analytic_rate"]
            continue
        for r in doc:
            if r["verdict"] != "holds" or r["defect"] > w.tolerance / 1000:
                raise SystemExit(f"{w.name} seed {seed}: report {r} is no reference")
        values[str(seed)] = [r["lhs"] for r in doc]
    out.unlink()
    return values


def main(names):
    cli = wl.import_cli()
    wl.OUT.mkdir(exist_ok=True)
    for name in names or wl.WORKLOADS:
        w = wl.WORKLOADS[name]
        doc = {"workload": w.name, "args": list(w.args), "git_sha": git_sha(),
               "values": record(w, cli)}
        (wl.REFS / f"{w.name}.json").write_text(json.dumps(doc, indent=0) + "\n")
        print(f"recorded {w.name}: {len(doc['values'])} seeds")


if __name__ == "__main__":
    main(sys.argv[1:])
