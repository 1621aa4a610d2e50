"""Record the expected output of every benchmark command in expected.json.

Run from the repository root, on a commit whose output is known good::

    python3 perfbench/record.py

For each workload it runs every command once, untraced, and records its
exit code, stdout sha256 and per-check verdict counts: seed-independent
commands once (key "any"), seeded ones for RECORDED_SEEDS.  It then runs
the traced pass at the default seed and records the exact counts and
``search.pair_reuse`` that run.py reports.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads

RECORDED_SEEDS = range(10)


def record_command(cmd: workloads.Command) -> dict:
    result = run.spawn(run.cli_argv(cmd.argv))
    if result["code"] != 0:
        raise SystemExit(f"{cmd.id} exited {result['code']}: {result['stderr']}")
    return {"exit": result["code"], "sha256": hashlib.sha256(result["stdout"]).hexdigest(),
            "verdicts": run.verdict_summary(result["stdout"])}


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        commands: dict = {}
        for seed in RECORDED_SEEDS:
            for cmd in workload.commands(seed):
                key = str(seed) if cmd.seeded else "any"
                if key not in commands.setdefault(cmd.id, {}):
                    commands[cmd.id][key] = record_command(cmd)
        recorded[name] = {"commands": commands}
        print(f"{name}: recorded {sum(len(v) for v in commands.values())} outputs", flush=True)
    run.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")

    for name, workload in workloads.WORKLOADS.items():
        checker = run.Checker(workload, workloads.DEFAULT_SEED)
        metrics, _, notes = run.traced_run(workload, workload.commands(workloads.DEFAULT_SEED),
                                           checker)
        if checker.failed or checker.problems:
            raise SystemExit(f"{name}: {checker.errors + checker.problems}")
        recorded[name].update({
            "why": workload.why, "stresses": workload.stresses, "bypasses": workload.bypasses,
            "search.pair_reuse": metrics["search.pair_reuse"],
            "exact_counts": {k: v for k, v in metrics.items()
                             if not k.endswith(("self_s", "ratio"))},
            "largest_self_time": notes[0],
        })
        print(f"{name}: {notes[0]}", flush=True)
    run.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
