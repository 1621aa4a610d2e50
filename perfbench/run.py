"""primeplane benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload p3-exhaustive --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: whole
passes over the workload's CLI calls for about ``--seconds``, with set-up
launches before and after that window.  Every process of the run is
pinned to one CPU, and every time is reported in reference-speed seconds
measured by a SpeedSampler (see hostspeed.py), which cancels the host's
changes of speed; the raw times are printed beside them.  Each call's
latency is its median over the passes.  ``--trace 1`` runs one
untraced pass and two traced passes (see worker.py) and reports the
per-layer metrics; traced stdout must be byte-identical to untraced
stdout, and every exact count must repeat between the two traced passes.

Every call's exit code and stdout sha256 are checked against
expected.json (written by record.py).  A seed with no recorded digest is
checked by invariants instead: exit code 0, no violations, and for each
check the verdict counts sum to the nonzero count.  A mismatch counts as
a failed operation.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from hostspeed import BLOCK_S, SpeedSampler, pin_to_one_cpu

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"
CALL_TIMEOUT_S = 150
#: `--version` launches on each side of the measured window
SETUP_LAUNCHES = 10

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("call_p50_ms", "ms"),
              ("call_tail_ms", "ms"), ("peak_rss_mb", "MB")]
#: printed with the end-to-end metrics but left out of the JSON result, whose
#: metrics every workload must report.  candidates_per_s: gallery-exact
#: decodes no candidates, and on p3-exhaustive and p11-kernel, where every
#: command decodes them, it is a constant over wall_s.  ops_failed_ratio is 0
#: on correct code; failures go to the result's `failed` and `correct`.
PRINTED_ONLY = [("candidates_per_s", "1/s"), ("ops_failed_ratio", "ratio")]

LAYERS = ["cli", "search", "fourier", "cyclotomic", "bounds", "plane"]
#: per-layer metrics in the JSON result: exact counts, and self times that
#: no workload leaves at zero
PER_LAYER = (
    [("search.candidates", "count"), ("search.nonzero", "count"),
     ("search.distinct_support_pairs", "count"), ("search.pair_reuse", "ratio"),
     ("fourier.int_support_masks.calls", "count"), ("fourier.fourier_transform.calls", "count"),
     ("fourier.transforms_per_call", "ratio"), ("fourier.pair_exponents.misses", "count"),
     ("cyclotomic.cycnum_new.calls", "count")]
    + [(f"bounds.evaluate.{check}.calls", "count") for check in workloads.ALL_CHECKS]
    + [("bounds.classify_exception.calls", "count"), ("plane.min_line_cover.calls", "count"),
       ("plane.covered_by_lines.calls", "count"), ("plane.tables.misses", "count"),
       ("cli.report_bytes", "bytes"), ("cli.main.self_s", "s")]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    + [("trace_overhead_ratio", "ratio")]
)
#: per-span self times, printed with the traced run; a workload that
#: bypasses a span reads 0 there, so they stay out of the JSON result
SPAN_TIMES = (
    [(f"{span}.self_s", "s") for span in
     ["search.decode", "search.loop", "fourier.int_support_masks", "fourier.fourier_transform",
      "fourier.inverse_transform", "cyclotomic.cycnum_new", "cyclotomic.mul"]]
    + [(f"bounds.evaluate.{check}.self_s", "s") for check in workloads.ALL_CHECKS]
    + [(f"{span}.self_s", "s") for span in
       ["bounds.support_profile", "bounds.check", "bounds.classify_exception",
        "plane.min_line_cover", "plane.covered_by_lines", "plane.min_blocking_size"]]
)
UNITS = dict(END_TO_END + PRINTED_ONLY + PER_LAYER + SPAN_TIMES)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, set-up failure)."""


def spawn(argv: list) -> dict:
    """Run one child to completion; time it and read its peak RSS with wait4."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PRIMEPLANE_CEILING", None)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
        out.seek(0)
        err.seek(0)
        return {"t0": t0, "t1": t1, "rss_mb": usage.ru_maxrss / 1024,
                "code": os.waitstatus_to_exitcode(status), "stdout": out.read(),
                "stderr": err.read().decode("utf-8", "replace")}


def cli_argv(argv: list) -> list:
    return [sys.executable, "-m", "primeplane.cli"] + argv


def worker_argv(calls: list, tag: str, seconds=None, trace=False) -> tuple:
    """argv for worker.py over `calls`, and the path it writes its result to."""
    calls_path = OUT / f"{tag}.calls.json"
    calls_path.write_text(json.dumps([{"id": c.id, "argv": c.argv} for c in calls]),
                          encoding="utf-8")
    result_path = OUT / f"{tag}.result.json"
    argv = [sys.executable, str(BENCH / "worker.py"), str(calls_path), str(result_path)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    return argv, result_path


def setup_times(launches: int) -> list:
    """(start, end) of each launch from a fresh interpreter to `primeplane --version` returning."""
    times = []
    for _ in range(launches):
        run = spawn(cli_argv(["--version"]))
        if run["code"] != 0 or not run["stdout"].startswith(b"primeplane "):
            raise BenchError(f"primeplane --version failed: {run['stderr'].strip()}")
        times.append((run["t0"], run["t1"]))
    return times


# -- output checks -----------------------------------------------------------------


def verdict_summary(stdout: bytes) -> dict:
    """The per-check verdict counts a report carries."""
    payload = json.loads(stdout)
    if "sweep" in payload:
        body = payload["sweep"]
        return {"counts": body["counts"], "nonzero": body["nonzero"],
                "violations": len(body["violations"])}
    if "hunt" in payload:
        body = payload["hunt"]
        return {"counts": body["counts"], "checked": body["checked"],
                "found": body["witness"] is not None}
    if "reports" in payload:
        return {"verdicts": {r["theorem"]: r["verdict"] for r in payload["reports"]}}
    if "classification" in payload:
        cls = payload["classification"]
        return {"classification": None if cls is None else cls["kind"]}
    if "frontier" in payload:
        return {"attained": len(payload["frontier"]["attained"])}
    return {"result": payload["result"]}


def invariant_error(stdout: bytes):
    """Checks for a seeded sweep whose digest is not recorded."""
    try:
        summary = verdict_summary(stdout)
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    if summary.get("violations") or summary.get("found"):
        return "a violation was reported"
    nonzero = summary.get("nonzero", summary.get("checked"))
    counts = summary.get("counts", {})
    for label, verdicts in (counts.items() if "nonzero" in summary else [("hunt", counts)]):
        if sum(verdicts.values()) != nonzero:
            return f"{label}: verdict counts sum to {sum(verdicts.values())}, " \
                   f"not the nonzero count {nonzero}"
    return None


class Checker:
    """Checks each call against expected.json and counts the failures."""

    def __init__(self, workload: workloads.Workload, seed: int):
        expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
        self.expected = expected.get(workload.name, {}).get("commands", {})
        self.seed_key = str(seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        #: failures of the run as a whole, such as counts that do not repeat
        self.problems: list = []

    def check(self, cmd: workloads.Command, code: int, digest: str, stdout=None,
              reference=None) -> None:
        """Count one call; `reference` is the untraced digest a traced call must match."""
        self.attempted += 1
        want = self.expected.get(cmd.id, {}).get(self.seed_key if cmd.seeded else "any")
        error = None
        if code != 0:
            error = f"exit code {code}"
        elif reference is not None and digest != reference:
            error = "traced stdout differs from untraced stdout"
        elif want is not None:
            if digest != want["sha256"]:
                error = f"stdout sha256 {digest[:12]} != recorded {want['sha256'][:12]}"
                if stdout is not None:
                    error += f"; {invariant_error(stdout) or 'invariants hold'}"
        elif stdout is not None:
            error = invariant_error(stdout)
        elif reference is None:
            error = "no recorded digest and no stdout to check"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{cmd.id}: {error}")


# -- passes ----------------------------------------------------------------------


def subprocess_pass(cmds: list, checker: Checker, samples: dict, rss: list, digests: dict):
    """One process per call; `samples` gains each call's (start, end)."""
    for cmd in cmds:
        run = spawn(cli_argv(cmd.argv))
        digest = hashlib.sha256(run["stdout"]).hexdigest()
        if run["code"] != 0 and not checker.errors:
            print(f"{cmd.id} stderr: {run['stderr'].strip()[-2000:]}", file=sys.stderr)
        checker.check(cmd, run["code"], digest, run["stdout"])
        samples.setdefault(cmd.id, []).append((run["t0"], run["t1"]))
        rss.append(run["rss_mb"])
        digests.setdefault(cmd.id, digest)


def worker_pass(cmds: list, checker: Checker, tag: str, seconds=None, trace=False,
                reference=None):
    """One worker process over `cmds`; returns its run record and result."""
    argv, result_path = worker_argv(cmds, tag, seconds, trace)
    run = spawn(argv)
    if run["code"] != 0:
        raise BenchError(f"worker failed ({run['code']}): {run['stderr'].strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    by_id = {c.id: c for c in cmds}
    for call_id, _, _, code, digest, _ in result["calls"]:
        checker.check(by_id[call_id], code, digest,
                      reference=None if reference is None else reference[call_id])
    return run, result


def tail(latencies: list) -> tuple:
    """Highest percentile with at least ten samples beyond it (the max if too few)."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def keep_going(start: float, pass_s: float, seconds: int) -> bool:
    """Start another pass unless it would end more than half a pass past the window."""
    return time.perf_counter() - start + pass_s / 2 < seconds


def timed_run(workload: workloads.Workload, cmds: list, checker: Checker, seconds: int):
    samples: dict = {}
    rss: list = []
    with SpeedSampler() as sampler:
        setup_times(1)  # writes the bytecode caches
        setup = setup_times(SETUP_LAUNCHES)
        start = time.perf_counter()
        if workload.in_process:
            run, result = worker_pass(cmds, checker, workload.name, seconds=seconds)
            for call_id, t0, t1, _, _, _ in result["calls"]:
                samples.setdefault(call_id, []).append((t0, t1))
            rss.append(run["rss_mb"])
        else:
            pass_start = start
            while not samples or keep_going(start, time.perf_counter() - pass_start, seconds):
                pass_start = time.perf_counter()
                subprocess_pass(cmds, checker, samples, rss, {})
        measured = time.perf_counter() - start
        setup += setup_times(SETUP_LAUNCHES)
    # one latency per distinct call: the median of its passes, in reference-speed seconds
    latency = {cmd.id: statistics.median(sampler.scaled(*span) for span in samples[cmd.id])
               for cmd in cmds}
    raw_latency = {cmd.id: statistics.median(t1 - t0 for t0, t1 in samples[cmd.id])
                   for cmd in cmds}
    counted = [cmd for cmd in cmds if cmd.candidates]
    tail_s, tail_pct = tail(list(latency.values()))
    metrics = {
        "setup_s": statistics.median(sampler.scaled(*span) for span in setup),
        "wall_s": sum(latency.values()),
        "call_p50_ms": 1000 * statistics.median(latency.values()),
        "call_tail_ms": 1000 * tail_s,
        "peak_rss_mb": max(rss),
    }
    if counted:
        metrics["candidates_per_s"] = (sum(c.candidates for c in counted)
                                       / sum(latency[c.id] for c in counted))
    passes = min(len(xs) for xs in samples.values())
    notes = [f"passes: {passes} in {measured:.1f} s; setup launches: {len(setup)}",
             f"call_tail_ms is p{tail_pct:.1f} of {len(latency)} distinct calls "
             f"({10 if len(latency) > 10 else 0} beyond it), each the median of its passes",
             f"times are reference-speed seconds: {len(sampler.cpu_s)} speed samples, median "
             f"block {1e6 * statistics.median(sampler.cpu_s):.0f} us (reference "
             f"{1e6 * BLOCK_S:.0f} us); raw wall_s {sum(raw_latency.values()):.3f} s"]
    return metrics, END_TO_END, notes


# -- traced run ------------------------------------------------------------------

#: per-process counters a traced worker reports beside its spans; a pass sums them
COUNTERS = ("pair_exponents_misses", "tables_misses", "report_bytes", "rendered_decodes")


def merge_traces(traces: list) -> dict:
    """Merge per-process trace summaries into one for the pass.

    Span times, calls and COUNTERS add up.  Support pairs are counted twice:
    ``distinct_support_pairs`` is the union over the pass, and
    ``process_support_pairs`` sums each process's own distinct pairs, which
    is what a memo living in one process could reuse.
    """
    total = {"spans": {}, **{key: 0 for key in COUNTERS}, "process_support_pairs": 0}
    pairs = set()
    for trace in traces:
        for name, span in trace["spans"].items():
            acc = total["spans"].setdefault(name, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += span["self_s"]
            acc["calls"] += span["calls"]
        for key in COUNTERS:
            total[key] += trace[key]
        own = {tuple(pair) for pair in trace["support_pairs"]}
        total["process_support_pairs"] += len(own)
        pairs |= own
    total["distinct_support_pairs"] = len(pairs)
    return total


def traced_pass(workload: workloads.Workload, cmds: list, checker: Checker,
                untraced: dict, index: int) -> tuple:
    """One traced pass, each process fresh; returns (its process spans, merged trace)."""
    groups = [cmds] if workload.in_process else [[cmd] for cmd in cmds]
    spans = []
    traces = []
    for g, group in enumerate(groups):
        run, result = worker_pass(group, checker, f"{workload.name}.trace{index}.{g}",
                                  trace=True, reference=untraced)
        spans.append((run["t0"], run["t1"]))
        trace = result["trace"]
        trace["report_bytes"] = sum(rec[5] for rec in result["calls"])
        traces.append(trace)
    return spans, merge_traces(traces)


def exact_counts(trace: dict) -> dict:
    counts = {f"{name}.calls": span["calls"] for name, span in trace["spans"].items()}
    counts.update((key, trace[key]) for key in
                  COUNTERS + ("distinct_support_pairs", "process_support_pairs"))
    return counts


def layer_metrics(trace: dict, self_s: dict, cli_calls: int) -> dict:
    def calls(name):
        return trace["spans"].get(name, {}).get("calls", 0)

    nonzero = calls("fourier.int_support_masks")
    per_process = trace["process_support_pairs"]
    m = {
        "search.candidates": calls("search.decode") - trace["rendered_decodes"],
        "search.nonzero": nonzero,
        "search.distinct_support_pairs": trace["distinct_support_pairs"],
        "search.pair_reuse": nonzero / per_process if per_process else 0.0,
        "fourier.transforms_per_call": calls("fourier.fourier_transform") / cli_calls,
        "fourier.pair_exponents.misses": trace["pair_exponents_misses"],
        "plane.tables.misses": trace["tables_misses"],
        "cli.report_bytes": trace["report_bytes"],
    }
    for name, _ in PER_LAYER + SPAN_TIMES:
        if name in m or name == "trace_overhead_ratio":
            continue
        if name.startswith("layer."):
            layer = name.split(".")[1]
            m[name] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        elif name.endswith(".self_s"):
            m[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            m[name] = calls(name[: -len(".calls")])
    return m


def traced_run(workload: workloads.Workload, cmds: list, checker: Checker):
    untraced: dict = {}
    samples: dict = {}
    with SpeedSampler() as sampler:
        if workload.in_process:
            run, result = worker_pass(cmds, checker, f"{workload.name}.untraced")
            base = [(run["t0"], run["t1"])]
            untraced = {call_id: digest for call_id, _, _, _, digest, _ in result["calls"]}
        else:
            subprocess_pass(cmds, checker, samples, [], untraced)
            base = [xs[0] for xs in samples.values()]
        spans, traces = zip(*(traced_pass(workload, cmds, checker, untraced, i)
                              for i in (1, 2)))
    first, second = (exact_counts(t) for t in traces)
    notes = []
    if first != second:
        diff = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        checker.problems.append(f"exact counts differ between traced passes: {diff}")
    names = set(traces[0]["spans"]) | set(traces[1]["spans"])
    self_s = {n: statistics.mean(t["spans"].get(n, {}).get("self_s", 0.0) for t in traces)
              for n in names}
    metrics = layer_metrics(traces[0], self_s, len(cmds))
    metrics["trace_overhead_ratio"] = (sum(sampler.scaled(*span) for span in spans[0])
                                       / sum(sampler.scaled(*span) for span in base) - 1)
    # the eleven per-check evaluate spans are one dispatch; rank them together
    grouped: dict = {}
    for name, value in self_s.items():
        key = "bounds.evaluate.*" if name.startswith("bounds.evaluate.") else name
        grouped[key] = grouped.get(key, 0.0) + value
    ranked = sorted(grouped.items(), key=lambda kv: -kv[1])
    total = sum(grouped.values())
    top = ranked[0][0]
    notes.append(f"largest self time: {top} ({grouped[top]:.3f} s); expected "
                 f"{workload.top_span}: {'yes' if top == workload.top_span else 'NO'}")
    notes += [f"  {name:40s} {value:9.3f} s  {100 * value / total:5.1f}%"
              for name, value in ranked[:8]]
    notes.append(f"exact counts repeat across two traced passes: {first == second}")
    notes.append(f"search.pair_reuse = {metrics['search.nonzero']} nonzero / "
                 f"{traces[0]['process_support_pairs']} pairs distinct within each process; "
                 f"{metrics['search.distinct_support_pairs']} distinct over the pass")
    return metrics, PER_LAYER, notes


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="primeplane benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "primeplane" / "cli.py").is_file():
        print(f"run.py: no primeplane sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # a terminated run still kills and waits for the child it is running (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()
    workload = workloads.WORKLOADS[args.workload]
    cmds = workload.commands(args.seed)
    checker = Checker(workload, args.seed)
    try:
        if args.trace:
            metrics, spec, notes = traced_run(workload, cmds, checker)
        else:
            metrics, spec, notes = timed_run(workload, cmds, checker, args.seconds)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    for note in notes:
        print(note)
    metrics["ops_failed_ratio"] = checker.failed / checker.attempted
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {UNITS[name]}")
    print(f"ops failed: {checker.failed} of {checker.attempted} calls")
    for error in checker.errors + checker.problems:
        print(f"FAILED {error}")
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
