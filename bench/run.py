"""Gateway benchmark: one workload, or all of them, for one seed.

    python3 bench/run.py --workload ehealth-decide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Starts ``sacpdp serve`` as its own process (several times, to time set-up),
drives it over loopback with a closed loop on keep-alive connections,
checks every answer, and prints a report followed by one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload, untraced and then traced, and ends
with one JSON line holding all their metrics.  Exits 1 when any check fails
and 2 when the source tree is missing.
See bench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONNECTIONS = 2
SETUP_SPAWNS = 5
# Tail percentile.  A 30 s e-health run at baseline gives ~1300 samples, so
# only ~13 lie beyond p99, and p99 spread 9-12% across seeds; p95 has ~65
# beyond it and spreads under 8%.  The summary states the counts.
TAIL = 95


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "network": "loopback only (127.0.0.1)",
    }


def percentile(values: list, pct: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def evaluate(plan, load, audit_path: Path, stub, stub_before, seconds: float) -> tuple[dict, dict]:
    """Check every answer and the side effects; returns (summary, metrics)."""
    import workloads

    problems = list(load.errors)
    decisions, latencies, good_in_window = [], [], 0
    for sample in load.samples:
        slots = {plan.slot_after(k) for k in range(sample.window[0], sample.window[1] + 1)}
        problem, matched = workloads.check_response(plan, sample.index, slots, sample.response)
        latencies.append((sample.done - sample.sent) * 1000)
        if problem:
            problems.append(f"request {sample.index}: {problem}")
            continue
        decisions.append(matched)
        good_in_window += sample.done <= load.deadline
    for sample in load.reloads:
        want = sample.index + 2  # the bundle loads as version 1
        if sample.response.status != 200 or json.loads(sample.response.body).get("version") != want:
            problems.append(f"reload {sample.index}: status {sample.response.status}, expected version {want}")

    audit = workloads.read_audit(audit_path)
    if len(audit) != len(load.samples):
        problems.append(f"audit log has {len(audit)} line(s) for {len(load.samples)} request(s)")
    answered = Counter(s.response.headers.get("x-decision") for s in load.samples)
    if Counter(r["decision"] for r in audit) != answered:
        problems.append("audit decisions differ from the answers sent")
    if stub is not None:
        after = stub.stats()
        hits = Counter(after["hits"]) - Counter(stub_before["hits"])
        want = Counter(plan.items[s.index].forward for s in load.samples if s.response.headers.get("x-decision") == "Permit")
        if hits != want or sum(hits.values()) != sum(1 for d in decisions if d.value.value == "Permit"):
            problems.append(f"stub saw {sum(hits.values())} forward(s), expected {sum(want.values())}")

    attempted = len(load.samples) + len(load.reloads)
    failed = len(problems)
    reload_ms = [(s.done - s.sent) * 1000 for s in load.reloads]
    summary = {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / max(1, attempted),
        "problems": problems[:20],
        "samples": len(latencies),
        "tail": f"p{TAIL} over {len(latencies)} samples, {len(latencies) - int(len(latencies) * TAIL / 100)} beyond it",
        "reloads": len(reload_ms),
        "decision_mix": workloads.decision_mix(decisions),
    }
    if not latencies or (plan.reload_cycle and not reload_ms):
        return summary, {}
    metrics = {
        "rps": metric(good_in_window / seconds, "1/s"),
        "p50_ms": metric(statistics.median(latencies), "ms"),
        f"p{TAIL}_ms": metric(percentile(latencies, TAIL), "ms"),
    }
    if reload_ms:
        metrics["reload_p50_ms"] = metric(statistics.median(reload_ms), "ms")
    return summary, metrics


def run(args, run_dir: Path) -> tuple[dict, dict]:
    import workloads
    from loadgen import Stub, closed_loop, free_port, start_gateway

    plan = workloads.prepare(args.workload, args.seed, run_dir)
    stub = Stub() if plan.proxy else None
    gateway = None
    try:
        upstream = stub.port if stub else free_port()
        setups = []
        for i in range(SETUP_SPAWNS):
            if gateway is not None:
                gateway.stop()
            gateway = start_gateway(run_dir, plan.bundle, upstream, run_dir / f"audit{i}.jsonl", f"gateway{i}")
            setups.append(gateway.setup_s)
        audit = run_dir / f"audit{SETUP_SPAWNS - 1}.jsonl"
        if args.trace:
            import tracing

            summary, metrics = tracing.traced_run(plan, gateway, stub, audit, args, run_dir)
        else:
            before = stub.stats() if stub else None
            load = closed_loop(
                gateway.port, [item.data for item in plan.items], args.seconds, CONNECTIONS, plan.reload_bodies, plan.reload_every
            )
            summary, metrics = evaluate(plan, load, audit, stub, before, args.seconds)
            if metrics:
                metrics["setup_s"] = metric(statistics.median(setups), "s")
        summary["setup_s_each"] = [round(s, 4) for s in setups]
    finally:
        if gateway is not None:
            gateway.stop()
        if stub is not None:
            stub.stop()
    summary.update(plan.notes)
    return summary, metrics


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a child process."""
    import workloads

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} --trace {trace}", flush=True)
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print(child.stdout, end="", flush=True)
            lines = child.stdout.strip().splitlines()
            if child.returncode or not lines:
                correct = False
                continue
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all for every workload, untraced then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "sacpdp", ROOT / "tests" / "randgen.py"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    out = ROOT / ".bench_run"
    run_dir = out / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        summary, metrics = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = bool(metrics) and summary["failed"] == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "predictions": "bench/README.md",
        "wall_s": round(time.perf_counter() - started, 2),
        "summary": summary,
        "metrics": metrics,
    }
    (out / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    for key in ("machine", "summary"):
        print(f"{key}: {json.dumps(record[key])}")
    for name, m in metrics.items():
        print(f"{name:>40} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"], "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
