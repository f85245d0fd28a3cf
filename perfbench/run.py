"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a source checkout.  One single-threaded client runs
repetitions of the workload one after another, each in a fresh interpreter
(perfbench/worker.py), until the next one would end after --seconds.  Each
repetition times the workload body and then checks every output outside the
timed region.  Before each repetition a few fresh interpreters import
bchseries.cli; set-up time is the median of those import times.

With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json, each the median over the repetitions.  With --trace 1
untraced and traced repetitions alternate; the line holds the per-layer
metrics of the traced ones, plus the tracing overhead (traced minus
untraced wall time).  --smoke uses the small inputs of the benchmark's own
tests.  The environment and the per-repetition figures go to stderr and to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

# set-up probes before each repetition, so that they spread over the run
SETUP_PER_REPETITION = {"full": 4, "smoke": 1}
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import bchseries.cli; "
    "print(time.perf_counter() - start)"
)
# the run must end within 180 s; a worker still running at this point is killed
DEADLINE_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], deadline: float) -> str:
    """Run one child process to completion (or kill its whole group) and return stdout."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{argv[1:]} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {err.decode()[-2000:]}")
    return out.decode()


def measure_setup(samples: int, deadline: float) -> list[float]:
    return [
        float(run_child([sys.executable, "-c", IMPORT_PROBE], deadline))
        for _ in range(samples)
    ]


def latency_stats(seconds: list[float]) -> dict:
    """Median and tail of one repetition's request latencies, in ms.

    The tail is the highest percentile with at least ten samples beyond it;
    with ten samples or fewer it is the maximum, and `beyond` says so.
    """
    ms = sorted(s * 1000 for s in seconds)
    n = len(ms)
    rank = n - 10 if n > 10 else n
    return {
        "p50_ms": statistics.median(ms),
        "tail_ms": ms[rank - 1],
        "tail_percentile": 100 * rank / n,
        "beyond": n - rank,
        "samples": n,
    }


def run_repetitions(args, size: str, deadline: float) -> tuple[list[dict], list[float]]:
    reps: list[dict] = []
    setup: list[float] = []
    start = perf_counter()
    while True:
        setup += measure_setup(SETUP_PER_REPETITION[size], deadline)
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep_start = perf_counter()
        line = run_child(
            [sys.executable, str(WORKER), args.workload, str(args.seed), size, str(int(traced))],
            deadline,
        ).strip().splitlines()[-1]
        rep = json.loads(line)
        rep["seconds"] = perf_counter() - rep_start
        rep["traced"] = traced
        if not traced and rep["tracing_loaded"]:
            raise RuntimeError("an untraced repetition loaded the tracing wrappers")
        reps.append(rep)
        both_modes = not args.trace or len(reps) >= 2
        typical = statistics.median(r["seconds"] for r in reps)
        if both_modes and perf_counter() - start + typical > args.seconds:
            return reps, setup


def end_to_end(reps: list[dict], setup: list[float]) -> dict[str, float]:
    stats = [latency_stats([op[1] for op in r["ops"]]) for r in reps]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "query_p50_ms": statistics.median(s["p50_ms"] for s in stats),
        "query_tail_ms": statistics.median(s["tail_ms"] for s in stats),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    metrics = {
        name: statistics.median_low(r["metrics"].get(name, 0) for r in traced)
        for name in traced[0]["metrics"]
    }
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        r["wall_s"] for r in untraced
    )
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg": os.getloadavg(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if not (SRC / "bchseries" / "cli.py").is_file():
        print(f"no bchseries sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    deadline = perf_counter() + DEADLINE_S
    env = environment(args)

    reps, setup = run_repetitions(args, size, deadline)
    if args.trace:
        declared, measured = spec["per_layer"], per_layer(reps)
    else:
        declared, measured = spec["end_to_end"], end_to_end(reps, setup)
    failures = [(op[0], op[2]) for r in reps for op in r["ops"] if op[2] is not None]
    attempted = sum(len(r["ops"]) for r in reps)

    record = {
        "environment": env,
        "setup_samples_s": setup,
        "repetitions": [
            {
                "traced": r["traced"],
                "wall_s": r["wall_s"],
                "rss_mb": r["rss_mb"],
                "latency": latency_stats([op[1] for op in r["ops"]]),
                "metrics": r["metrics"],
            }
            for r in reps
        ],
        "failures": failures[:20],
        "fail_ratio": len(failures) / attempted,
        "metrics": measured,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"environment": env, "fail_ratio": record["fail_ratio"]}), file=sys.stderr)
    for failure in failures[:20]:
        print(f"FAILED {failure[0]}: {failure[1]}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
