"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <full|smoke> <0|1>

runs the workload body once (traced when the last argument is 1), checks
its outputs after the timed region, and prints one JSON line.  run.py starts
one of these per repetition, so the series cache starts cold every time, as
it does for every CLI user.

    python3 perfbench/worker.py --command <bchseries arguments...>

is the traced stand-in for one `bchseries` process in cli-mix: it runs the
command in-process through `main(args, standalone_mode=False)` with tracing
on, writes the command's stdout to its own stdout, exits with the command's
exit code and prints the layer metrics as the last line of stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import workloads


def traced_command(args: list[str]) -> int:
    import click

    from bchseries import cli
    from tracing import Tracer, install

    tracer = Tracer()
    uninstall = install(tracer)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
    elapsed = perf_counter() - start
    uninstall()
    text = out.getvalue()
    metrics = tracer.metrics()
    # click parsing and rendering: what is left after the library spans
    metrics["cli.self_s"] = elapsed - tracer.top_level_s
    metrics["cli.stdout_bytes"] = len(text.encode())
    sys.stdout.write(text)
    sys.stdout.flush()
    sys.stderr.write(err.getvalue())
    sys.stderr.write("\n" + json.dumps(metrics) + "\n")
    return code


def _sum_command_metrics(stderr_texts: list[str]) -> dict[str, float]:
    total: dict[str, float] = {}
    for text in stderr_texts:
        lines = text.strip().splitlines()
        if not lines:
            continue
        try:
            metrics = json.loads(lines[-1])
        except ValueError:
            continue  # the command crashed; its op is already counted as failed
        for name, value in metrics.items():
            if name == "engine.coeff_bits_max":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def run_repetition(workload: str, seed: int, size: str, traced: bool) -> dict:
    metrics = None
    if workload == "cli-mix":
        launcher = [sys.executable, __file__, "--command"] if traced else workloads.CLI_LAUNCHER
        start = perf_counter()
        ops, stderr_texts = workloads.run_cli(size, seed, launcher)
        wall = perf_counter() - start
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        failures = workloads.check_cli(size, ops)
        if traced:
            metrics = _sum_command_metrics(stderr_texts)
    else:
        if traced:
            from tracing import Tracer, install

            tracer = Tracer()
            uninstall = install(tracer)
        start = perf_counter()
        if workload == "word-queries":
            ops = workloads.run_words(size, seed)
        else:
            ops = workloads.run_series(workload, size)
        wall = perf_counter() - start
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if traced:
            uninstall()
            metrics = tracer.metrics()
            metrics["cli.self_s"] = 0.0
            metrics["cli.stdout_bytes"] = 0
        if workload == "word-queries":
            failures = workloads.check_words(size, seed, ops)
        else:
            failures = workloads.check_series(size, seed, ops)
    return {
        "wall_s": wall,
        "rss_mb": rss_kb / 1024,
        "ops": [[op.name, op.seconds, failure] for op, failure in zip(ops, failures)],
        "metrics": metrics,
        "tracing_loaded": "tracing" in sys.modules,
    }


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--command":
        return traced_command(argv[1:])
    workload, seed, size, trace = argv
    result = run_repetition(workload, int(seed), size, trace == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
