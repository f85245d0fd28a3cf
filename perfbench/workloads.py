"""The benchmark workloads: seeded inputs, timed bodies and output checks.

A workload body is a list of operations sent one after another by a single
client (a closed loop: each request starts when the previous one returns).
Bodies record each operation's output; the checks run after the timed body
and return one failure reason, or None, per operation.

Why these workloads (the BENCHMARK.json `why` lines are the short form):

- series-short-product: standard and symmetric at N 13, the paper's census.
  The product of two or three factor exponentials is cheap; the first-row
  logarithm and FreePoly arithmetic do almost all the work.
- series-long-product: highly_symmetrized_sum_difference at N 13.  Five
  factors with mixed aX+bY make product_matrix dominate.  A change to only
  one of the two engine steps should move only one of the two series
  workloads.
- word-queries: single coefficients.  Lengths 6-12 go through the engine,
  where the first query at each length pays for the whole series and the
  rest hit the series cache; lengths 16-64 go through the block-sum DP.
  Engine queries stop at 12 because that route is exponential in the length.
- cli-mix: a fixed script of bchseries commands, each a fresh process: many
  small, repeated engine requests instead of one large one, plus the
  consumers, rendering and process start-up.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from bchseries import engine, oracle
from bchseries.algebra import Word, word_format, word_parse

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

# Census counts for degrees 2..13, as pinned by the acceptance tests.
STANDARD_COUNTS = {
    2: 2, 3: 6, 4: 4, 5: 30, 6: 28, 7: 126, 8: 124,
    9: 390, 10: 388, 11: 2046, 12: 2044, 13: 8190,
}
SYMMETRIC_COUNTS = {n: 0 for n in range(2, 14, 2)} | {
    3: 6, 5: 30, 7: 126, 9: 435, 11: 2046, 13: 8190,
}
CENSUS_TABLES = {"standard": STANDARD_COUNTS, "symmetric": SYMMETRIC_COUNTS}

FULL_CLI = (
    ("verify", "properties", "--max", "11", "--format", "json"),
    ("verify", "dynkin", "--max", "10"),
    ("verify", "bounds", "--max", "12"),
    ("verify", "commutator-forms", "--max", "6", "--format", "json"),
    ("terms", "--variant", "loop", "--order", "11", "--format", "json"),
    ("goldberg", "--word", "X^3Y^2XYX^2Y^3", "--mode", "both"),
    ("census", "--max", "11", "--variant", "triangular", "--format", "csv"),
)
SMOKE_CLI = (
    ("verify", "properties", "--max", "5", "--format", "json"),
    ("verify", "dynkin", "--max", "4"),
    ("verify", "bounds", "--max", "6"),
    ("verify", "commutator-forms", "--max", "3", "--format", "json"),
    ("terms", "--variant", "loop", "--order", "5", "--format", "json"),
    ("goldberg", "--word", "X^2YXY", "--mode", "both"),
    ("census", "--max", "5", "--variant", "triangular", "--format", "csv"),
)

# "full" is what the benchmark measures; "smoke" is a small input set for the
# benchmark's own tests.  Query lengths come as a fixed multiset (every
# length the same number of times) so that seeds change the words, not the
# amount of work.
SIZES = {
    "full": {
        "degree": 13,
        "sampled_words": 24,
        "engine_lengths": range(6, 13),
        "engine_per_length": 14,
        "dp_lengths": range(16, 65),
        "dp_per_length": 4,
        "dp_closed_form_lengths": range(16, 33, 4),
        "cli": FULL_CLI,
    },
    "smoke": {
        "degree": 7,
        "sampled_words": 12,
        "engine_lengths": range(3, 7),
        "engine_per_length": 3,
        "dp_lengths": range(8, 15),
        "dp_per_length": 2,
        "dp_closed_form_lengths": range(8, 11),
        "cli": SMOKE_CLI,
    },
}

SERIES_VARIANTS = {
    "series-short-product": ("standard", "symmetric"),
    "series-long-product": ("highly_symmetrized_sum_difference",),
}

CLI_LAUNCHER = [sys.executable, "-m", "bchseries.cli"]
CLI_TIMEOUT_S = 150


@dataclass
class Op:
    """One request of a workload body: what was asked, how long it took, what came back."""

    name: str
    seconds: float
    output: object = None
    error: str | None = None


def _timed(name: str, call) -> Op:
    start = perf_counter()
    try:
        output = call()
    except Exception as exc:  # a failing request is counted, not fatal
        return Op(name, perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return Op(name, perf_counter() - start, output)


def render_terms(terms) -> bytes:
    """Canonical rendering, one `degree,word,num,den` line per non-zero coefficient."""
    lines = []
    for term in terms:
        for w, c in term.body.sorted_items():
            lines.append(f"{term.degree},{word_format(w)},{c.numerator},{c.denominator}\n")
    return "".join(lines).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- series-short-product and series-long-product ---------------------------

def run_series(workload: str, size: str) -> list[Op]:
    degree = SIZES[size]["degree"]
    return [
        _timed(name, lambda name=name: engine.series_terms(engine.preset(name), degree))
        for name in SERIES_VARIANTS[workload]
    ]


def _sampled_words(size: str, seed: int) -> list[Word]:
    rng = random.Random(seed)
    degree = SIZES[size]["degree"]
    words = []
    for _ in range(SIZES[size]["sampled_words"]):
        n = rng.randint(2, degree)
        words.append(Word(n, rng.getrandbits(n)))
    return words


def check_series(size: str, seed: int, ops: list[Op]) -> list[str | None]:
    failures = []
    for op in ops:
        if op.error is not None:
            failures.append(op.error)
            continue
        terms = op.output
        problems = []
        if digest(render_terms(terms)) != EXPECTED[size]["series"].get(op.name):
            problems.append("rendering digest differs from the recorded one")
        for n, count in CENSUS_TABLES.get(op.name, {}).items():
            if n <= len(terms) and len(terms[n - 1].body) != count:
                problems.append(f"degree {n} has {len(terms[n - 1].body)} terms, expected {count}")
        if op.name == "standard":
            for w in _sampled_words(size, seed):
                got, want = terms[w.length - 1].body.coeff(w), oracle.goldberg_direct(w)
                if got != want:
                    problems.append(f"{word_format(w)}: engine {got}, goldberg_direct {want}")
        failures.append("; ".join(problems) or None)
    return failures


# --- word-queries -------------------------------------------------------------

def word_queries(size: str, seed: int) -> list[tuple[str, Word]]:
    """The seeded request stream: (route, word) pairs in request order.

    Words have random letters, except one X^aY^b word (seeded a) per engine
    length and per short DP length, which the Bernoulli closed form checks
    independently of both routes.  X^aY^b words of DP length 48 or more cost
    several times a random word of the same length, so the stream keeps them
    out: a varying number of them would decide the tail latency.
    """
    rng = random.Random(seed)
    spec = SIZES[size]
    queries = []
    for route, lengths, per_length, closed_form_lengths in (
        ("engine", spec["engine_lengths"], spec["engine_per_length"], spec["engine_lengths"]),
        ("dp", spec["dp_lengths"], spec["dp_per_length"], spec["dp_closed_form_lengths"]),
    ):
        for n in lengths:
            if n in closed_form_lengths:
                a = rng.randint(1, n - 1)
                queries.append((route, word_parse(f"X^{a}Y^{n - a}")))
            for _ in range(per_length - (n in closed_form_lengths)):
                queries.append((route, Word(n, rng.getrandbits(n))))
    rng.shuffle(queries)
    return queries


def run_words(size: str, seed: int) -> list[Op]:
    ops = []
    for route, w in word_queries(size, seed):
        call = engine.engine_coefficient if route == "engine" else oracle.goldberg_direct
        ops.append(_timed(f"{route}:{word_format(w)}", lambda call=call, w=w: call(w)))
    return ops


def check_words(size: str, seed: int, ops: list[Op]) -> list[str | None]:
    failures = []
    for (route, w), op in zip(word_queries(size, seed), ops):
        if op.error is not None:
            failures.append(op.error)
            continue
        problems = []
        if route == "engine" and op.output != oracle.goldberg_direct(w):
            problems.append(f"engine {op.output} != goldberg_direct {oracle.goldberg_direct(w)}")
        if w.bits == (1 << w.count_y) - 1 and op.output != oracle.goldberg_xy(w.count_x, w.count_y):
            problems.append(f"{op.output} != goldberg_xy {oracle.goldberg_xy(w.count_x, w.count_y)}")
        failures.append("; ".join(problems) or None)
    return failures


# --- cli-mix ------------------------------------------------------------------

def cli_script(size: str, seed: int) -> list[tuple[str, ...]]:
    """The fixed command script; the seed only chooses the order."""
    commands = list(SIZES[size]["cli"])
    random.Random(seed).shuffle(commands)
    return commands


def run_cli(size: str, seed: int, launcher: list[str]) -> tuple[list[Op], list[str]]:
    """Run each command as a fresh process, one at a time.

    `launcher` is the argv prefix that starts a bchseries CLI process.  The
    op output is (exit code, stdout bytes); the second list holds each
    process's stderr text.
    """
    ops, stderr = [], []
    for args in cli_script(size, seed):
        op = _timed(
            " ".join(args),
            lambda args=args: subprocess.run(
                launcher + list(args), capture_output=True, timeout=CLI_TIMEOUT_S
            ),
        )
        if op.error is None:
            stderr.append(op.output.stderr.decode(errors="replace"))
            op.output = (op.output.returncode, op.output.stdout)
        else:
            stderr.append("")
        ops.append(op)
    return ops, stderr


def check_cli(size: str, ops: list[Op]) -> list[str | None]:
    failures = []
    for op in ops:
        if op.error is not None:
            failures.append(op.error)
            continue
        code, stdout = op.output
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if digest(stdout) != EXPECTED[size]["cli"].get(op.name):
            problems.append("stdout digest differs from the recorded one")
        failures.append("; ".join(problems) or None)
    return failures

