"""Seeded inputs and operations of the benchmark's three workloads.

Inputs are made here from the seed alone, without qsnake; the program only
sees the generated (r, s).  Each workload yields rounds of operations.  A
round is a stratified sample: its cost barely depends on the seed, so runs
with different seeds measure the same amount of work.

* ``sweep``: the coprime pairs s < r <= 64, ordered by continued-fraction sum
  (which sets the snake size and so the cost), are cut into blocks of
  ``SWEEP_BLOCK``; a round takes one uniformly chosen pair from each block.
  Every pair has the same chance 1/SWEEP_BLOCK of being in a round.
* ``routes-deep`` and ``compute-big``: a round draws one continued-fraction
  word from each of ``strata`` equal slices of the length range.  The
  quotients before the last are a shuffled stratified sample of 1..qmax (each
  position is still uniform on 1..qmax), so a word's quotient sum, which sets
  its polynomial degrees and so its cost, stays close to its mean.  The last
  quotient is uniform on 2..qmax.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass

from oracle import cf_expand

SWEEP_MAX_R = 64
SWEEP_BLOCK = 8


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]       # extra CLI arguments; empty for the sweep
    tail_percentile: float      # see README.md, "End-to-end metrics"
    trace_rounds: int           # rounds in the fixed op list of a traced run
    length: tuple[int, int] = (0, 0)
    qmax: int = 0
    strata: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep", (), tail_percentile=99.0, trace_rounds=3),
        Workload("routes-deep", ("--all-routes", "--format", "json"),
                 tail_percentile=90.0, trace_rounds=6,
                 length=(40, 80), qmax=4, strata=8),
        Workload("compute-big", ("--format", "json"),
                 tail_percentile=95.0, trace_rounds=8,
                 length=(20, 60), qmax=30, strata=16),
    )
}


def sweep_frame() -> list[tuple[int, int]]:
    """Coprime pairs s < r <= SWEEP_MAX_R, heaviest first (partial last block is the cheapest)."""
    pairs = [(r, s) for r in range(2, SWEEP_MAX_R + 1) for s in range(1, r)
             if math.gcd(r, s) == 1]
    pairs.sort(key=lambda p: (-sum(cf_expand(*p)), p))
    return pairs


def pair_of_word(word: list[int]) -> tuple[int, int]:
    """(r, s) with r/s = [a1, ..., ak]."""
    num, den = word[-1], 1
    for a in reversed(word[:-1]):
        num, den = a * num + den, num
    return num, den


def rounds(workload: Workload, seed: int):
    """Endless iterator of rounds, each a list of (r, s); the same seed gives the same rounds."""
    rng = random.Random(f"{workload.name}/{seed}")
    if workload.name == "sweep":
        frame = sweep_frame()
        blocks = math.ceil(len(frame) / SWEEP_BLOCK)
        while True:
            picks = (k * SWEEP_BLOCK + rng.randrange(SWEEP_BLOCK) for k in range(blocks))
            batch = [frame[i] for i in picks if i < len(frame)]
            rng.shuffle(batch)
            yield batch
    lo, hi = workload.length
    qmax = workload.qmax
    while True:
        batch = []
        for k in range(workload.strata):
            size = lo + int((k + rng.random()) * (hi - lo + 1) / workload.strata)
            word = [1 + int((i + rng.random()) * qmax / (size - 1)) for i in range(size - 1)]
            rng.shuffle(word)
            batch.append(pair_of_word(word + [rng.randint(2, qmax)]))
        rng.shuffle(batch)
        yield batch


def operation(workload: Workload, qsnake_modules):
    """
    The function that performs one operation of the workload on (r, s) and
    returns its raw output: a PairResult for the sweep, (exit code, stdout)
    for the CLI workloads.  The entry point is looked up on every call, so a
    traced run goes through the wrappers installed in its place.
    """
    if workload.name == "sweep":
        verify = qsnake_modules["verify"]
        return lambda r, s: verify.check_pair((r, s))
    cli = qsnake_modules["cli"]
    extra = list(workload.argv)

    def compute(r: int, s: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(["compute", str(r), str(s), *extra])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue()

    return compute


def output_record(workload: Workload, output) -> bytes:
    """The bytes of one operation's output that go into the run's digest."""
    if workload.name == "sweep":
        passed = sorted(output.passed.items())
        return repr((output.r, output.s, passed, output.cases_applicable)).encode() + b"\n"
    return output[1].encode()
