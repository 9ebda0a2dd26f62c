"""Command line front end: compute, snake, matchings, kasteleyn, fibonacci, verify."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .kasteleyn import (KasteleynReport, kasteleyn_matrix, leading_minors,
                        verify_kasteleyn)
from .laurent import ZERO
from .matching import (MAX_ENUMERATION_BOXES, enumerate_matchings,
                       matching_stat_dp, matching_weight_exp)
from .qrational import (CF, all_routes, cf_expand, fibonacci_families,
                        fibonacci_number, q_matrix_eval, q_rational)
from .render import render
from .snake import snake_graph
from .verify import run_sweep, summarize


# Largest continued-fraction sum (snake boxes + 1) a single-pair command
# accepts.  Time and memory grow at least linearly with it: `compute 1000000
# 999999 --all-routes`, at the bound, took 5.2-7.3 s of CPU and 253 MiB peak
# RSS in text (printing holds most of it) and 1.7-2.2 s and 317 MiB in JSON
# on a shared 2-core VM.
MAX_CF_SUM = 10**6

# Largest snake `kasteleyn` accepts.  It prints the matrix dense, every zero
# included, so its output grows with the square of the box count: the 600-box
# `kasteleyn 601 1` prints 21.8 MB.  The matrix is written a row at a time, so
# time and memory stay small: 0.14-0.25 s of CPU and 19 MiB peak RSS for that
# pair on a shared 2-core VM.
MAX_KASTELEYN_BOXES = 600

# Largest snake `snake` draws as svg, tikz or json.  Those renders take time
# and memory linear in the box count, json the most, about 9 MiB per
# thousand boxes: `snake 30001 1 --render json`, at the bound, took 3.1 s of
# CPU and 288 MiB peak RSS on a shared 2-core VM (svg 79 MiB, tikz 68 MiB).
# The bound keeps the heaviest render below `compute` at MAX_CF_SUM.  The
# ascii render has its own bound, render.MAX_ASCII_CELLS.
MAX_RENDER_BOXES = 30_000

# Most edges `matchings` prints: the matching count times the boxes + 1 edges
# of each matching.  The count is r, exponential in the box count when the
# quotients are small.  The matchings are written one at a time: `matchings
# 601 1` (361201 edges) took 2.4 s of user CPU on a shared 2-core VM,
# printed 48.6 MB and peaked at 31 MiB, and `matchings 17711 10946` (371931)
# took 2.5 s.
MAX_MATCHING_EDGES = 400_000

# Largest table `fibonacci` prints.  The rows' determinants come from one
# expansion of the strip's matrix, but each row still computes q_rational, so
# the table takes time cubic in n: 300 rows took 0.5-0.7 s of CPU.
MAX_FIBONACCI_ROWS = 300

# Largest `verify --max-r`.  The sweep checks every coprime pair s < r <= N,
# about 0.3 N^2 pairs, and a pair's cost grows with r, so the time grows
# about as N^3: --max-r 100 took 2.9 s of CPU, 200 17.9 s and 300 (27397
# pairs) 41 s on one core.  The pair list is built whole first, so without a
# bound a huge N ends in a MemoryError or an out-of-memory kill; 1000 is the
# largest sweep the property tests aim at.
MAX_VERIFY_R = 1000

# Most worker processes `verify` starts.  The pool starts every worker at
# once, each a forked interpreter that peaked at 15 MiB RSS in `verify
# --max-r 100 --jobs 2`, and the sweep is CPU-bound, so workers beyond the
# core count add memory and no speed; 64 covers large machines.
MAX_JOBS = 64


def _cf(parser: argparse.ArgumentParser, r: int, s: int) -> CF:
    """The continued fraction of r/s; a pair it refuses is a usage error."""
    try:
        cf = cf_expand(r, s)
    except ValueError as exc:
        parser.error(str(exc))
    if sum(cf) > MAX_CF_SUM:
        parser.error(f"the continued fraction of {r}/{s} sums to more than {MAX_CF_SUM}")
    return cf


def cmd_compute(args, parser) -> int:
    cf = _cf(parser, args.r, args.s)
    if args.all_routes:
        table = all_routes(cf)
        if args.format == "json":
            blob = {
                "r": args.r, "s": args.s, "cf": list(cf),
                "routes": {k: {"num": v.num.to_json(), "den": v.den.to_json()}
                           for k, v in table.fractions.items()},
                "continuant_num": table.continuant.to_json(),
                "agree": table.agree,
            }
            print(_json(blob))
        else:
            for name, v in table.fractions.items():
                print(f"{name:<16} {v.num}   /   {v.den}")
            print(f"{'continuant':<16} {table.continuant}   (numerator route)")
            print("agreement: " + ("all routes identical" if table.agree else "MISMATCH"))
        return 0 if table.agree else 1
    qr = q_matrix_eval(cf)
    if args.format == "json":
        print(_json({"r": args.r, "s": args.s, "cf": list(cf),
                     "num": qr.num.to_json(), "den": qr.den.to_json()}))
    else:
        print(f"[{args.r}/{args.s}]_q = ({qr.num}) / ({qr.den})")
    return 0


def cmd_snake(args, parser) -> int:
    cf = _cf(parser, args.r, args.s)
    boxes = sum(cf) - 1
    if args.render != "ascii" and boxes > MAX_RENDER_BOXES:
        parser.error(f"the {args.render} render is limited to snakes of at most "
                     f"{MAX_RENDER_BOXES} boxes, got {boxes}")
    g = snake_graph(cf)
    try:
        out = render(g, args.render)
    except ValueError as exc:
        parser.error(str(exc))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            parser.error(f"argument --out: cannot write {args.out!r}: {exc.strerror}")
    else:
        print(out)
    return 0


def cmd_matchings(args, parser) -> int:
    cf = _cf(parser, args.r, args.s)
    boxes = sum(cf) - 1
    # checked before the statistic too, whose sweep is quadratic in the boxes
    if boxes > MAX_ENUMERATION_BOXES:
        parser.error(f"matchings is limited to snakes of at most "
                     f"{MAX_ENUMERATION_BOXES} boxes, got {boxes}")
    g = snake_graph(cf)
    stat = matching_stat_dp(g)
    count = stat.eval_at_one()
    if count * (boxes + 1) > MAX_MATCHING_EDGES:
        parser.error(f"matchings prints at most {MAX_MATCHING_EDGES} edges; "
                     f"{args.r}/{args.s} has {count} matchings of {boxes + 1} edges")
    matchings = enumerate_matchings(g)
    _write_json_list({"r": args.r, "s": args.s, "count": len(matchings)}, "matchings",
                     (_json({"edges": [[list(u), list(v)] for u, v in m],
                             "weight_exp": matching_weight_exp(g, m)}, "    ")
                      for m in matchings),
                     {"statistic": stat.to_json(), "statistic_text": stat.text()})
    return 0


def cmd_kasteleyn(args, parser) -> int:
    boxes = sum(_cf(parser, args.r, args.s)) - 1
    if boxes > MAX_KASTELEYN_BOXES:
        parser.error(f"kasteleyn is limited to snakes of at most "
                     f"{MAX_KASTELEYN_BOXES} boxes, got {boxes}")
    report = verify_kasteleyn(args.r, args.s)
    _print_kasteleyn_json(report)
    return 0 if report.ok else 1


def _print_kasteleyn_json(report: KasteleynReport) -> None:
    """
    Print the report in the layout json.dumps(blob, indent=2) gives, dense
    zeros included, but write the matrix a row at a time, so no n x n
    structure is built.
    """
    mat = report.matrix
    pad = "      "
    zero = pad + _json(ZERO.to_json(), pad)
    rows = ("[\n" + ",\n".join([zero if e.is_zero() else pad + _json(e.to_json(), pad)
                                for e in row]) + "\n    ]"
            for row in mat.dense_rows())
    _write_json_list({"size": mat.size,
                      "black": [list(v) for v in mat.black_order],
                      "white": [list(v) for v in mat.white_order]}, "entries", rows,
                     {"det": report.det.to_json(),
                      "det_text": report.det.text(),
                      "sign": report.sign,
                      "scalar_exponent": report.scalar,
                      "verified": report.ok})


def _write_json_list(head: dict, key: str, items, tail: dict) -> None:
    """
    Print json.dumps({**head, key: [...], **tail}, indent=2) for a nonempty
    list given as items already rendered at indent 4, writing one item at a
    time, so the list is never held whole.  The parts around the list are
    json.dumps' own output: the head without its closing brace, the tail
    without its opening one.
    """
    write = sys.stdout.write
    write(json.dumps(head, indent=2)[:-2] + f',\n  {json.dumps(key)}: [')
    for i, item in enumerate(items):
        write(("\n    " if i == 0 else ",\n    ") + item)
    write("\n  ],\n" + json.dumps(tail, indent=2)[2:] + "\n")


def _json(value, pad: str = "") -> str:
    """
    json.dumps(value, indent=2) as it appears nested at indent pad, its
    first line unpadded, for dicts, lists of ints, lists of such lists and
    scalars.  Only the scalars go through json's encoder, which runs in pure
    Python when given an indent.
    """
    inner = pad + "  "
    if type(value) is dict:
        if not value:
            return "{}"
        return ("{\n" + ",\n".join([f"{inner}{json.dumps(k)}: {_json(v, inner)}"
                                     for k, v in value.items()])
                + "\n" + pad + "}")
    if type(value) is list:
        if not value:
            return "[]"
        items = (map(str, value) if type(value[0]) is not list
                 else [_json(v, inner) for v in value])
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(value)


def cmd_fibonacci(args, parser) -> int:
    if not 1 <= args.n <= MAX_FIBONACCI_ROWS:
        parser.error(f"n must be between 1 and {MAX_FIBONACCI_ROWS}")
    ok = True
    nums, dens = fibonacci_families(args.n + 1)
    # the snake of k ones is the strip's first k - 1 boxes, and under the path
    # numbering its matrix is the strip's leading k x k block
    minors = leading_minors(kasteleyn_matrix(snake_graph((1,) * args.n)))
    print(f"{'k':>3}  {'ratio':>12}  numerator / denominator")
    for k in range(1, args.n + 1):
        fr, fs = fibonacci_number(k + 1), fibonacci_number(k)
        num, den = nums[k + 1], dens[k]
        qr = q_rational(fr, fs)
        row_ok = (num, den) == (qr.num, qr.den)
        if k >= 2:
            det = minors[k].shifted(-minors[k].min_deg)
            row_ok = row_ok and abs(det.eval_at_one()) == fr and num in (det, -det)
        ok = ok and row_ok
        mark = "ok" if row_ok else "FAIL"
        print(f"{k:>3}  {fr:>6}/{fs:<5}  ({num}) / ({den})  [{mark}]")
    print("coefficient triangles: OEIS A123245 (numerators), A079487 (denominators)")
    return 0 if ok else 1


def cmd_verify(args, parser) -> int:
    if args.max_r < 2:
        parser.error("--max-r must be >= 2")
    if args.max_r > MAX_VERIFY_R:  # before any pair or worker exists
        parser.error(f"--max-r must be at most {MAX_VERIFY_R}, got {args.max_r}")
    jobs, source = args.jobs, "argument --jobs"
    if jobs is None:
        # read per call: the parser is built once, the environment may change
        env = os.environ.get("QSNAKE_JOBS", "1")
        source = "QSNAKE_JOBS"
        try:
            jobs = int(env)
        except ValueError:
            parser.error(f"argument --jobs: invalid int value: {env!r}")
    if not 1 <= jobs <= MAX_JOBS:  # before any pool exists
        parser.error(f"{source} must be between 1 and {MAX_JOBS}, got {jobs}")
    results = run_sweep(args.max_r, jobs=jobs)
    print(summarize(results))
    return 0 if all(res.ok for res in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="qsnake",
        description="q-deformed rationals via continued fractions, snake graphs "
                    "and Kasteleyn determinants; all arithmetic is exact.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="numerator/denominator of [r/s]_q")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--all-routes", action="store_true",
                   help="print every computation route and the agreement verdict")

    p = sub.add_parser("snake", help="render the snake graph of r/s")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--render", choices=("ascii", "svg", "tikz", "json"),
                   default="ascii")
    p.add_argument("--out", help="write to a file instead of stdout")

    p = sub.add_parser("matchings", help="enumerate weighted perfect matchings")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)

    p = sub.add_parser("kasteleyn", help="Kasteleyn matrix, determinant, verdict")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)

    p = sub.add_parser("fibonacci", help="table of deformed Fibonacci ratios")
    p.add_argument("n", type=int)

    p = sub.add_parser("verify", help="run every identity over a sweep of pairs")
    p.add_argument("--max-r", type=int, required=True)
    p.add_argument("--jobs", type=int)
    return parser


_COMMANDS = {
    "compute": cmd_compute,
    "snake": cmd_snake,
    "matchings": cmd_matchings,
    "kasteleyn": cmd_kasteleyn,
    "fibonacci": cmd_fibonacci,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args, parser)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so that the
        # interpreter's last flush cannot fail again, and exit as a shell
        # reports a process killed by SIGPIPE (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
