"""Command line front end: compute, snake, matchings, kasteleyn, fibonacci, verify."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterator
from contextlib import nullcontext

from .kasteleyn import kasteleyn_matrix, leading_minors, verify_kasteleyn
from .laurent import ZERO, LaurentPoly
from .matching import (MAX_ENUMERATION_BOXES, enumerate_matchings,
                       matching_stat_dp, matching_weight_exp)
from .qrational import (CF, all_routes, cf_expand, fibonacci_families,
                        fibonacci_number, q_matrix_eval, q_rational)
from .snake import far_corner, snake_graph
from .verify import run_sweep, summarize


# Longest list the JSON writer renders as one piece.  A longer one, whatever
# its items, such as the coefficients of a polynomial of high degree or the
# edges of a long snake, is written in pieces of this many items, so its
# text is never built whole.
JSON_CHUNK = 4096

# Largest continued-fraction sum (snake boxes + 1) a single-pair command
# accepts.  Time and memory grow at least linearly with it: `compute 1000000
# 999999 --all-routes`, at the bound, took 2.5-3.8 s of user CPU and 130 MiB
# peak RSS in text (printing holds most of it) and 0.3-0.5 s and 72 MiB in
# JSON, and `compute 1000000 1 --format json` 44 MiB, on a shared 2-core VM.
MAX_CF_SUM = 10**6

# Largest cost len(cf) * sum(cf) * r.bit_length() `compute` accepts.  Each
# route takes a step per quotient on polynomials of degree up to sum(cf)
# with coefficients of up to r.bit_length() bits, so the time grows with the
# product, which MAX_CF_SUM does not bound: the ratio of Fibonacci numbers
# with the 4000 quotients [1, ..., 1, 2] costs 4.5e10 and took 1.2-1.3 s
# (3.7-4.2 s with --all-routes), and its cost grows as the cube of the
# length.  The pairs that set the bound are those near MAX_CF_SUM with a few
# more quotients, in `compute --all-routes` text: 1000000/999999 (cost 4e7)
# took 2.5-3.8 s, [1, 1, 1, 999997] (8.8e7) 3.2-3.4 s, and [1] * 8 + [999992]
# (2.3e8) 3.1-4.0 s, on a shared 2-core VM.  Every other shape measured at
# the bound took under 1 s; the last Fibonacci ratio accepted has 523
# quotients and took 0.05-0.07 s with --all-routes.
MAX_COMPUTE_COST = 10**8

# Largest snake `kasteleyn` accepts.  It prints the matrix dense, every zero
# included, so its output grows with the square of the box count: the 600-box
# `kasteleyn 601 1` prints 21.8 MB.  The matrix is written a row at a time, so
# time and memory stay small: 0.14-0.22 s of user CPU and 17 MiB peak RSS
# for that pair on a shared 2-core VM, and with the bound lifted 0.25 s and
# 17.6 MiB for 1001/1, 0.59 s and 19.5 MiB for 2001/1.  So the bound is on
# the output alone, nearly all zeros, which would reach 60 MB at 1000 boxes
# and 241 MB at 2000.
MAX_KASTELEYN_BOXES = 600

# Largest snake `snake` draws as svg, tikz or json.  Those renders take time
# and memory linear in the box count.  The json blob holds the boxes and
# vertices whole and its edges as a generator, written one record at a
# time: 10001/1, 20001/1 and 30001/1 took 0.7, 1.1-1.3 and 1.2-1.9 s of
# user CPU and peaked at 25, 34 and 44 MiB, about 1 MiB per thousand
# boxes (49, 76 and 105 MiB with the edge list built whole), on a shared
# 2-core VM.  30001/1 peaked at 64 MiB as svg and 52 MiB as tikz.  The bound
# keeps the heaviest render below `compute` at MAX_CF_SUM.  The ascii render
# has its own bound, render.MAX_ASCII_CELLS.
MAX_RENDER_BOXES = 30_000

# Most edges `matchings` prints: the matching count times the boxes + 1 edges
# of each matching.  The count is r, exponential in the box count when the
# quotients are small.  The matchings are written one at a time, and time
# grows with the edges: `matchings 6250 3901`, at the bound (6250 matchings
# of 64 edges), took 1.9-2.6 s of user CPU on a shared 2-core VM, printed
# 52.7 MB and peaked at 28 MiB; `matchings 601 1` (361201 edges) took
# 1.8-2.8 s and 31 MiB, and `matchings 17711 10946` (371931) 2.7-2.8 s and
# 29 MiB.  So the bound keeps `matchings` within a few seconds.
MAX_MATCHING_EDGES = 400_000

# Largest table `fibonacci` prints.  The rows' determinants come from one
# expansion of the strip's matrix, but each row still computes q_rational, so
# the table takes time cubic in n: 300 rows took 0.24-0.38 s of CPU on a
# shared 2-core Xeon.
MAX_FIBONACCI_ROWS = 300

# Largest `verify --max-r`, a bound on time alone, as pairs and results are
# streamed.  The sweep checks every coprime pair s < r <= N, about 0.3 N^2
# of them, each costlier as r grows, so the time grows about as N^2.2:
# --max-r 300 took 17-18 s of CPU on one core and 1000, the largest sweep
# the property tests aim at, 319 s.
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
    cost = len(cf) * sum(cf) * args.r.bit_length()
    if cost > MAX_COMPUTE_COST:
        parser.error(f"compute is limited to a cost of {MAX_COMPUTE_COST} (the length "
                     f"times the sum of the continued fraction times the bits of r); "
                     f"{args.r}/{args.s} costs {cost}")
    if args.all_routes:
        table = all_routes(cf)
        if args.format == "json":
            _write_json({
                "r": args.r, "s": args.s, "cf": list(cf),
                "routes": {k: {"num": v.num, "den": v.den}
                           for k, v in table.fractions.items()},
                "continuant_num": table.continuant,
                "agree": table.agree,
            })
        else:
            for name, v in table.fractions.items():
                print(f"{name:<16} {v.num}   /   {v.den}")
            print(f"{'continuant':<16} {table.continuant}   (numerator route)")
            print("agreement: " + ("all routes identical" if table.agree else "MISMATCH"))
        return 0 if table.agree else 1
    qr = q_matrix_eval(cf)
    if args.format == "json":
        _write_json({"r": args.r, "s": args.s, "cf": list(cf), "num": qr.num, "den": qr.den})
    else:
        print(f"[{args.r}/{args.s}]_q = ({qr.num}) / ({qr.den})")
    return 0


def cmd_snake(args, parser) -> int:
    cf = _cf(parser, args.r, args.s)
    boxes = sum(cf) - 1
    from .render import ascii_grid, graph_json, render  # so no other command compiles render
    if args.render == "ascii":
        try:
            ascii_grid(far_corner(cf))
        except ValueError as exc:
            parser.error(str(exc))
    elif boxes > MAX_RENDER_BOXES:
        parser.error(f"the {args.render} render is limited to snakes of at most "
                     f"{MAX_RENDER_BOXES} boxes, got {boxes}")
    g = snake_graph(cf)
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
            if args.render == "json":
                _write_json(graph_json(g), out)
            else:
                print(render(g, args.render), file=out)
    except OSError as exc:
        if not args.out:
            raise  # on stdout: main answers a closed pipe with exit 141
        parser.error(f"argument --out: cannot write {args.out!r}: {exc.strerror}")
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
    _write_json({"r": args.r, "s": args.s, "count": len(matchings),
                 "matchings": ({"edges": m, "weight_exp": matching_weight_exp(g, m)}
                               for m in matchings),
                 "statistic": stat, "statistic_text": stat.text()})
    return 0


def cmd_kasteleyn(args, parser) -> int:
    boxes = sum(_cf(parser, args.r, args.s)) - 1
    if boxes > MAX_KASTELEYN_BOXES:
        parser.error(f"kasteleyn is limited to snakes of at most "
                     f"{MAX_KASTELEYN_BOXES} boxes, got {boxes}")
    report = verify_kasteleyn(args.r, args.s)
    mat = report.matrix
    # dense, zeros included, but a row at a time: no n x n structure is built
    _write_json({"size": len(mat), "black": mat.black_order, "white": mat.white_order,
                 "entries": mat.dense_rows(),
                 "det": report.det, "det_text": report.det.text(), "sign": report.sign,
                 "scalar_exponent": report.scalar, "verified": report.ok})
    return 0 if report.ok else 1


def _write_json(blob, out=None) -> None:
    """
    Write _json(blob) to out, stdout by default, a piece at a time, so the
    document is never held whole; an iterator in it is written as a list.
    """
    out = out or sys.stdout
    out.writelines(_json_pieces(blob, "", []))
    out.write("\n")


def _json_pieces(value, pad: str, rendered: list):
    """
    The pieces of _json(value, pad), an iterator as the list of its items:
    one piece per key, scalar, short list, polynomial or iterator item, and
    a list of more than JSON_CHUNK items one piece per JSON_CHUNK items, so
    no text of a long list is built whole.  An iterator is read as the
    value itself or as a dict's value outside every list and iterator.  A
    polynomial's pieces are kept in rendered, a list of (polynomial, pad,
    pieces) with the pad they were rendered at, so each distinct polynomial
    is rendered once: at another indent every line of a cached piece starts
    with the old pad and takes the new one by one replace.  Not a closure:
    a recursive closure is a reference cycle, which holds its texts until
    the cyclic collector runs.
    """
    if type(value) is dict and value:
        inner = pad + "  "
        sep = "{\n"
        for k, v in value.items():
            yield f"{sep}{inner}{json.dumps(k)}: "
            yield from _json_pieces(v, inner, rendered)
            sep = ",\n"
        yield "\n" + pad + "}"
    elif type(value) is LaurentPoly:
        # found by identity, then by equality, which stops at the first
        # coefficient that differs; no polynomial is hashed
        hit = (next((h for h in rendered if h[0] is value), None)
               or next((h for h in rendered if h[0] == value), None))
        if hit is None:
            blob = value.to_json()
            hit = (value, pad, [_json(blob, pad)] if len(value.coeffs) <= JSON_CHUNK
                   else list(_json_pieces(blob, pad, rendered)))
            rendered.append(hit)
        _, at, pieces = hit
        if at == pad:
            yield from pieces
        else:
            for piece in pieces:
                yield piece.replace("\n" + at, "\n" + pad)
    elif isinstance(value, Iterator) or type(value) in (list, tuple) and len(value) > JSON_CHUNK:
        inner = pad + "  "
        # a chunk's items are its _json text without the brackets
        texts = ((_json(item, inner) for item in value) if isinstance(value, Iterator) else
                 (_json(value[i:i + JSON_CHUNK], pad)[len(inner) + 2:-len(pad) - 2]
                  for i in range(0, len(value), JSON_CHUNK)))
        sep = "[\n"
        for text in texts:
            yield sep + inner + text
            sep = ",\n"
        yield "[]" if sep == "[\n" else "\n" + pad + "]"
    else:
        yield _json(value, pad)


def _json(value, pad: str = "") -> str:
    """
    json.dumps(value, indent=2) as it appears nested at indent pad, its
    first line unpadded, for dicts, lists, tuples and scalars, a polynomial
    as its to_json().  A list whose first item is an int or a polynomial
    holds only those: ints are written by one %-format of "%d" fields
    joined by the separator, with no str call per item, and polynomials
    with a constant-time zero test, since a dense Kasteleyn row is nearly
    all zeros and a hash or a generator per entry would cost more than its
    text.  Each level is built by one f-string or join, not a chain of
    concatenations that would copy a long list's text once per operand.
    Only the scalars other than ints go through json's encoder, which runs
    in pure Python when given an indent.
    """
    if type(value) is list or type(value) is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        kind = type(value[0])
        if kind is int:
            text = sep.join(["%d"] * len(value)) % tuple(value)
        elif kind is LaurentPoly:
            zero = _json(ZERO, inner)
            text = sep.join([_json(v, inner) if v.coeffs else zero for v in value])
        else:
            text = sep.join([_json(v, inner) for v in value])
        return f"[\n{inner}{text}\n{pad}]"
    if type(value) is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        text = ",\n".join([f"{inner}{json.dumps(k)}: {_json(v, inner)}"
                           for k, v in value.items()])
        return f"{{\n{text}\n{pad}}}"
    if type(value) is LaurentPoly:
        return _json(value.to_json(), pad)
    if type(value) is int:
        return "%d" % value
    return json.dumps(value)


def cmd_fibonacci(args, parser) -> int:
    if not 1 <= args.n <= MAX_FIBONACCI_ROWS:
        parser.error(f"n must be between 1 and {MAX_FIBONACCI_ROWS}")
    ok = True
    nums, dens = fibonacci_families(args.n + 1)
    # the snake of k ones is the strip's first k - 1 boxes, and under the path
    # numbering its matrix is the strip's leading k x k block
    minors = list(leading_minors(kasteleyn_matrix(snake_graph((1,) * args.n))))
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
    summary, ok = summarize(run_sweep(args.max_r, jobs=jobs))
    print(summary)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="qsnake",
        description="q-deformed rationals via continued fractions, snake graphs "
                    "and Kasteleyn determinants; all arithmetic is exact.")
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)  # the r s of every pair command
    pair.add_argument("r", type=int)
    pair.add_argument("s", type=int)

    p = sub.add_parser("compute", parents=[pair], help="numerator/denominator of [r/s]_q")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--all-routes", action="store_true",
                   help="print every computation route and the agreement verdict")

    p = sub.add_parser("snake", parents=[pair], help="render the snake graph of r/s")
    p.add_argument("--render", choices=("ascii", "svg", "tikz", "json"),
                   default="ascii")
    p.add_argument("--out", help="write to a file instead of stdout")

    sub.add_parser("matchings", parents=[pair], help="enumerate weighted perfect matchings")
    sub.add_parser("kasteleyn", parents=[pair], help="Kasteleyn matrix, determinant, verdict")

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
