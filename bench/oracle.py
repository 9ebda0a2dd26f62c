"""Exact output oracle for the benchmark, written without qsnake.

A deformed rational [r/s]_q is a reduced fraction num/den of polynomials in q
with positive integer coefficients and leading coefficient 1.  At q = 1 it
gives back r/s.  At q = 2 it equals the deformed nested fraction

    [a1]_q + q^a1 / ([a2]_{1/q} + q^-a2 / ([a3]_q + q^a3 / (...)))

evaluated in ``fractions.Fraction``, where [a]_q = 1 + q + ... + q^(a-1).
Every check raises ``Mismatch`` with a message naming the pair and the check.
"""

from __future__ import annotations

import json
from fractions import Fraction

CHECKS = ("routes", "theorem", "counts", "kasteleyn", "cases")


class Mismatch(Exception):
    """An operation's output failed an exact check."""


def cf_expand(r: int, s: int) -> tuple[int, ...]:
    """Regular continued fraction of r/s by the Euclidean algorithm."""
    out = []
    while s:
        out.append(r // s)
        r, s = s, r % s
    return tuple(out)


def nested_at_two(cf: tuple[int, ...]) -> Fraction:
    """The deformed nested fraction of ``cf`` at q = 2."""
    def bracket(a: int, position: int) -> Fraction:
        # odd positions use [a]_q, even positions [a]_{1/q}
        return Fraction(2**a - 1) if position % 2 else 2 - Fraction(2, 2**a)

    value = bracket(cf[-1], len(cf))
    for position in range(len(cf) - 1, 0, -1):
        a = cf[position - 1]
        prefactor = Fraction(2**a) if position % 2 else Fraction(1, 2**a)
        value = bracket(a, position) + prefactor / value
    return value


def _at_two(coeffs: list[int]) -> int:
    value = 0
    for c in reversed(coeffs):
        value = 2 * value + c
    return value


def _check_poly(label: str, poly: dict, at_one: int) -> list[int]:
    coeffs = poly["coeffs"]
    if poly["min_deg"] != 0 or not coeffs:
        raise Mismatch(f"{label}: expected a polynomial starting at q^0, got {poly}")
    if any(type(c) is not int or c <= 0 for c in coeffs) or coeffs[-1] != 1:
        raise Mismatch(f"{label}: coefficients are not positive and monic")
    if sum(coeffs) != at_one:
        raise Mismatch(f"{label}: value at q = 1 is {sum(coeffs)}, expected {at_one}")
    return coeffs


def check_fraction(label: str, num: dict, den: dict, r: int, s: int,
                   cf: tuple[int, ...]) -> None:
    """num/den is [r/s]_q: checked at q = 1 and against the nested fraction at q = 2."""
    n = _check_poly(f"{label} num", num, r)
    d = _check_poly(f"{label} den", den, s)
    if Fraction(_at_two(n), _at_two(d)) != nested_at_two(cf):
        raise Mismatch(f"{label}: num(2)/den(2) differs from the nested fraction at q = 2")


def check_compute(r: int, s: int, code: int, stdout: str, all_routes: bool) -> None:
    """Check the stdout of ``qsnake compute r s [--all-routes] --format json``."""
    if code != 0:
        raise Mismatch(f"{r}/{s}: exit code {code}")
    blob = json.loads(stdout)
    cf = cf_expand(r, s)
    if (blob["r"], blob["s"], tuple(blob["cf"])) != (r, s, cf):
        raise Mismatch(f"{r}/{s}: echoed r, s or cf is wrong")
    if not all_routes:
        check_fraction(f"{r}/{s}", blob["num"], blob["den"], r, s, cf)
        return
    if blob["agree"] is not True:
        raise Mismatch(f"{r}/{s}: routes do not agree")
    if set(blob["routes"]) != {"matrix", "nested-fraction", "recurrence-map"}:
        raise Mismatch(f"{r}/{s}: unexpected route names {sorted(blob['routes'])}")
    for name, frac in blob["routes"].items():
        check_fraction(f"{r}/{s} {name}", frac["num"], frac["den"], r, s, cf)
    if blob["continuant_num"] != blob["routes"]["matrix"]["num"]:
        raise Mismatch(f"{r}/{s}: continuant numerator differs from the matrix route")


def check_pair_result(r: int, s: int, result) -> None:
    """Check a ``qsnake.verify.PairResult`` for the pair r/s."""
    if (result.r, result.s) != (r, s):
        raise Mismatch(f"{r}/{s}: result is for {result.r}/{result.s}")
    if tuple(result.passed) != CHECKS:
        raise Mismatch(f"{r}/{s}: unexpected checks {tuple(result.passed)}")
    if not result.ok:
        failed = [k for k, v in result.passed.items() if not v]
        raise Mismatch(f"{r}/{s}: checks failed: {', '.join(failed)}")
    if result.cases_applicable != (sum(cf_expand(r, s)) >= 3):
        raise Mismatch(f"{r}/{s}: wrong cases_applicable")
