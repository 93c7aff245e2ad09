"""Dump fh/hp/pfh/php verdicts, one JSON line each, for comparing two commits.

Covers every corpus equation on every TSS of its file that has its
operators, draws of `gen.py` (seeds 100-103, 300 each: a base, a disjoint
extension, an open and a closed pair) at two bounds, and the named inputs
of perfbench/specs.  Run from the repository root:

    PYTHONPATH=src python3 tests/dump_verdicts.py > verdicts.jsonl

then `diff` the files written at two commits.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from opensos import App, Bounds, Var, check, parse, parse_term
from opensos.terms import check_term

from gen import (random_closed_term, random_extension, random_open_term,
                 random_tss)

ROOT = Path(__file__).resolve().parent.parent
NOTIONS = ("fh", "hp", "pfh", "php")
DRAW_BOUNDS = (Bounds(term_size=2, depth=8, state_cap=150, pair_cap=300),
               Bounds(term_size=2, depth=5, state_cap=100, pair_cap=50))


def cases():
    """(label, lhs, rhs, tss, bounds) for every question asked."""
    for path in sorted((ROOT / "corpus").glob("*.sos")):
        doc = parse(path.read_text())
        for i, eq in enumerate(doc.equations):
            for tss in doc.tss_decls:
                try:
                    check_term(eq.lhs, tss.all_signature)
                    check_term(eq.rhs, tss.all_signature)
                except ValueError:
                    continue  # an operator the TSS does not declare
                yield ("%s eq%d %s" % (path.stem, i, tss.name),
                       eq.lhs, eq.rhs, tss, Bounds())
    for seed in range(100, 104):
        rng = random.Random(seed)
        for n in range(300):
            base = random_tss(rng)
            ext = random_extension(rng, base, add_label=rng.random() < 0.5)
            pairs = (("open", random_open_term(rng, base, 2),
                      random_open_term(rng, base, 2)),
                     ("closed", random_closed_term(rng, base, 3),
                      random_closed_term(rng, base, 3)))
            for kind, s, t in pairs:
                for tss in (base, ext):
                    for b, bounds in enumerate(DRAW_BOUNDS):
                        yield ("seed %d draw %d %s %s bounds %d"
                               % (seed, n, kind, tss.name, b),
                               s, t, tss, bounds)
    specs = ROOT / "perfbench" / "specs"
    item3 = parse((specs / "item3.sos").read_text()).tss("T")
    for cap in (150, 5_000):
        yield ("item3 pair cap %d" % cap, App("c0"),
               parse_term("g0(c0)", item3), item3, Bounds(pair_cap=cap))
    arena = parse((specs / "arena.sos").read_text()).tss("T")
    yield ("arena", App("g0", (App("g0", (Var("y"),)),)), App("c0"), arena,
           Bounds(pair_cap=150))


def main() -> int:
    for label, s, t, tss, bounds in cases():
        for notion in NOTIONS:
            v = check(notion, s, t, tss, bounds)
            row = {"case": label, "notion": notion, "pair": [str(s), str(t)],
                   **v.to_json()}
            sys.stdout.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
