"""Dump verdicts under every notion, one JSON line each, for comparing two
commits.

Covers every corpus equation on every TSS of its file that has its
operators (fh/hp/pfh/php and ci), draws of `gen.py` (seeds 100-103, 300
each: a base, a disjoint extension, an open and a closed pair; the games
at two bounds, strong and ci on the closed pair and ci on the open one at
those two and a third with a state cap of 4), and the named inputs of
perfbench/specs.  The last lines are the closed pairs on which a
depth-bounded pair search once ran for seconds to minutes, so a dump of an
older commit can be stopped before them.  Run from the repository root:

    PYTHONPATH=src python3 tests/dump_verdicts.py > verdicts.jsonl

then `diff` the files written at two commits.  When it ends it prints one
line to stderr: the seconds spent answering each notion's questions and the
process's peak resident set size (`resource.getrusage`, in MB).  Standard
output holds the rows alone, so neither figure changes it.  With
`--pinned` it writes only the corpus and named-input rows, which
tests/pinned_verdicts.jsonl keeps and tier-1 compares line by line:

    PYTHONPATH=src python3 tests/dump_verdicts.py --pinned \
        > tests/pinned_verdicts.jsonl
"""
from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

from opensos import App, Bounds, Var, check, parse, parse_term
from opensos.terms import check_term

from gen import (random_closed_term, random_extension, random_open_term,
                 random_tss)

ROOT = Path(__file__).resolve().parent.parent
GAMES = ("fh", "hp", "pfh", "php")
DRAW_BOUNDS = (Bounds(term_size=2, depth=8, state_cap=150, pair_cap=300),
               Bounds(term_size=2, depth=5, state_cap=100, pair_cap=50))
TINY_CAP = Bounds(depth=6, state_cap=4)  # truncates most infinite LTSs early


def cases():
    """(label, lhs, rhs, tss, bounds, notions) for every question asked."""
    yield from corpus_cases()
    yield from draw_cases()
    yield from named_cases()


def corpus_cases():
    """Every corpus equation on every TSS of its file that has its
    operators."""
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
                       eq.lhs, eq.rhs, tss, Bounds(), GAMES + ("ci",))


def draw_cases():
    """The draws of `gen.py`."""
    for seed in range(100, 104):
        rng = random.Random(seed)
        for n in range(300):
            base = random_tss(rng)
            ext = random_extension(rng, base, add_label=rng.random() < 0.5)
            pairs = (("open", random_open_term(rng, base, 2),
                      random_open_term(rng, base, 2), ("ci",)),
                     ("closed", random_closed_term(rng, base, 3),
                      random_closed_term(rng, base, 3), ("strong", "ci")))
            for kind, s, t, closed_notions in pairs:
                for tss in (base, ext):
                    for b, bounds in enumerate(DRAW_BOUNDS + (TINY_CAP,)):
                        notions = closed_notions
                        if b < len(DRAW_BOUNDS):
                            notions = GAMES + notions
                        yield ("seed %d draw %d %s %s bounds %d"
                               % (seed, n, kind, tss.name, b),
                               s, t, tss, bounds, notions)


def named_cases():
    """The named inputs of perfbench/specs, the slow ones last."""
    specs = ROOT / "perfbench" / "specs"

    def spec(name):
        return parse((specs / name).read_text()).tss("T")

    item3 = spec("item3.sos")
    g0c0 = parse_term("g0(c0)", item3)
    for cap in (150, 5_000):
        yield ("item3 pair cap %d" % cap, App("c0"), g0c0, item3,
               Bounds(pair_cap=cap), GAMES)
    yield ("arena", App("g0", (App("g0", (Var("y"),)),)), App("c0"),
           spec("arena.sos"), Bounds(pair_cap=150), GAMES)
    yield ("item3", App("c0"), g0c0, item3, Bounds(), ("strong", "ci"))
    bsearch = spec("bsearch.sos")
    lhs = parse_term("g0(g0(g0(c0)))", bsearch)
    rhs = parse_term("g0(g0(g0(g1)))", bsearch)
    yield ("bsearch depth 6", lhs, rhs, bsearch,
           Bounds(term_size=2, depth=6, state_cap=150), ("strong",))
    branching = spec("branching.sos")
    yield ("branching", App("c0"), App("g0"), branching,
           Bounds(term_size=2, depth=2, state_cap=50), ("strong",))
    # the slow ones at older commits
    yield ("bsearch", lhs, rhs, bsearch, Bounds(), ("strong",))
    yield ("branching pair",
           parse_term("g1(g1(c0, c0), g1(c0, g0))", branching),
           parse_term("g1(g1(g1(g0, g0), g1(g0, g0)), "
                      "g1(g1(g0, c0), g1(c0, c0)))", branching),
           branching, Bounds(state_cap=100), ("strong",))
    rng = random.Random(61)  # draw 369 of the strong witness test
    for _ in range(370):
        tss = random_tss(rng)
        p = random_closed_term(rng, tss, 3)
        q = random_closed_term(rng, tss, 3)
    yield ("random 61 draw 369", p, q, tss, Bounds(depth=4, state_cap=8),
           ("strong",))


def rows(questions, seconds: dict | None = None):
    """One JSON line per notion of each of `questions` (as from `cases`);
    the time each `check` took is added to `seconds[notion]`, if given."""
    seconds = {} if seconds is None else seconds
    for label, s, t, tss, bounds, notions in questions:
        for notion in notions:
            start = time.perf_counter()
            v = check(notion, s, t, tss, bounds)
            seconds[notion] = (seconds.get(notion, 0.0)
                               + time.perf_counter() - start)
            row = {"case": label, "notion": notion, "pair": [str(s), str(t)],
                   **v.to_json()}
            yield json.dumps(row, sort_keys=True)


def pinned_cases():
    """The questions whose rows tests/pinned_verdicts.jsonl keeps."""
    yield from corpus_cases()
    yield from named_cases()


def main(argv: list[str]) -> int:
    if argv not in ([], ["--pinned"]):
        raise SystemExit("usage: dump_verdicts.py [--pinned]")
    seconds: dict[str, float] = {}
    questions = pinned_cases() if argv else cases()
    for line in rows(questions, seconds):
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    # ru_maxrss is in kilobytes on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stderr.write("seconds by notion: %s; total %.2f; peak RSS %.1f MB\n"
                     % (", ".join("%s %.2f" % kv
                                  for kv in sorted(seconds.items())),
                        sum(seconds.values()), peak_mb))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
