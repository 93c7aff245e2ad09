"""The benchmark's workloads: inputs made from a seed, the questions asked of
opensos, and the checks made on its answers.

A round builds fresh inputs (it parses the specifications and generates the
random TSSs again, so no `Tss._memo` cache carries over from an earlier
round), asks every question of the workload once, and keeps for each
question its time and outcome.  The checks run after the timed rounds, on
the first round's records, against the oracle in `oracle.py`.

Calls into opensos go through module attributes (`bisim.check`, ...) at call
time, so the traced run sees them.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from opensos import App, Bounds, Signature, Tss, Var
from opensos import bisim, cli, equations, specio

import oracle as ref
from gen import random_extension, random_rule, random_term

HERE = Path(__file__).resolve().parent
SPECS = HERE / "specs"
CORPUS = HERE.parent / "corpus"

# Random draws run at smaller bounds than the randomized acceptance suites
# (term_size=2, depth=8, state_cap=150, pair_cap=300), so that no single
# draw outweighs the rest: per-draw cost has a heavy tail (a few draws in a
# thousand take seconds at those bounds), which would make a round's time
# depend on which seed happened to draw one.  The named inputs carry the tail.
RANDOM = Bounds(term_size=2, depth=5, state_cap=100, pair_cap=50)

@dataclass(frozen=True)
class Scale:
    open_questions: int  # random open-term questions per round
    closed_draws: int  # random closed pairs per round (4 questions each)
    chain: int  # steps per action chain in the par compositions
    advise_size: int  # term size of the ci sweeps of the corpus equations
    named: Bounds  # bounds of the item-3 and arena games
    search: Bounds  # bounds of the depth-bounded search input
    branching: Bounds  # bounds of the heavy-branching closed pair


# The named inputs run at smaller bounds than where they were reported (pair
# cap 5000 and 300, search depth 8), where each took 4 to 13 s: an
# open-games round then takes a few seconds, and the median over the rounds
# of a run filters out short bursts of load on a shared machine.
FULL = Scale(open_questions=2000, closed_draws=200, chain=12, advise_size=3,
             named=Bounds(pair_cap=150),
             search=Bounds(term_size=2, depth=6, state_cap=150),
             branching=Bounds(term_size=2, depth=2, state_cap=50))
SHORT = Scale(open_questions=80, closed_draws=20, chain=4, advise_size=2,
              named=Bounds(pair_cap=60),
              search=Bounds(term_size=2, depth=4, state_cap=150),
              branching=Bounds(term_size=2, depth=2, state_cap=20))


# ---------------------------------------------------------------------------
# records


@dataclass
class Record:
    name: str
    seconds: float
    outcome: str  # verdict kind, advisor summary or "error: ..."
    decided: int = 0
    failed: bool = False
    sweep: bool = False  # a ci sweep: counts toward subst_per_s
    substitutions: int = 0
    part: int = 0  # the part of the round the question was asked in
    start: float = 0.0  # perf_counter() when the question was asked
    check: object = None  # () -> list of problems, run after the rounds


@dataclass
class Round:
    records: list = field(default_factory=list)
    part: int = 0  # subst_per_s is taken per part, each holding sweeps
    speed: object = None  # a speed.Speed sampled between questions, or None

    def ask(self, name: str, fn, *args):
        """Time one top-level question; returns its result (None on error)."""
        if self.speed is not None:
            self.speed.tick()
        start = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # a crash is a failed operation, not a stop
            result, error = None, "error: %s: %s" % (type(exc).__name__, exc)
        end = time.perf_counter()
        rec = Record(name, end - start, error or "", part=self.part,
                     start=start)
        rec.failed = error is not None
        self.records.append(rec)
        return result, rec


def _verdict(rec: Record, v) -> None:
    if v is None:
        return
    rec.outcome = v.kind
    rec.decided = int(v.kind in ("holds", "fails"))


# ---------------------------------------------------------------------------
# generators: those of the randomized acceptance suites (tests/gen.py), but
# with the shape of each TSS taken in turn rather than drawn


# The shapes (label count, arities of the operators besides c0) that the
# acceptance suites' generator draws, each repeated in proportion to its
# probability there.  Draws cycle through them rather than drawing a shape,
# so every seed tries the same mix of shapes and only the rules are random.
SHAPES = [(nlabels, arities)
          for nlabels in (1, 2)
          for n in range(3)
          for arities in itertools.product(range(3), repeat=n)
          for _ in range(3 ** (2 - n))]


def random_tss(rng, shape) -> Tss:
    nlabels, arities = shape
    labels = ("a", "b")[:nlabels]
    ops = {"c0": 0}
    for i, arity in enumerate(arities):
        ops["g%d" % i] = arity
    rules = []
    for op in sorted(ops):
        for _ in range(rng.randint(0, 2)):
            rules.append(random_rule(rng, op, ops[op], labels, ops,
                                     "r%d" % len(rules)))
    return Tss("T", Signature.of(ops), labels, tuple(rules), None)


def distinct_pair(make):
    """Two different terms; identical pairs are the named inputs' job."""
    for _ in range(20):
        s, t = make(), make()
        if s != t:
            return s, t
    return None


# A closed term whose rules multiply branching (a binary operator with a
# premise on each argument, over arguments that each move several ways) can
# make a single `transitions` call enumerate thousands of successors, and
# `explore` computes every explored state's successors before its state cap
# applies, so one such draw can run for minutes.  Draws that reach a state
# with more than BRANCHING derivations for one label within the search depth
# are left out, judged by the oracle, not by running the program; one such
# pair is asked as a named input at bounds where it ends (specs/branching.sos).
BRANCHING = 6


def screen(candidates, wanted: int, ok) -> list[int]:
    """Indices of the first `wanted` candidates that pass `ok`.  The screen
    runs apart from set-up, which then builds only the kept candidates."""
    keep = []
    for i, cand in enumerate(candidates):
        if len(keep) >= wanted:
            break
        if ok(cand):
            keep.append(i)
    return keep


def kept(candidates, keep: list[int]) -> list:
    """The candidates at the indices of `keep`, in order."""
    wanted = set(keep)
    return [c for i, c in zip(range(max(keep, default=-1) + 1), candidates)
            if i in wanted]


def tame(tss: Tss, terms) -> bool:
    """Judge terms by their closed instances under the ci sweep's pool over
    tss (closed terms are their own instance)."""
    ops = tss.all_signature.as_dict()
    orc = ref.Oracle(ops, tss.all_labels, tss.all_rules)
    patterns = [ref.from_program(t) for t in terms]
    names = sorted(set().union(*map(ref.variables, patterns)))
    pool = [orc.intern(p) for p in ref.closed_terms(ops, RANDOM.term_size)]
    roots = set()
    for images in itertools.product(pool, repeat=len(names)):
        env = dict(zip(names, images))
        roots.update(orc.intern(p, env) for p in patterns)
    return orc.tame(roots, RANDOM.depth + 1, 4 * RANDOM.state_cap, BRANCHING)


def _parse_spec(name: str):
    return specio.parse((SPECS / name).read_text())


def _fixtures() -> list[dict]:
    return json.loads((CORPUS / "manifest.json").read_text())["fixtures"]


# ---------------------------------------------------------------------------
# checks shared by the workloads


def check_fails_witness(notion: str, v, s, t, orc: ref.Oracle) -> list[str]:
    if not v.fails:
        return []
    if notion in ("fh", "hp", "pfh", "php"):
        why = ref.replay_game(v.witness)
    elif notion == "ci" and nvars(s, t):
        why = orc.replay_ci(v.witness, ref.from_program(s), ref.from_program(t))
    else:
        why = orc.replay_strong(v.witness, orc.intern(ref.from_program(s)),
                                orc.intern(ref.from_program(t)))
    return ["%s %s ~ %s: %s" % (notion, s, t, why)] if why else []


_SWEEP = re.compile(r"term size (\d+), (\d+) substitutions")


def check_sweep_count(v, s, t, ops: dict) -> list[str]:
    """A clean ci sweep must report the oracle's number of substitutions."""
    k = nvars(s, t)
    if v.vacuous:
        total = ref.closing_substitutions(ops, 1, 1)
        return [] if total == 0 else ["ci %s ~ %s: vacuous, yet %d constants"
                                      % (s, t, total)]
    m = _SWEEP.search(v.reason)
    if v.kind != "inconclusive" or not k or m is None:
        return []
    want = ref.closing_substitutions(ops, int(m.group(1)), k)
    if int(m.group(2)) != want:
        return ["ci %s ~ %s: %s substitutions reported, %d exist"
                % (s, t, m.group(2), want)]
    return []


def nvars(s, t) -> int:
    return len(ref.variables(ref.from_program(s))
               | ref.variables(ref.from_program(t)))


def sweep_size(v, s, t, ops: dict, term_size: int) -> int:
    """Closing substitutions a ci sweep of open terms answered for, by the
    oracle's count: all of them after a clean sweep, none after a fails (the
    sweep stops at its witness).  A ci question on a closed pair is a single
    strong check, not a sweep, and counts nothing."""
    k = nvars(s, t)
    if v is None or v.fails or not k:
        return 0
    return ref.closing_substitutions(ops, term_size, k)


class SpecView:
    """What the checks keep of a Tss: no program caches, just its rules."""

    def __init__(self, tss: Tss):
        self.ops = tss.all_signature.as_dict()
        self.labels = tss.all_labels
        self.rules = tss.all_rules
        self.own_rules = tss.rules
        self._oracle = None

    @property
    def oracle(self) -> ref.Oracle:
        if self._oracle is None:
            self._oracle = ref.Oracle(self.ops, self.labels, self.rules)
        return self._oracle


# ---------------------------------------------------------------------------
# open-games


def open_candidates(seed: int):
    """Random draws: a base TSS, its two extensions and an open pair (None
    when no two different terms came up)."""
    rng = random.Random(seed)
    for shape in itertools.cycle(SHAPES):
        base = random_tss(rng, shape)
        ext0 = random_extension(rng, base, add_label=False)
        ext1 = random_extension(rng, base, add_label=True)
        ops = base.all_signature.as_dict()
        pair = distinct_pair(
            lambda: random_term(rng, ops, ["x", "y"], rng.randint(0, 2)))
        yield {"base": base, "ext0": ext0, "ext1": ext1}, pair


def open_games_screen(seed: int, scale: Scale) -> list[int]:
    # each draw asks at least four questions, so this many always suffice
    wanted = -(-(scale.open_questions + 4 * EX1_PASSES) // 4)
    return screen(open_candidates(seed), wanted, lambda c: (
        c[1] is not None and tame(c[0]["ext0"], c[1])
        and tame(c[0]["ext1"], c[1])))


def open_games_inputs(seed: int, scale: Scale, keep: list[int]) -> dict:
    draws = []
    for layers, pair in kept(open_candidates(seed), keep):
        views = {k: SpecView(v) for k, v in layers.items()}
        draws.append((layers, views) + pair)
    ex1 = (CORPUS / "ex1.sos").read_text()
    named = {
        "item3": _parse_spec("item3.sos").tss("T"),
        "arena": _parse_spec("arena.sos").tss("T"),
        "ccs": [(doc.tss("CcsExt"), doc.equations)
                for doc in (specio.parse(ex1) for _ in range(EX1_PASSES))],
    }
    fixtures = []
    for fx in _fixtures():
        if fx["command"] == "check" and fx["notion"] in ("fh", "hp", "pfh", "php"):
            doc = specio.parse((CORPUS / fx["spec"]).read_text())
            tss = doc.tss(fx["tss"])
            fixtures.append((fx, tss, specio.parse_term(fx["lhs"], tss),
                             specio.parse_term(fx["rhs"], tss)))
    return {"draws": draws, "named": named, "fixtures": fixtures}


def _ask_check(rnd: Round, name: str, notion: str, s, t, tss, bounds,
               view: SpecView):
    v, rec = rnd.ask(name, bisim.check, notion, s, t, tss, bounds)
    _verdict(rec, v)
    if v is not None:
        rec.check = lambda: check_fails_witness(notion, v, s, t, view.oracle)
    return v, rec


def _identical(rec: Record, v) -> None:
    """An identical pair is bisimilar under every notion here."""
    if v is not None and v.inconclusive:
        rec.failed = True
    if v is not None and v.fails:
        rec.check = _chain(rec.check, lambda: ["%s: an identical pair fails"
                                               % rec.name])


# The ex1 sweeps take half a second; asked once a round they would sample
# the machine's speed in one short window, so they are asked EX1_PASSES
# times, each on its own parse, spread between slices of the random draws.
EX1_PASSES = 3


def open_games(rnd: Round, inputs: dict, scale: Scale) -> None:
    open_named(rnd, inputs, scale)
    draws = iter(enumerate(inputs["draws"]))
    for i, (ccs, eqs) in enumerate(inputs["named"]["ccs"]):
        rnd.part = i
        open_ex1(rnd, ccs, eqs, scale)
        open_draws(rnd, draws, scale.open_questions // EX1_PASSES)


def open_named(rnd: Round, inputs: dict, scale: Scale) -> None:
    for fx, tss, s, t in inputs["fixtures"]:
        view = SpecView(tss)
        v, rec = _ask_check(rnd, "fixture " + fx["name"], fx["notion"], s, t,
                            tss, Bounds(), view)
        rec.check = _chain(rec.check, lambda rec=rec, expect=fx["expect"]: (
            [] if rec.outcome == expect else
            ["%s: %s, manifest expects %s" % (rec.name, rec.outcome, expect)]))

    item3 = inputs["named"]["item3"]
    c0 = App("c0")
    for notion in ("fh", "hp"):
        v, rec = _ask_check(rnd, "item3 %s c0 ~ c0" % notion, notion, c0, c0,
                            item3, scale.named, SpecView(item3))
        _identical(rec, v)
    arena = inputs["named"]["arena"]
    _ask_check(rnd, "arena php g0(g0(y)) ~ c0", "php",
               App("g0", (App("g0", (Var("y"),)),)), c0, arena,
               scale.named, SpecView(arena))


def open_ex1(rnd: Round, ccs: Tss, eqs, scale: Scale) -> None:
    """The equations of ex1 on CcsExt under hp, and ci where hp holds: a
    fixed sweep, so that subst_per_s does not hang on the random draws."""
    view = SpecView(ccs)
    sweep = Bounds(term_size=scale.advise_size)
    for eq in eqs:
        v, _ = _ask_check(rnd, "ex1 %s hp" % eq.name, "hp", eq.lhs, eq.rhs,
                          ccs, Bounds(), view)
        if v is None or not v.holds:
            continue
        c, rec = _ask_check(rnd, "ex1 %s ci" % eq.name, "ci", eq.lhs, eq.rhs,
                            ccs, sweep, view)
        rec.sweep = True
        rec.substitutions = sweep_size(c, eq.lhs, eq.rhs, view.ops,
                                       sweep.term_size)
        if c is not None:
            rec.check = _chain(rec.check, lambda c=c, eq=eq: (
                check_sweep_count(c, eq.lhs, eq.rhs, view.ops)
                + (["hp holds but ci fails: %s" % eq] if c.fails else [])))


def open_draws(rnd: Round, draws, budget: int) -> None:
    """Ask exactly `budget` questions of the next draws of the iterator."""
    for i, (layers, views, s, t) in draws:
        asked: dict = {}
        plan = [(n, "base") for n in ("fh", "hp", "pfh", "php")]
        while plan and budget > 0:
            notion, where = plan.pop(0)
            v, rec = _ask_check(rnd, "draw %d %s %s" % (i, notion, where),
                                notion, s, t, layers[where], RANDOM,
                                views[where])
            budget -= 1
            asked[notion, where] = v
            if notion == "ci":
                rec.sweep = nvars(s, t) > 0
                rec.substitutions = sweep_size(v, s, t, views["base"].ops,
                                               RANDOM.term_size)
            elif where == "base" and v is not None and v.holds:
                plan.append((notion, "ext0"))
                if notion in ("pfh", "php"):
                    plan.append((notion, "ext1"))
                if notion == "hp":
                    plan.append(("ci", "base"))
        rnd.records[-1].check = _chain(
            rnd.records[-1].check,
            lambda asked=asked, s=s, t=t, views=views:
                open_properties(asked, s, t, views))
        if budget <= 0:
            return


def _chain(first, second):
    def both():
        return (first() if first else []) + second()
    return both


def open_properties(asked: dict, s, t, views: dict) -> list[str]:
    """The paper's properties on one draw of open-games."""
    out = []

    def kind(notion, where):
        v = asked.get((notion, where))
        return v.kind if v is not None else None

    pair = "%s ~ %s" % (s, t)
    if kind("fh", "base") == "holds" and kind("hp", "base") == "fails":
        out.append("fh holds but hp fails: " + pair)
    if kind("hp", "base") == "holds" and kind("ci", "base") == "fails":
        out.append("hp holds but ci fails: " + pair)
    for notion in ("fh", "hp", "pfh", "php"):
        if kind(notion, "base") != "holds":
            continue
        exts = ("ext0", "ext1") if notion in ("pfh", "php") else ("ext0",)
        for where in exts:
            if kind(notion, where) == "fails":
                out.append("%s holds on the base, fails on %s: %s"
                           % (notion, where, pair))
    v = asked.get(("ci", "base"))
    if v is not None:
        out += check_sweep_count(v, s, t, views["base"].ops)
    out += conservative(views["base"], views["ext0"])
    out += conservative(views["base"], views["ext1"])
    return out


def conservative(base: SpecView, ext: SpecView) -> list[str]:
    """Closed base terms up to size 2 keep their transitions in a disjoint
    extension."""
    def moves(orc, p):
        return {(l, orc.show(q)) for l, q in orc.succ(orc.intern(p))}

    for p in ref.closed_terms(base.ops, 2):
        if moves(base.oracle, p) != moves(ext.oracle, p):
            return ["extension changes the transitions of %s"
                    % base.oracle.show(base.oracle.intern(p))]
    return []


# ---------------------------------------------------------------------------
# closed pairs, the large-LTS part of ci-advise


def _chain_term(op: str, n: int) -> str:
    return "%s%s%s" % ("".join(op + "(" for _ in range(n)), "nil", ")" * n)


def closed_candidates(rng):
    """Random closed pairs: a TSS and two terms (None when no two different
    terms came up)."""
    for shape in itertools.cycle(SHAPES):
        tss = random_tss(rng, shape)
        ops = tss.all_signature.as_dict()
        yield tss, distinct_pair(
            lambda: random_term(rng, ops, [], rng.randint(1, 3)))


def ci_advise_screen(seed: int, scale: Scale) -> list[int]:
    return screen(closed_candidates(random.Random(seed)), scale.closed_draws,
                  lambda c: c[1] is not None and tame(*c))


def closed_inputs(seed: int, scale: Scale, keep: list[int]) -> dict:
    rng = random.Random(seed)
    draws = [(tss,) + pair for tss, pair in kept(closed_candidates(rng), keep)]
    # the seed orders the chains and picks the one the fails variant shortens
    chains = rng.sample(["pa", "pb", "pc"], 3)
    short = rng.randrange(3)
    pars = []
    for variant in ("holds", "fails"):
        tss = _parse_spec("chains.sos").tss("Chains")
        lens = [scale.chain] * 3
        if variant == "fails":
            lens[short] -= 1
        x, y, z = (_chain_term(op, n) for op, n in zip(chains, lens))
        lhs = specio.parse_term("par(%s, par(%s, %s))" % (x, y, z), tss)
        x, y, z = (_chain_term(op, scale.chain) for op in chains)
        rhs = specio.parse_term("par(par(%s, %s), %s)" % (x, y, z), tss)
        pars.append((variant, tss, lhs, rhs))
    return {"draws": draws, "pars": pars,
            "search": _parse_spec("bsearch.sos").tss("T"),
            "branching": _parse_spec("branching.sos").tss("T")}


def _closed_pair(rnd: Round, name: str, tss, p, q, bounds, notions,
                 expect: str | None = None) -> None:
    view = SpecView(tss)
    asked = {}
    for notion in notions:
        v, rec = _ask_check(rnd, "%s %s" % (name, notion), notion, p, q, tss,
                            bounds, view)
        asked[notion] = v
    rnd.records[-1].check = _chain(
        rnd.records[-1].check,
        lambda: closed_agreement(name, asked, p, q, view, expect))


def closed_agreement(name: str, asked: dict, p, q, view: SpecView,
                     expect: str | None) -> list[str]:
    """Decided verdicts on a closed pair agree with each other and with the
    oracle's naive greatest fixpoint."""
    out = []
    if expect is None and all(v is None or v.inconclusive for v in asked.values()):
        return out  # nothing decided, nothing to compare
    orc = view.oracle
    truth = orc.bisimilar(orc.intern(ref.from_program(p)),
                          orc.intern(ref.from_program(q)))
    want = {True: "holds", False: "fails", None: None}[truth]
    if expect is not None and want != expect:
        out.append("%s: oracle says %s, expected %s" % (name, want, expect))
    for notion, v in asked.items():
        if v is None or v.inconclusive:
            continue
        if want is None and v.holds:
            out.append("%s %s: holds, but the oracle cannot explore the LTS"
                       % (name, notion))
        elif want is not None and v.kind != want:
            out.append("%s %s: %s, oracle says %s" % (name, notion, v.kind, want))
    kinds = {v.kind for v in asked.values() if v is not None and not v.inconclusive}
    if len(kinds) > 1:
        out.append("%s: decided verdicts disagree: %s" % (name, sorted(kinds)))
    return out


def closed_parts(inputs: dict, scale: Scale) -> list:
    """The closed pairs in ADVISE_PASSES parts of about the same length: each
    par composition, then the named search inputs and the random draws."""
    notions = ("strong", "ci", "fh", "hp")

    def par(variant, tss, lhs, rhs):
        return lambda rnd: _closed_pair(rnd, "par " + variant, tss, lhs, rhs,
                                        Bounds(), notions, expect=variant)

    def rest(rnd):
        _closed_pair(rnd, "bsearch", inputs["search"],
                     App("g0", (App("g0", (App("g0", (App("c0"),)),)),)),
                     App("g0", (App("g0", (App("g0", (App("g1"),)),)),)),
                     scale.search, ("strong",))
        # every state's successors are derived before the state cap applies,
        # and they multiply along g1: explore spends the time here
        _closed_pair(rnd, "branching", inputs["branching"], App("c0"),
                     App("g0"), scale.branching, ("strong",))
        for i, (tss, p, q) in enumerate(inputs["draws"]):
            _closed_pair(rnd, "draw %d" % i, tss, p, q, RANDOM, notions)

    return [par(*args) for args in inputs["pars"]] + [rest]


# ---------------------------------------------------------------------------
# ci-advise


# The advisor questions take a second or two; asked once a round they would
# sample the machine's speed in one short window, so they are asked
# ADVISE_PASSES times, each on its own parse, before each part of the closed
# pairs.
ADVISE_PASSES = 3


def ci_advise_inputs(seed: int, scale: Scale, keep: list[int]) -> dict:
    """Every base/extension pair of the corpus whose base carries equations,
    ADVISE_PASSES times, then the closed pairs.

    Each advisor question gets its own parse of its file, as a separate
    `opensos advise` would, so no question finds caches another one filled;
    the order is fixed.  The seed only reaches the closed pairs.
    """
    passes = []
    for _ in range(ADVISE_PASSES):
        questions = []
        for path in sorted(CORPUS.glob("*.sos")):
            text = path.read_text()
            doc = specio.parse(text)
            for base in doc.tss_decls:
                if not any(e.over == base.name for e in doc.equations):
                    continue
                for ext in doc.tss_decls:
                    if ext.base is not base:
                        continue
                    for notion in ("ci", "fh", "hp"):
                        own = specio.parse(text)
                        b, e = own.tss(base.name), own.tss(ext.name)
                        axioms = tuple(q for q in own.equations
                                       if q.over == b.name)
                        questions.append((path.stem, b, e, axioms, notion))
        passes.append(questions)
    return {"passes": passes, "closed": closed_inputs(seed, scale, keep)}


def ci_advise(rnd: Round, inputs: dict, scale: Scale) -> None:
    payload, rec = rnd.ask("cli corpus", _cli_corpus)
    if payload is not None:
        rec.outcome = "%d passed" % payload["passed"]
        rec.decided = sum(r["actual"] in ("holds", "fails")
                          for r in payload["fixtures"])
        rec.check = lambda: check_corpus(payload)
    parts = closed_parts(inputs["closed"], scale)
    for i, (questions, part) in enumerate(zip(inputs["passes"], parts,
                                              strict=True)):
        rnd.part = i
        advise(rnd, questions, scale)
        part(rnd)


def advise(rnd: Round, questions: list, scale: Scale) -> None:
    bounds = Bounds(term_size=scale.advise_size)
    for stem, base, ext, axioms, notion in questions:
        theory = equations.EquationalTheory(axioms, base)
        report, rec = rnd.ask("advise %s %s %s/%s" % (notion, stem, base.name,
                                                      ext.name),
                              equations.preservation_advisor, theory, base,
                              ext, notion, bounds)
        if report is None:
            continue
        rec.outcome = ",".join(a.classification for a in report.axioms)
        # a report whose own recheck contradicts the guarantee it gives is a
        # failed answer, whatever its final classification
        rec.failed = any(a.contradiction for a in report.axioms)
        rec.decided = sum(v.kind in ("holds", "fails")
                          for a in report.axioms
                          for v in (a.soundness_on_base, a.recheck_on_extension))
        bview, eview = SpecView(base), SpecView(ext)
        if notion == "ci":
            rec.sweep = True
            rec.substitutions = sum(
                sweep_size(v, a.equation.lhs, a.equation.rhs, view.ops,
                           bounds.term_size)
                for a in report.axioms
                for v, view in ((a.soundness_on_base, bview),
                                (a.recheck_on_extension, eview)))
        rec.check = (lambda report=report, bview=bview, eview=eview,
                     notion=notion: check_report(report, notion, bview, eview))


def _cli_corpus() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["corpus", str(CORPUS), "--json"])
    payload = json.loads(out.getvalue())
    payload["exit"] = code
    return payload


def check_corpus(payload: dict) -> list[str]:
    """The corpus runner must meet every hand-written manifest expectation."""
    want = {fx["name"]: fx["expect"] for fx in _fixtures()}
    got = {r["name"]: r["actual"] for r in payload["fixtures"]}
    out = ["fixture %s: %s, manifest expects %s" % (n, got.get(n), e)
           for n, e in sorted(want.items()) if got.get(n) != e]
    if payload["exit"] != 0 or payload["failed"]:
        out.append("corpus runner exit %s, %s failed"
                   % (payload["exit"], payload["failed"]))
    return out


def check_report(report, notion: str, base: SpecView,
                 ext: SpecView) -> list[str]:
    out = []
    new_labels = set(ext.labels) - set(base.labels)
    base_premise_labels = {p.label for r in base.rules for p in r.premises}
    ext_conclusion_labels = {r.conclusion.label for r in ext.own_rules}
    for a in report.axioms:
        eq = a.equation
        name = "%s %s" % (notion, eq.name)
        for v, view in ((a.soundness_on_base, base),
                        (a.recheck_on_extension, ext)):
            out += check_fails_witness(notion, v, eq.lhs, eq.rhs, view.oracle)
            if notion == "ci":
                out += check_sweep_count(v, eq.lhs, eq.rhs, view.ops)
        broken = a.classification == equations.BROKEN
        if broken != a.recheck_on_extension.fails:
            out.append("%s: %s, yet the recheck %s" % (
                name, a.classification, a.recheck_on_extension.kind))
        if (a.theorem == "no-new-labels"
                and (new_labels or not a.soundness_on_base.holds)):
            out.append("%s: no-new-labels applied, but labels %s / base %s"
                       % (name, sorted(new_labels), a.soundness_on_base.kind))
        if (a.theorem == "robust-extension-labels"
                and (ext_conclusion_labels & base_premise_labels
                     or not eq.is_proper)):
            out.append("%s: robust-extension-labels applied wrongly" % name)
        # the paper: sound fh/hp equations survive extensions without labels
        if (notion in ("fh", "hp") and a.soundness_on_base.holds
                and not new_labels and a.recheck_on_extension.fails):
            out.append("%s: holds on the base, fails on a label-free "
                       "extension" % name)
    return out


# per workload: the screen of its random draws, its inputs from the seed and
# the kept draws, and one round of its questions
RUNNERS = {
    "open-games": (open_games_screen, open_games_inputs, open_games),
    "ci-advise": (ci_advise_screen, ci_advise_inputs, ci_advise),
}
