"""The cyclic collector and opensos: questions pause it, and nothing opensos
builds forms a reference cycle, so reference counting alone frees it all.

Every public question (the checkers, the preservation advisor, `prove` and
`cli.main`) disables the collector while it runs.  That is safe only while
the heaps it builds stay acyclic, which the tests here pin: with the
collector off, a run over the corpus and random draws leaves no garbage
that only the collector could free.  The other tests pin the pause: on
inside no question, and back as the caller had it after each one.
"""
import gc
import json
import random
import threading

import pytest

from opensos import (
    Bounds,
    EquationalTheory,
    bisim,
    check,
    parse,
    parse_term,
    preservation_advisor,
    prove,
    strong_bisim,
)
from opensos.terms import App, Equation, Var, is_closed

from conftest import CORPUS
from gen import random_closed_term, random_extension, random_open_term, random_tss

SMALL = Bounds(term_size=2, depth=8, state_cap=150, pair_cap=300)
OPEN_NOTIONS = ("ci", "fh", "hp", "pfh", "php")


def _corpus_checks():
    """(lhs, rhs, tss) of every `check` fixture of the corpus manifest."""
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    for fx in manifest["fixtures"]:
        if fx["command"] == "check":
            tss = parse((CORPUS / fx["spec"]).read_text()).tss(fx["tss"])
            yield (parse_term(fx["lhs"], tss), parse_term(fx["rhs"], tss), tss)


def _draws(n):
    """n random base TSSs, each with both kinds of extension, an open pair
    and a closed pair."""
    rng = random.Random(22)
    for _ in range(n):
        base = random_tss(rng)
        exts = [random_extension(rng, base, add_label=flag)
                for flag in (False, True)]
        open_pair = (random_open_term(rng, base, 2),
                     random_open_term(rng, base, 2))
        closed_pair = (random_closed_term(rng, base, 3),
                       random_closed_term(rng, base, 3))
        yield [base] + exts, open_pair, closed_pair


def _ask_everything():
    for s, t, tss in _corpus_checks():
        for notion in OPEN_NOTIONS:
            check(notion, s, t, tss, SMALL)
        if is_closed(s) and is_closed(t):
            check("strong", s, t, tss, SMALL)
    for layers, (s, t), (p, q) in _draws(50):
        for tss in layers:
            for notion in OPEN_NOTIONS:
                check(notion, s, t, tss, SMALL)
            check("strong", p, q, tss, SMALL)
    for path in sorted(CORPUS.glob("*.sos")):
        doc = parse(path.read_text())
        for ext in doc.tss_decls:
            base = ext.base
            axioms = tuple(e for e in doc.equations
                           if base is not None and e.over == base.name)
            for notion in ("ci", "fh", "hp") if axioms else ():
                preservation_advisor(EquationalTheory(axioms, base), base, ext,
                                     notion, SMALL)
    doc = parse((CORPUS / "ex1.sos").read_text())
    ccs = doc.tss("Ccs")
    theory = EquationalTheory(tuple(e for e in doc.equations
                                    if e.over == "Ccs"), ccs)
    for lhs, rhs in (("plus(plus(w, x), y)", "plus(w, plus(x, y))"),
                     ("plus(x, zero)", "x")):
        prove(theory, Equation(parse_term(lhs, ccs), parse_term(rhs, ccs)),
              depth=3)


def test_questions_leave_no_cyclic_garbage():
    # `cli.main` is left out: argparse and json build cycles of their own
    gc.collect()
    gc.disable()
    try:
        _ask_everything()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


# ---------------------------------------------------------------------------
# the pause itself


def _ccs():
    return parse((CORPUS / "ex1.sos").read_text()).tss("Ccs")


def test_the_collector_is_back_on_after_a_question():
    ccs = _ccs()
    assert gc.isenabled()
    s, t = parse_term("plus(x, y)", ccs), parse_term("plus(y, x)", ccs)
    for notion in OPEN_NOTIONS:
        assert check(notion, s, t, ccs, SMALL).holds
        assert gc.isenabled(), notion
    p, q = parse_term("pre_a(zero)", ccs), parse_term("zero", ccs)
    assert strong_bisim(p, q, ccs, SMALL).fails
    assert gc.isenabled()


def test_the_collector_is_back_on_after_an_error():
    ccs = _ccs()
    with pytest.raises(ValueError, match="closed terms"):
        strong_bisim(Var("x"), App("zero"), ccs, SMALL)
    assert gc.isenabled()


def test_a_caller_who_paused_the_collector_finds_it_paused():
    ccs = _ccs()
    s, t = parse_term("plus(x, y)", ccs), parse_term("plus(y, x)", ccs)
    gc.disable()
    try:
        assert check("ci", s, t, ccs, SMALL).holds
        with pytest.raises(ValueError):
            strong_bisim(s, t, ccs, SMALL)
        still_off = not gc.isenabled()
    finally:
        gc.enable()
    assert still_off


def _probe(monkeypatch, module, name, seen):
    """Record whether the collector is on whenever module.name is called."""
    inner = getattr(module, name)

    def probe(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, probe)


def test_the_collector_is_paused_inside_every_question(monkeypatch, capsys):
    from opensos import cli, equations
    ccs = _ccs()
    seen: list = []
    _probe(monkeypatch, bisim, "_strong", seen)
    p, q = parse_term("pre_a(zero)", ccs), parse_term("zero", ccs)
    strong_bisim(p, q, ccs, SMALL)
    assert seen == [False]
    _probe(monkeypatch, bisim, "ruloids", seen)
    s, t = parse_term("plus(x, y)", ccs), parse_term("plus(y, x)", ccs)
    for game in (bisim.ci_bisim, bisim.fh_bisim, bisim.hp_bisim,
                 bisim.pfh_bisim, bisim.php_bisim):
        seen.clear()
        game(s, t, _ccs(), SMALL)  # a fresh TSS, so the game derives ruloids
        assert seen and not any(seen), game.__name__
    doc = parse((CORPUS / "ex1.sos").read_text())
    theory = EquationalTheory(tuple(e for e in doc.equations
                                    if e.name == "comm"), doc.tss("Ccs"))
    _probe(monkeypatch, equations, "check", seen)
    seen.clear()
    preservation_advisor(theory, doc.tss("Ccs"), doc.tss("CcsExt"), "fh",
                         SMALL)
    assert seen and not any(seen)
    _probe(monkeypatch, equations, "_rewrites", seen)
    seen.clear()
    prove(theory, Equation(parse_term("plus(zero, pre_a(zero))", ccs),
                           parse_term("plus(pre_a(zero), zero)", ccs)))
    assert seen and not any(seen)
    _probe(monkeypatch, cli, "check", seen)
    seen.clear()
    assert cli.main(["check", "--spec", str(CORPUS / "ex1.sos"), "--tss",
                     "Ccs", "fh", "plus(x, y)", "plus(y, x)"]) == 0
    assert seen and not any(seen)
    assert gc.isenabled()
    capsys.readouterr()


def test_questions_in_threads_end_with_the_collector_on():
    text = (CORPUS / "ex1.sos").read_text()
    pairs = (("plus(plus(x, y), z)", "plus(x, plus(y, z))"),
             ("plus(x, zero)", "x"), ("plus(x, x)", "x"))
    errors: list = []

    def worker():
        try:
            for i in range(50):
                # a fresh TSS each time, so every game is built anew
                ext = parse(text).tss("CcsExt")
                s, t = (parse_term(side, ext) for side in pairs[i % 3])
                check(OPEN_NOTIONS[i % 5], s, t, ext, SMALL)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert gc.isenabled()
