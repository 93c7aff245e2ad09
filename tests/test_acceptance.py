"""End-to-end acceptance checks reproducing every worked example, plus
randomized property suites.  Each check prints one PASS/FAIL line.
"""
import itertools
import json
import random
from contextlib import contextmanager

import pytest

from opensos import (
    App,
    Bounds,
    EquationalTheory,
    Var,
    apply_subst,
    check,
    ci_bisim,
    conservativity_probe,
    enumerate_closed_terms,
    enumerate_open_terms,
    fh_bisim,
    hp_bisim,
    initial_fertility,
    parse_term,
    pfh_bisim,
    php_bisim,
    robust_extension_criteria,
    ruloids,
    soundness_sweep,
    strong_bisim,
    transitions,
    validate_disjoint_extension,
    vars_of,
)
from opensos.bisim import _ci_sweep
from opensos.cli import main
from opensos.ruloids import instantiations
from opensos.terms import is_closed

from conftest import CORPUS
from gen import random_extension, random_open_term, random_closed_term, random_tss


@contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("FAIL criterion %2d: %s" % (number, description))
        raise
    with capsys.disabled():
        print("PASS criterion %2d: %s" % (number, description))


def test_criterion_1_choice_axioms(capsys, corpus_docs):
    with criterion(capsys, 1, "choice fixture: transitions and axiom sweeps"):
        doc = corpus_docs["ex1"]
        ccs, ext = doc.tss("Ccs"), doc.tss("CcsExt")
        p = parse_term("plus(zero, pre_a(zero))", ccs)
        assert ("a", App("zero")) in transitions(p, ccs)
        assert transitions(App("zero"), ccs) == ()

        theory = EquationalTheory(tuple(doc.equations), ccs)
        bounds = Bounds(term_size=3)
        base_sweep = {eq.name: v for eq, v in
                      soundness_sweep(theory, "ci", bounds)}
        assert all(not v.fails for v in base_sweep.values())

        ext_sweep = {eq.name: v for eq, v in
                     soundness_sweep(theory, "ci", bounds, tss=ext)}
        assert ext_sweep["idem"].fails and ext_sweep["idem"].witness
        assert ext_sweep["unit"].fails and ext_sweep["unit"].witness
        assert not ext_sweep["comm"].fails
        assert not ext_sweep["assoc"].fails


def _is_reassociation(s, t):
    if not (isinstance(s, App) and isinstance(t, App)):
        return False
    if s.op != "plus" or t.op != "plus":
        return False
    sl, sr = s.args
    tl, tr = t.args
    if not (isinstance(sl, App) and sl.op == "plus"):
        return False
    if not (isinstance(tr, App) and tr.op == "plus"):
        return False
    return (sl.args[0], sl.args[1], sr) == (tl, tr.args[0], tr.args[1])


def test_criterion_2_associativity_certificate(capsys, corpus_tsss):
    with criterion(capsys, 2, "associativity is fh-bisimilar with the "
                              "documented relation"):
        ccs = corpus_tsss["Ccs"]
        s = parse_term("plus(x, plus(y, z))", ccs)
        t = parse_term("plus(plus(x, y), z)", ccs)
        v = fh_bisim(s, t, ccs)
        assert v.holds
        pairs = {(ls, rs) for ls, rs in
                 (tuple(p) for p in v.certificate["pairs"])}
        # the fully-general pair and the identity pair, canonically renamed
        assert ("plus(plus(v0, v1), v2)", "plus(v0, plus(v1, v2))") in pairs
        assert ("v0", "v0") in pairs
        # every certificate pair is an instance of the documented relation
        for ls, rs in pairs:
            a, b = parse_term(ls, ccs), parse_term(rs, ccs)
            assert a == b or _is_reassociation(a, b) or _is_reassociation(b, a)


def test_criterion_3_forwarding_operator(capsys, corpus_tsss):
    with criterion(capsys, 3, "unary forwarding: fh/hp survive until a "
                              "label is added; pfh rejects the improper pair"):
        f, fb = corpus_tsss["F"], corpus_tsss["FB"]
        s, t = parse_term("f(x)", f), Var("x")
        assert fh_bisim(s, t, f).holds
        assert hp_bisim(s, t, f).holds
        vf = fh_bisim(s, t, fb)
        assert vf.fails
        last = vf.witness["trace"][-1]
        assert last["obligation"]["ruloid"] == "v0 -b-> h0 |- v0 -b-> h0"
        assert last.get("unmatched")
        assert hp_bisim(s, t, fb).fails
        vp = pfh_bisim(s, t, f)
        assert vp.fails
        improper = vp.witness["trace"][-1]["obligation"]["improper"]
        assert sorted(improper) == ["f(v0)", "v0"] or improper == ["f(v0)", "v0"]


def test_criterion_4_copying_choice(capsys, corpus_tsss):
    with criterion(capsys, 4, "copying choice: hp holds through the copied "
                              "derivative, breaks with a new label"):
        copy, copyb = corpus_tsss["Copy"], corpus_tsss["CopyB"]
        s = parse_term("plus(x, y)", copy)
        t = parse_term("plus(y, x)", copy)
        v = hp_bisim(s, t, copy)
        assert v.holds
        states = {(tuple(st["pair"]), tuple(st["gamma"]))
                  for st in v.certificate["states"]}
        assert (("plus(v0, v0)", "v0"), ("v1 -a-> v0",)) in states
        assert hp_bisim(s, t, copyb).fails
        assert php_bisim(s, t, copy).fails


def test_criterion_5_inert_choice(capsys, corpus_tsss):
    with criterion(capsys, 5, "inert choice: closed-instance sweep flips "
                              "once a live constant exists"):
        base, ext = corpus_tsss["Choice0"], corpus_tsss["ChoiceA"]
        s = parse_term("plus(x, y)", base)
        v = ci_bisim(s, App("zero"), base, Bounds(term_size=4))
        assert v.inconclusive and "no counterexample" in v.reason
        v2 = ci_bisim(s, App("zero"), ext, Bounds(term_size=2))
        assert v2.fails
        sigma = {name: parse_term(text, ext)
                 for name, text in v2.witness["sigma"].items()}
        assert strong_bisim(apply_subst(sigma, s), App("zero"), ext).fails


def test_criterion_6_perpetual_loop(capsys, corpus_tsss):
    with criterion(capsys, 6, "perpetual loop: wrapper equation breaks on a "
                              "dead constant; no term is ever silent"):
        base, ext = corpus_tsss["Rep"], corpus_tsss["RepA"]
        s = parse_term("f(x)", base)
        assert ci_bisim(s, App("aomega"), base, Bounds(term_size=3)).inconclusive
        v = ci_bisim(s, App("aomega"), ext, Bounds(term_size=2))
        assert v.fails
        for bound in range(1, 7):
            result = initial_fertility(base, bound)
            assert not result.fertile
            assert () in result.missing


def test_criterion_7_robust_extensions(capsys, corpus_docs):
    with criterion(capsys, 7, "label criteria separate robust from fragile "
                              "extensions; restriction equations survive"):
        a = corpus_docs["sec43a"]
        assert robust_extension_criteria(a.tss("Pref"), a.tss("PrefChoice"),
                                         tuple(a.equations)).robust
        b = corpus_docs["sec43b"]
        eqs = tuple(b.equations)
        assert robust_extension_criteria(b.tss("Res"), b.tss("Par"), eqs).robust
        e5 = corpus_docs["ex5"]
        crit = robust_extension_criteria(e5.tss("Choice0"), e5.tss("ChoiceA"),
                                         tuple(e5.equations))
        assert not crit.robust and crit.label_overlap == ("a",)

        theory = EquationalTheory(eqs, b.tss("Res"))
        for target in (b.tss("Res"), b.tss("Par")):
            for eq, v in soundness_sweep(theory, "ci", Bounds(term_size=3),
                                         tss=target):
                assert not v.fails, (target.name, eq.name)
                assert v.vacuous  # no constants: sweep is explicitly vacuous


PROP = Bounds(term_size=2, depth=8, state_cap=150, pair_cap=300)


def test_criterion_8_property_suites(capsys):
    with criterion(capsys, 8, "randomized suites: hierarchy, coincidence, "
                              "preservation, conservativity (5 x 200)"):
        # (a) fh Holds => hp not-Fails, and hp Holds => no closing
        # substitution distinguishes.  ci answers through fh and hp before
        # it sweeps, so the sweep is run directly; a ci Holds via a notion
        # carries exactly that notion's certificate
        rng = random.Random(100)
        for _ in range(200):
            tss = random_tss(rng)
            s = random_open_term(rng, tss, 3)
            t = random_open_term(rng, tss, 3)
            direct = {"fh": fh_bisim(s, t, tss, PROP),
                      "hp": hp_bisim(s, t, tss, PROP)}
            if direct["fh"].holds:
                assert not direct["hp"].fails, (tss, str(s), str(t))
            if direct["hp"].holds:
                assert not _ci_sweep(s, t, tss, PROP).fails, (str(s), str(t))
            ci = ci_bisim(s, t, tss, PROP)
            via = (ci.certificate or {}).get("via")
            if via:
                first = next(n for n, v in direct.items() if v.holds)
                assert via == first, (str(s), str(t))
                assert ci.certificate == {"via": via,
                                          **direct[via].certificate}

        # (b) the four notions coincide on closed terms
        rng = random.Random(101)
        for _ in range(200):
            tss = random_tss(rng)
            p = random_closed_term(rng, tss, 3)
            q = random_closed_term(rng, tss, 3)
            strong = strong_bisim(p, q, tss, PROP)
            if strong.inconclusive:
                continue
            for checker in (ci_bisim, fh_bisim, hp_bisim):
                v = checker(p, q, tss, PROP)
                if v.inconclusive:
                    continue
                assert v.kind == strong.kind, (checker.__name__, str(p), str(q))

        # (c) disjoint no-new-label extensions never flip fh/hp Holds to Fails
        rng = random.Random(102)
        for _ in range(200):
            base = random_tss(rng)
            ext = random_extension(rng, base, add_label=False)
            assert validate_disjoint_extension(base, ext).disjoint
            s = random_open_term(rng, base, 2)
            t = random_open_term(rng, base, 2)
            for checker in (fh_bisim, hp_bisim):
                if checker(s, t, base, PROP).holds:
                    assert not checker(s, t, ext, PROP).fails, \
                        (checker.__name__, str(s), str(t))

        # (d) pfh/php Holds survives arbitrary disjoint extensions
        rng = random.Random(103)
        for _ in range(200):
            base = random_tss(rng)
            ext = random_extension(rng, base, add_label=rng.random() < 0.7)
            assert validate_disjoint_extension(base, ext).disjoint
            s = random_open_term(rng, base, 2)
            t = random_open_term(rng, base, 2)
            for checker in (pfh_bisim, php_bisim):
                if checker(s, t, base, PROP).holds:
                    assert not checker(s, t, ext, PROP).fails, \
                        (checker.__name__, str(s), str(t))

        # (e) disjoint extensions are conservative over old closed terms
        rng = random.Random(104)
        for _ in range(200):
            base = random_tss(rng)
            ext = random_extension(rng, base, add_label=rng.random() < 0.5)
            assert conservativity_probe(base, ext, 3) == ()


def test_criterion_9_ruloid_oracle_equivalence(capsys, corpus_tsss):
    with criterion(capsys, 9, "ruloid instantiation agrees with direct "
                              "transition derivation on the whole corpus"):
        checked = 0
        for name, tss in sorted(corpus_tsss.items()):
            sig = tss.all_signature
            pool = list(enumerate_closed_terms(sig, 2))
            if not pool:
                continue  # no closing substitutions exist
            for t in enumerate_open_terms(sig, 3, ("x", "y")):
                names = sorted(vars_of(t))
                for images in itertools.product(pool, repeat=len(names)):
                    sigma = dict(zip(names, images))
                    closed = apply_subst(sigma, t)
                    assert is_closed(closed)
                    direct = set(transitions(closed, tss))
                    via = set()
                    for r in ruloids(t, tss):
                        via.update(instantiations(r, sigma, tss))
                    assert via == direct, (name, str(t), str(closed))
                    checked += 1
        assert checked > 1000


def test_criterion_10_deterministic_reports(capsys):
    with criterion(capsys, 10, "two identical corpus runs emit byte-identical "
                               "reports"):
        outputs = []
        for _ in range(2):
            code = main(["corpus", str(CORPUS), "--json"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # and it is well-formed JSON
