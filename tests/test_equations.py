import pytest

from opensos import (
    App,
    Bounds,
    Equation,
    EquationalTheory,
    Var,
    check,
    equations,
    parse,
    parse_term,
    preservation_advisor,
    prove,
    soundness_sweep,
)
from opensos.equations import (BROKEN, EMPIRICAL, GUARANTEED, THEORY_CAVEAT,
                                _match, _rewrites)

SMALL = Bounds(term_size=2, depth=8, state_cap=200, pair_cap=500)


def _theory(doc, tss_name, *eq_names):
    t = doc.tss(tss_name)
    axioms = tuple(e for e in doc.equations
                   if e.name in eq_names and e.over == tss_name)
    assert len(axioms) == len(eq_names)
    return EquationalTheory(axioms, t)


# ---------------------------------------------------------------------------
# bounded proof search


def test_prove_by_reflexivity(corpus_docs):
    t = corpus_docs["ex1"].tss("Ccs")
    theory = EquationalTheory((), t)
    goal = Equation(parse_term("pre_a(zero)", t), parse_term("pre_a(zero)", t))
    assert prove(theory, goal).proved


def test_prove_commutativity_instance(corpus_docs):
    doc = corpus_docs["ex1"]
    theory = _theory(doc, "Ccs", "comm")
    t = theory.over
    goal = Equation(parse_term("plus(pre_a(zero), zero)", t),
                    parse_term("plus(zero, pre_a(zero))", t))
    assert prove(theory, goal).proved


def test_prove_associativity_reassociation(corpus_docs):
    doc = corpus_docs["ex1"]
    theory = _theory(doc, "Ccs", "assoc")
    t = theory.over
    goal = Equation(
        parse_term("plus(plus(plus(w, x), y), z)", t),
        parse_term("plus(w, plus(x, plus(y, z)))", t),
    )
    result = prove(theory, goal, depth=3)
    assert result.proved


def _at(t, pos):
    for i in pos:
        t = t.args[i]
    return t


def _instance(pattern, t, binding):
    """Extend binding so that pattern instantiates to t, if it can."""
    if isinstance(pattern, Var):
        return binding.setdefault(pattern.name, t) == t
    return (isinstance(t, App) and t.op == pattern.op
            and all(_instance(p, a, binding)
                    for p, a in zip(pattern.args, t.args)))


def _same_outside(before, after, pos):
    """The two terms differ at most at position pos."""
    for i in pos:
        if before.op != after.op or any(
                x != y for j, (x, y) in enumerate(zip(before.args, after.args))
                if j != i):
            return False
        before, after = before.args[i], after.args[i]
    return True


def test_prove_returns_a_replayable_rewrite_chain(corpus_docs):
    doc = corpus_docs["ex1"]
    theory = _theory(doc, "Ccs", "comm", "assoc")
    t = theory.over
    goal = Equation(parse_term("plus(plus(x, y), z)", t),
                    parse_term("plus(z, plus(y, x))", t))
    result = prove(theory, goal)
    assert result.proved and result.steps
    axioms = {eq.name: eq for eq in theory.axioms}
    term = goal.lhs
    for step in result.steps:
        eq = axioms[step["axiom"]]
        frm, to = {"lr": (eq.lhs, eq.rhs), "rl": (eq.rhs, eq.lhs)}[step["direction"]]
        nxt = parse_term(step["term"], t)
        pos = step["position"]
        binding = {}
        assert _instance(frm, _at(term, pos), binding), step
        assert _instance(to, _at(nxt, pos), binding), step
        assert _same_outside(term, nxt, pos), step
        term = nxt
    assert term == goal.rhs


def test_prove_unknown_at_bound(corpus_docs):
    doc = corpus_docs["ex1"]
    theory = _theory(doc, "Ccs", "comm")
    t = theory.over
    goal = Equation(parse_term("plus(x, x)", t), Var("x"))
    result = prove(theory, goal, depth=3)
    assert not result.proved
    assert "unknown" in result.reason


def test_prove_never_contradicts_a_ci_counterexample(corpus_docs):
    doc = corpus_docs["ex1"]
    theory = _theory(doc, "Ccs", "comm", "assoc")
    t = theory.over
    # idempotence is ci-refutable on the extension, so it must be unprovable
    goal = Equation(parse_term("plus(x, x)", t), Var("x"))
    assert not prove(theory, goal, depth=4).proved


def test_a_rewrite_instantiates_a_variable_free_in_the_other_side(corpus_docs):
    t = corpus_docs["ex1"].tss("Ccs")
    drop = Equation(parse_term("plus(x, y)", t), Var("x"), "drop")
    theory = EquationalTheory((drop,), t)
    term = parse_term("pre_a(zero)", t)
    # right to left, y is free: it ranges over the subterms of the term up
    # to the instantiation size and the constants, smallest first
    assert [str(new) for new, _, direction, pos in _rewrites(term, theory, 3)
            if direction == "rl" and pos == ()] == [
        "plus(pre_a(zero), zero)", "plus(pre_a(zero), pre_a(zero))"]
    assert [str(new) for new, _, direction, pos in _rewrites(term, theory, 1)
            if direction == "rl" and pos == ()] == ["plus(pre_a(zero), zero)"]


def test_a_repeated_pattern_variable_matches_equal_arguments_only(corpus_docs):
    t = corpus_docs["ex1"].tss("Ccs")
    idem = parse_term("plus(x, x)", t)
    binding = {}
    assert _match(idem, parse_term("plus(pre_a(zero), pre_a(zero))", t),
                  binding)
    assert binding == {"x": parse_term("pre_a(zero)", t)}
    assert not _match(idem, parse_term("plus(zero, pre_a(zero))", t), {})


# ---------------------------------------------------------------------------
# soundness sweeps


def test_sweep_choice_axioms_on_base(corpus_docs):
    doc = corpus_docs["ex1"]
    theory = _theory(doc, "Ccs", "comm", "assoc", "idem", "unit")
    results = soundness_sweep(theory, "ci", Bounds(term_size=3))
    assert all(not v.fails for _, v in results)
    assert all(THEORY_CAVEAT in v.reason for _, v in results)


def test_sweep_detects_unsound_axioms_on_extension(corpus_docs):
    doc = corpus_docs["ex1"]
    theory = _theory(doc, "Ccs", "comm", "assoc", "idem", "unit")
    ext = doc.tss("CcsExt")
    results = dict(
        (eq.name, v)
        for eq, v in soundness_sweep(theory, "ci", SMALL, tss=ext)
    )
    assert results["idem"].fails
    assert results["unit"].fails
    assert not results["comm"].fails
    assert not results["assoc"].fails


def test_a_sweep_never_changes_the_verdicts_a_tss_keeps():
    from conftest import CORPUS

    ccs = parse((CORPUS / "ex1.sos").read_text()).tss("Ccs")
    lhs = parse_term("plus(zero, pre_a(zero))", ccs)
    rhs = parse_term("pre_a(zero)", ccs)
    theory = EquationalTheory((Equation(lhs, rhs, "closed"),), ccs)
    for notion in ("strong", "ci"):
        for _ in range(2):
            [(_, v)] = soundness_sweep(theory, notion)
            assert v.holds and v.reason.count(THEORY_CAVEAT) == 1
        assert THEORY_CAVEAT not in check(notion, lhs, rhs, ccs).reason


# ---------------------------------------------------------------------------
# preservation advisor


def test_advisor_guarantees_label_criteria(corpus_docs):
    doc = corpus_docs["sec43b"]
    theory = _theory(doc, "Res", "hide", "fuse")
    report = preservation_advisor(theory, doc.tss("Res"), doc.tss("Par"),
                                  "ci", SMALL)
    assert report.extension_valid
    for axiom in report.axioms:
        assert axiom.classification == GUARANTEED
        assert axiom.theorem == "robust-extension-labels"
        assert not axiom.contradiction


def test_advisor_names_the_evidence_of_ci_theorems(corpus_docs):
    ci_theorems = ("robust-extension-labels", "non-evolving-criteria")
    cases = (("ex1", "Ccs", "CcsExt", "comm", "holds via fh"),
             ("sec43b", "Res", "Par", "hide", "holds"),
             ("ex5", "Choice0", "ChoiceA", "inert", "inconclusive"))
    for spec, base, ext, name, evidence in cases:
        doc = corpus_docs[spec]
        report = preservation_advisor(_theory(doc, base, name), doc.tss(base),
                                      doc.tss(ext), "ci", SMALL)
        (axiom,) = report.axioms
        for theorem in ci_theorems:
            assert axiom.theorems[theorem]["verdict_on_base"] == evidence, (
                spec, theorem)


def test_advisor_reports_broken_forwarding_axiom(corpus_docs):
    doc = corpus_docs["ex3"]
    theory = _theory(doc, "F", "forward")
    report = preservation_advisor(theory, doc.tss("F"), doc.tss("FB"),
                                  "fh", SMALL)
    (axiom,) = report.axioms
    assert axiom.classification == BROKEN
    assert axiom.theorem is None
    assert axiom.recheck_on_extension.fails
    assert not axiom.contradiction


# c and g(c) both move on a forever, through ever deeper states, so no
# bound decides them; the base is fertile (d is dead) and the equation
# closed, so it meets the non-evolving criteria
UNFOLD = parse("""
tss B {
  labels: a;
  op d/0;
  op c/0;
  op g/1;
  op h/1;
  rule "c": |- c -a-> g(c);
  rule "g": |- g(x) -a-> g(g(x));
  rule "h": x -a-> y |- h(x) -a-> y;
}
tss E extends B {
  labels: a;
  op n/0;
  rule "n": |- n -a-> n;
}
eq "unfold": c = g(c) @ B;
""")


def test_ci_theorems_apply_only_on_a_certified_base(corpus_docs):
    # ci cannot certify wrap on Rep, and RepA's dead constant breaks it, so
    # the label criteria RepA meets guarantee nothing
    doc = corpus_docs["ex6"]
    report = preservation_advisor(_theory(doc, "Rep", "wrap"), doc.tss("Rep"),
                                  doc.tss("RepA"), "ci", SMALL)
    (axiom,) = report.axioms
    assert axiom.soundness_on_base.inconclusive
    assert axiom.theorems["robust-extension-labels"]["disjoint"]
    assert axiom.recheck_on_extension.fails
    assert not any(th["applies"] for th in axiom.theorems.values())
    assert axiom.classification == BROKEN and axiom.theorem is None
    assert not axiom.contradiction
    # likewise the non-evolving criteria, which unfold meets on B
    report = preservation_advisor(_theory(UNFOLD, "B", "unfold"),
                                  UNFOLD.tss("B"), UNFOLD.tss("E"), "ci", SMALL)
    (axiom,) = report.axioms
    criteria = axiom.theorems["non-evolving-criteria"]
    assert axiom.soundness_on_base.inconclusive
    assert criteria["initially_fertile"] and not criteria["placement_violations"]
    assert not any(th["applies"] for th in axiom.theorems.values())
    assert axiom.classification == EMPIRICAL and axiom.theorem is None


def test_advisor_no_new_labels_route(corpus_docs):
    base_doc = parse("""
tss F {
  labels: a;
  op f/1;
  rule "f": x -a-> x2 |- f(x) -a-> x2;
}
tss Fg extends F {
  labels: a;
  op g/1;
  rule "g": x -a-> x2 |- g(x) -a-> x2;
}
eq "forward": f(x) = x @ F;
""")
    theory = _theory(base_doc, "F", "forward")
    report = preservation_advisor(theory, base_doc.tss("F"),
                                  base_doc.tss("Fg"), "fh", SMALL)
    (axiom,) = report.axioms
    assert axiom.classification == GUARANTEED
    assert axiom.theorem == "no-new-labels"
    assert not axiom.recheck_on_extension.fails


def test_advisor_sees_a_label_an_intermediate_layer_adds():
    # E adds no label of its own, but extends B through M, which adds b
    doc = parse("""
tss B { labels: a; op c0/0; op g/1; rule "c0a": |- c0 -a-> c0;
        rule "ga": x -a-> y |- g(x) -a-> g(y); }
tss M extends B { labels: b; op d/0; rule "db": |- d -b-> d; }
tss E extends M { labels: ; op e/0; rule "ea": |- e -a-> e; }
eq "gid": g(x) = x @ B;
""")
    theory = _theory(doc, "B", "gid")
    report = preservation_advisor(theory, doc.tss("B"), doc.tss("E"), "fh",
                                  SMALL)
    (axiom,) = report.axioms
    assert axiom.soundness_on_base.holds
    assert axiom.theorems["no-new-labels"] == {
        "applies": False, "adds_labels": True, "certificate_on_base": "holds"}
    assert axiom.recheck_on_extension.fails
    assert axiom.classification == BROKEN and axiom.theorem is None
    assert not axiom.contradiction


# ex1's choice and a new operator g that feeds the base premise label a
FEED = """
tss Ccs {
  labels: a;
  op zero/0;
  op pre_a/1;
  op plus/2;
  rule "pre-a": |- pre_a(x) -a-> x;
  rule "plus-l" forall l: x -l-> x2 |- plus(x, y) -l-> x2;
  rule "plus-r" forall l: y -l-> y2 |- plus(x, y) -l-> y2;
}
tss Feed extends Ccs {
  labels: b;
  op g/1;
  rule "feed": |- g(x) -a-> x;
  rule "tick": |- g(x) -b-> x;
}
eq "assoc": plus(plus(x, y), z) = plus(x, plus(y, z)) @ Ccs;
"""


def test_advisor_proper_certificate_route():
    doc = parse(FEED)
    theory = _theory(doc, "Ccs", "assoc")
    report = preservation_advisor(theory, doc.tss("Ccs"), doc.tss("Feed"),
                                  "fh", SMALL)
    (axiom,) = report.axioms
    # the extension criteria are a ci theorem; label b rules out the
    # no-new-label route; the proper certificate carries the guarantee
    assert "robust-extension-labels" not in axiom.theorems
    assert axiom.theorems["no-new-labels"]["applies"] is False
    assert axiom.classification == GUARANTEED
    assert axiom.theorem == "proper-pfh-certificate"
    assert not axiom.contradiction


def test_advisor_empirical_when_no_theorem_applies():
    doc = parse(FEED)
    theory = _theory(doc, "Ccs", "assoc")
    bounds = Bounds(term_size=2, depth=8, state_cap=200, pair_cap=1)
    report = preservation_advisor(theory, doc.tss("Ccs"), doc.tss("Feed"),
                                  "ci", bounds)
    (axiom,) = report.axioms
    # label a overlaps, the pfh game stops at pair cap 1, and plus has no
    # non-evolving index: only the bounded recheck is left
    assert {name: th["applies"] for name, th in axiom.theorems.items()} == {
        "robust-extension-labels": False, "proper-pfh-certificate": False,
        "non-evolving-criteria": False}
    assert axiom.theorems["proper-pfh-certificate"]["verdict_on_base"] == (
        "inconclusive")
    assert axiom.recheck_on_extension.inconclusive
    assert axiom.classification == EMPIRICAL
    assert axiom.theorem is None and not axiom.contradiction


# n has a rule, but never moves on the label a that g's premise reads
INERT = parse("""
tss B {
  labels: a;
  op c/0;
  op f/1;
  op g/1;
  rule "c": |- c -a-> c;
  rule "f": |- f(x) -a-> x;
  rule "g": x -a-> y |- g(x) -a-> y;
}
tss E extends B {
  labels: b;
  op n/0;
  rule "n": |- n -b-> n;
}
eq "inert": f(x) = f(g(x)) @ B;
""")


def test_advisor_offers_the_extension_criteria_only_under_ci():
    theory = _theory(INERT, "B", "inert")
    for notion in ("fh", "hp", "pfh", "php"):
        report = preservation_advisor(theory, INERT.tss("B"), INERT.tss("E"),
                                      notion, SMALL)
        (axiom,) = report.axioms
        assert "robust-extension-labels" not in axiom.theorems, notion
        assert not any(th["applies"] for th in axiom.theorems.values()), notion
        assert axiom.soundness_on_base.holds == (notion in ("fh", "hp"))
        assert axiom.recheck_on_extension.fails, notion
        assert axiom.classification == BROKEN and axiom.theorem is None
        assert not axiom.contradiction, notion


def test_advisor_refuses_an_axiom_the_base_cannot_state(corpus_docs):
    # an equation pinned to the extension, over its operator pre_tau
    doc = corpus_docs["ex1"]
    ccs, ext = doc.tss("Ccs"), doc.tss("CcsExt")
    tauext = Equation(parse_term("plus(pre_tau(x), zero)", ext),
                      parse_term("pre_tau(x)", ext), "tauext", "CcsExt")
    theory = EquationalTheory((tauext,), ccs)
    with pytest.raises(ValueError) as exc:
        preservation_advisor(theory, ccs, ext, "fh", SMALL)
    assert str(exc.value) == ("equation tauext is not over base Ccs: "
                              "undeclared operator 'pre_tau'")


def test_advisor_names_the_label_guard():
    labels = ", ".join("l%d" % i for i in range(17))
    doc = parse("""
tss Many {
  labels: %s;
  op z/0;
  op f/1;
  rule "f": |- f(x) -l0-> x;
}
tss ManyN extends Many {
  labels: ;
  op n/0;
  rule "n": |- n -l1-> n;
}
eq "unit": f(x) = f(x) @ Many;
""" % labels)
    theory = _theory(doc, "Many", "unit")
    report = preservation_advisor(theory, doc.tss("Many"), doc.tss("ManyN"),
                                  "ci", SMALL)
    (axiom,) = report.axioms
    assert axiom.theorems["non-evolving-criteria"] == {
        "applies": False, "verdict_on_base": "holds",
        "label_guard": "17 labels means 131072 subsets; pass force to override"}
    assert axiom.classification == GUARANTEED


def test_advisor_checks_the_base_once_under_a_proper_notion(monkeypatch):
    asked = []

    def counting_check(notion, s, t, tss, bounds):
        asked.append((notion, tss.name))
        return check(notion, s, t, tss, bounds)

    monkeypatch.setattr(equations, "check", counting_check)
    theory = _theory(INERT, "B", "inert")
    for notion, proper in (("fh", "pfh"), ("hp", "php"), ("pfh", "pfh"),
                           ("php", "php")):
        asked.clear()
        preservation_advisor(theory, INERT.tss("B"), INERT.tss("E"), notion,
                             SMALL)
        want = [(notion, "B"), (notion, "E")]
        if proper != notion:
            want.insert(1, (proper, "B"))
        assert asked == want, notion


def test_advisor_empirical_fallback(corpus_docs):
    doc = corpus_docs["ex1"]
    theory = _theory(doc, "Ccs", "comm")
    report = preservation_advisor(theory, doc.tss("Ccs"), doc.tss("CcsExt"),
                                  "ci", SMALL)
    (axiom,) = report.axioms
    assert axiom.classification in (GUARANTEED, EMPIRICAL)
    assert not axiom.recheck_on_extension.fails


def test_broken_is_monotone_in_bounds(corpus_docs):
    doc = corpus_docs["ex3"]
    theory = _theory(doc, "F", "forward")
    for size in (2, 3):
        bounds = Bounds(term_size=size, depth=8, state_cap=200, pair_cap=500)
        report = preservation_advisor(theory, doc.tss("F"), doc.tss("FB"),
                                      "fh", bounds)
        assert report.axioms[0].classification == BROKEN


def test_report_json_shape(corpus_docs):
    doc = corpus_docs["ex3"]
    theory = _theory(doc, "F", "forward")
    report = preservation_advisor(theory, doc.tss("F"), doc.tss("FB"),
                                  "fh", SMALL)
    j = report.to_json()
    assert {"notion", "extension_valid", "caveat", "axioms"} <= set(j)
    assert {"equation", "classification", "theorems",
            "recheck_on_extension"} <= set(j["axioms"][0])
