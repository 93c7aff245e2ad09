from opensos import (
    App,
    Bounds,
    Equation,
    EquationalTheory,
    Var,
    parse,
    parse_term,
    preservation_advisor,
    prove,
    soundness_sweep,
)
from opensos.equations import BROKEN, EMPIRICAL, GUARANTEED, THEORY_CAVEAT

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


def test_advisor_proper_certificate_route(corpus_docs):
    doc = parse("""
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
""")
    theory = _theory(doc, "Ccs", "assoc")
    report = preservation_advisor(theory, doc.tss("Ccs"), doc.tss("Feed"),
                                  "fh", SMALL)
    (axiom,) = report.axioms
    # label overlap rules out the extension criteria; label b rules out the
    # no-new-label route; the proper certificate carries the guarantee
    assert axiom.theorems["robust-extension-labels"]["applies"] is False
    assert axiom.theorems["no-new-labels"]["applies"] is False
    assert axiom.classification == GUARANTEED
    assert axiom.theorem == "proper-pfh-certificate"
    assert not axiom.contradiction


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
