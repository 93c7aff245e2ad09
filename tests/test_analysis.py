import gc
import weakref

import pytest

import opensos.tss
from opensos import analysis
from opensos import (
    App,
    ArityConflictError,
    Equation,
    FormatViolation,
    LabelGuardError,
    Rule,
    Signature,
    Trans,
    Tss,
    Var,
    adds_labels,
    check,
    conservativity_probe,
    explore,
    initial_fertility,
    label_usage,
    non_evolving_indices,
    parse,
    parse_term,
    robust_equation_criteria,
    robust_extension_criteria,
    ruloids,
    transitions,
    validate_disjoint_extension,
    validate_positive_gsos,
)

from opensos.cli import main

from conftest import CORPUS, ROOT


def _tss(text, name=None):
    doc = parse(text)
    return doc.tss(name) if name else doc.tss_decls[-1]


# ---------------------------------------------------------------------------
# rule format


def test_corpus_rules_all_conform():
    # every spec file of the corpus and of the benchmark, so the refusal of
    # a rule outside the format never fires on one of their inputs
    paths = (sorted(CORPUS.glob("*.sos"))
             + sorted((ROOT / "perfbench" / "specs").glob("*.sos")))
    assert paths
    for path in paths:
        for t in parse(path.read_text()).tss_decls:
            assert validate_positive_gsos(t).ok, (path.name, t.name)


def test_repeated_source_variable_is_a_violation():
    bad = Tss("T", Signature.of({"f": 2}), ("a",), (
        Rule("r", (), Trans(App("f", (Var("x"), Var("x"))), "a", Var("x"))),
    ), None)
    report = validate_positive_gsos(bad)
    assert not report.ok
    assert "repeated source variable" in report.violations[0][1]


def test_non_variable_premise_source_is_a_violation():
    bad = Tss("T", Signature.of({"f": 1, "g": 1}), ("a",), (
        Rule("r", (Trans(App("g", (Var("x"),)), "a", Var("y")),),
             Trans(App("f", (Var("x"),)), "a", Var("y"))),
    ), None)
    report = validate_positive_gsos(bad)
    assert not report.ok
    assert "premise source" in report.violations[0][1]


def test_escaping_target_variable_is_a_violation():
    bad = Tss("T", Signature.of({"f": 1}), ("a",), (
        Rule("r", (), Trans(App("f", (Var("x"),)), "a", Var("z"))),
    ), None)
    assert not validate_positive_gsos(bad).ok


@pytest.mark.parametrize("premises, source, target, reason", [
    ((), App("f", (App("c"),)), App("c"),
     "conclusion source arguments must be variables"),
    ((Trans(Var("x"), "a", App("c")),), App("f", (Var("x"),)), App("c"),
     "premise target must be a variable"),
    ((Trans(Var("x"), "a", Var("x")),), App("f", (Var("x"),)), App("c"),
     "premise target 'x' is not fresh"),
])
def test_a_violation_is_named_once_and_refuses_every_operator(
        premises, source, target, reason):
    bad = Tss("T", Signature.of({"c": 0, "f": 1}), ("a",), (
        Rule("r", premises, Trans(source, "a", target)),), None)
    assert validate_positive_gsos(bad).violations == (("r", reason),)
    with pytest.raises(FormatViolation) as exc:
        transitions(App("c"), bad)  # c has no rule of its own
    assert str(exc.value) == "rule 'r': " + reason


def test_a_rule_without_an_operator_source_is_refused_not_dropped():
    t = _tss('tss T { labels: a; op c/0; op d/0; rule "loop": |- c -a-> c; '
             'rule "all": |- x -a-> d; }')
    reason = "conclusion source must be an operator application"
    assert validate_positive_gsos(t).violations == (("all", reason),)
    c, d = App("c"), App("d")
    for ask in (lambda: transitions(d, t), lambda: ruloids(d, t),
                lambda: explore(c, t), lambda: non_evolving_indices(t),
                lambda: initial_fertility(t, 1),
                lambda: check("strong", c, d, t),
                lambda: check("fh", Var("x"), d, t)):
        with pytest.raises(FormatViolation) as exc:
            ask()
        assert str(exc.value) == "rule 'all': " + reason


def test_every_layer_reads_each_rule_once(monkeypatch):
    read = []
    destructure = opensos.tss.destructure_rule
    monkeypatch.setattr(opensos.tss, "destructure_rule",
                        lambda rule: read.append(rule) or destructure(rule))
    t = parse((CORPUS / "ex1.sos").read_text()).tss("CcsExt")
    assert validate_positive_gsos(t).ok
    assert transitions(parse_term("plus(zero, pre_a(zero))", t), t)
    assert ruloids(parse_term("plus(x, pre_tau(y))", t), t)
    non_evolving_indices(t)
    assert read == list(t.all_rules)


# ---------------------------------------------------------------------------
# extensions


def test_disjoint_extension_accepts_new_operator_rules(corpus_tsss):
    report = validate_disjoint_extension(corpus_tsss["F"], corpus_tsss["FB"])
    assert report.disjoint


def test_rule_for_old_operator_breaks_disjointness(corpus_tsss):
    base = corpus_tsss["F"]
    delta = Tss("Bad", Signature.of({"g": 0}), ("b",), (
        Rule("extra", (), Trans(App("f", (Var("x"),)), "b", Var("x"))),
    ), base)
    report = validate_disjoint_extension(base, delta)
    assert not report.disjoint
    assert report.offending == ("extra",)


def test_ruleless_delta_is_vacuously_disjoint(corpus_tsss):
    base = corpus_tsss["Rep"]
    delta = corpus_tsss["RepA"]
    assert delta.rules == ()
    assert validate_disjoint_extension(base, delta).disjoint


def test_an_extension_must_extend_its_base(corpus_tsss):
    for base, ext in (("CcsExt", "Ccs"), ("Ccs", "Ccs"), ("F", "CcsExt")):
        with pytest.raises(ValueError) as exc:
            validate_disjoint_extension(corpus_tsss[base], corpus_tsss[ext])
        assert str(exc.value) == "%s does not extend %s" % (ext, base)


def test_arity_conflict_between_layers_is_an_error(corpus_tsss):
    base = corpus_tsss["F"]
    delta = Tss("Bad", Signature.of({"f": 2}), (), (), base)
    with pytest.raises(ArityConflictError):
        validate_disjoint_extension(base, delta)


def test_label_usage_of_own_rules_only(corpus_tsss):
    prem, concl = label_usage(corpus_tsss["Pref"])
    assert prem == frozenset()
    assert concl == {"a", "tau"}
    prem, concl = label_usage(corpus_tsss["Res"])
    assert prem == {"a", "b"}
    assert "tau" in concl
    prem, concl = label_usage(corpus_tsss["RepA"])  # no own rules
    assert prem == concl == frozenset()


def test_adds_labels(corpus_tsss):
    assert adds_labels(corpus_tsss["F"], corpus_tsss["FB"])
    assert not adds_labels(corpus_tsss["Choice0"], corpus_tsss["ChoiceA"])
    assert not adds_labels(corpus_tsss["Res"], corpus_tsss["Par"])


# E extends B through M; the M slot holds more of M's rules
LAYERED = """
tss B { labels: a; op c0/0; op g/1; rule "c0a": |- c0 -a-> c0;
        rule "ga": x -a-> y |- g(x) -a-> g(y); }
tss M extends B { labels: b; op d/0; %s }
tss E extends M { labels: ; op e/0; rule "ea": |- e -a-> e; }
"""


def test_an_intermediate_layer_belongs_to_the_extension(tmp_path, capsys):
    text = LAYERED % 'rule "db": |- d -b-> d; rule "gm": |- g(x) -a-> c0;'
    doc = parse(text)
    b, m, e = doc.tss("B"), doc.tss("M"), doc.tss("E")
    # M's label b and its rule for the base operator g count for E as well
    assert adds_labels(b, e) and not adds_labels(m, e)
    for ext in (m, e):
        assert validate_disjoint_extension(b, ext).offending == ("gm",)
        assert robust_extension_criteria(b, ext, ()).offending_rules == (
            "gm",)
    assert validate_disjoint_extension(m, e).disjoint
    spec = tmp_path / "layered.sos"
    spec.write_text(text)
    code = main(["extension-check", str(spec), "--base", "B", "--ext", "E"])
    assert (code, capsys.readouterr().out) == (
        1, "not-disjoint\nrule 'gm' defines a base operator\n")


def test_an_intermediate_layer_concluding_a_base_premise_label_is_seen():
    # only M concludes a, the label of B's premise in "ga"
    doc = parse(LAYERED.replace('rule "ea": |- e -a-> e;', "")
                % 'rule "da": |- d -a-> d;')
    b, m, e = doc.tss("B"), doc.tss("M"), doc.tss("E")
    assert robust_extension_criteria(b, e, ()).label_overlap == ("a",)
    assert robust_extension_criteria(m, e, ()).label_overlap == ()


# ---------------------------------------------------------------------------
# non-evolving indices


def test_unused_argument_is_non_evolving():
    t = _tss('tss T { labels: a; op g/2; '
             'rule "r": x -a-> x2 |- g(x, y) -a-> x2; }')
    table = non_evolving_indices(t)
    assert table.of("g") == {1}


def test_choice_has_no_non_evolving_index(corpus_tsss):
    assert non_evolving_indices(corpus_tsss["Ccs"]).of("plus") == frozenset()


def test_the_non_evolving_table_refuses_an_undeclared_operator(corpus_tsss):
    with pytest.raises(KeyError, match="pre_b"):
        non_evolving_indices(corpus_tsss["Ccs"]).of("pre_b")


def test_discarding_operator_is_non_evolving():
    t = _tss('tss T { labels: a; op zero/0; op test/1; '
             'rule "r": x -a-> x2 |- test(x) -a-> zero; }')
    assert non_evolving_indices(t).of("test") == {0}


def test_ruleless_operator_has_all_indices_non_evolving():
    t = _tss("tss T { labels: a; op h/2; }")
    assert non_evolving_indices(t).of("h") == {0, 1}


def test_adding_a_rule_never_enlarges_the_table(corpus_tsss):
    full = corpus_tsss["Copy"]
    fewer = Tss("T", full.signature, full.labels, full.rules[:1], None)
    for op, _ in full.all_signature.operators:
        assert non_evolving_indices(full).of(op) <= \
            non_evolving_indices(fewer).of(op)


# ---------------------------------------------------------------------------
# fertility


def test_fertility_two_label_choice_signature():
    t = _tss("""tss T { labels: a, b;
      op zero/0; op pre_a/1; op pre_b/1; op plus/2;
      rule "pa": |- pre_a(x) -a-> x;
      rule "pb": |- pre_b(x) -b-> x;
      rule "pl" forall l: x -l-> x2 |- plus(x, y) -l-> x2;
      rule "pr" forall l: y -l-> y2 |- plus(x, y) -l-> y2;
    }""")
    result = initial_fertility(t, 5)
    assert result.fertile
    realized = {labels: term for labels, term in result.witnesses}
    assert str(realized[()]) == "zero"
    assert str(realized[("a",)]) == "pre_a(zero)"
    assert str(realized[("b",)]) == "pre_b(zero)"
    assert set(realized[("a", "b")].args[0].op for _ in [0]) <= {"pre_a", "pre_b"}


def test_fertility_unknown_when_every_term_acts(corpus_tsss):
    result = initial_fertility(corpus_tsss["Rep"], 6)
    assert not result.fertile
    assert result.missing == ((),)  # the empty set is unrealizable


def test_fertility_trivial_with_no_labels():
    t = _tss("tss T { labels: ; op c/0; }")
    result = initial_fertility(t, 1)
    assert result.fertile
    assert result.witnesses == ((((), App("c"))),)


def test_fertility_label_guard():
    labels = ", ".join("l%d" % i for i in range(17))
    t = _tss("tss T { labels: %s; op c/0; }" % labels)
    with pytest.raises(LabelGuardError):
        initial_fertility(t, 2)
    assert initial_fertility(t, 1, force=True).bound == 1


# ---------------------------------------------------------------------------
# robustness criteria


def test_evolving_open_arguments_fail_the_equation_criteria(corpus_tsss):
    t = corpus_tsss["Choice0"]
    eq = Equation(App("plus", (Var("x"), Var("y"))), App("zero"))
    crit = robust_equation_criteria(eq, t, 3)
    assert not crit.met
    assert any("evolving index" in v for v in crit.placement_violations)
    assert not crit.fertility.fertile  # nothing in this signature ever acts


def test_nonlinear_or_bare_variable_sides_fail_the_criteria(corpus_tsss):
    t = corpus_tsss["Ccs"]
    eq = Equation(App("plus", (Var("x"), Var("x"))), Var("x"))
    crit = robust_equation_criteria(eq, t, 3)
    assert not crit.lhs_linear
    assert "rhs is a bare variable" in crit.placement_violations


def test_non_evolving_placement_meets_the_criteria():
    t = _tss("""tss T { labels: a;
      op zero/0; op pre_a/1; op plus/2; op test/1;
      rule "pa": |- pre_a(x) -a-> x;
      rule "pl" forall l: x -l-> x2 |- plus(x, y) -l-> x2;
      rule "pr" forall l: y -l-> y2 |- plus(x, y) -l-> y2;
      rule "t": x -a-> x2 |- test(x) -a-> zero;
    }""")
    eq = Equation(App("test", (App("test", (Var("x"),)),)),
                  App("test", (Var("x"),)))
    crit = robust_equation_criteria(eq, t, 2)
    assert crit.met, crit


def test_placement_violations_come_in_pre_order_without_a_cycle(corpus_tsss):
    # a walk that left a reference cycle behind would keep the table alive
    # until the cyclic collector runs
    ccs = corpus_tsss["Ccs"]
    t = parse_term("plus(plus(x, pre_a(y)), plus(zero, z))", ccs)
    table = non_evolving_indices(ccs)
    ref = weakref.ref(table)
    gc.collect()
    gc.disable()
    try:
        found = analysis._open_argument_placement(t, table)
        del table
        alive = ref() is not None
    finally:
        gc.enable()
    assert not alive
    assert found == [
        "open argument plus(x, pre_a(y)) at evolving index 0 of plus",
        "open argument x at evolving index 0 of plus",
        "open argument pre_a(y) at evolving index 1 of plus",
        "open argument y at evolving index 0 of pre_a",
        "open argument plus(zero, z) at evolving index 1 of plus",
        "open argument z at evolving index 1 of plus",
    ]


def test_robust_extension_label_overlap_detected(corpus_tsss):
    crit = robust_extension_criteria(corpus_tsss["Choice0"],
                                     corpus_tsss["ChoiceA"], ())
    assert not crit.robust
    assert crit.label_overlap == ("a",)


def test_robust_extension_without_base_premises(corpus_tsss):
    crit = robust_extension_criteria(corpus_tsss["Pref"],
                                     corpus_tsss["PrefChoice"], ())
    assert crit.robust


def test_robust_extension_flags_improper_equations(corpus_tsss):
    eq = Equation(Var("x"), App("plus", (Var("x"), Var("x"))), name="bad")
    crit = robust_extension_criteria(corpus_tsss["Pref"],
                                     corpus_tsss["PrefChoice"], (eq,))
    assert not crit.robust
    assert crit.improper_equations == ("bad",)


def test_conservativity_probe_clean_on_corpus_extensions(corpus_tsss):
    for base, ext in (("Ccs", "CcsExt"), ("F", "FB"), ("Copy", "CopyB"),
                      ("Choice0", "ChoiceA"), ("Rep", "RepA"),
                      ("Pref", "PrefChoice"), ("Res", "Par")):
        assert conservativity_probe(corpus_tsss[base], corpus_tsss[ext], 3) == ()


def test_conservativity_probe_catches_rules_for_old_operators(corpus_tsss):
    base = corpus_tsss["Choice0"]
    delta = Tss("Bad", Signature(()), (), (
        Rule("cheat", (), Trans(App("zero"), "a", App("zero"))),
    ), base)
    bad = conservativity_probe(base, delta, 2)
    assert bad
    assert str(bad[0][0]) == "zero"
