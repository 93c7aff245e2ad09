import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opensos import App, ParseError, Var, parse, parse_term, print_document
from opensos.specio import print_document as _print


CCS = """
tss Ccs {
  labels: a;
  op zero/0;
  op pre_a/1;
  op plus/2;
  rule "pre-a": |- pre_a(x) -a-> x;
  rule "plus-l" forall l: x -l-> x2 |- plus(x, y) -l-> x2;
  rule "plus-r" forall l: y -l-> y2 |- plus(x, y) -l-> y2;
}
"""


def test_parse_ccs_sublanguage_rule_counts():
    doc = parse(CCS)
    t = doc.tss("Ccs")
    # one prefix axiom plus two choice schemas instantiated per label
    assert len(t.rules) == 1 + 2 * len(t.labels)
    assert t.signature.arity("plus") == 2


def test_undeclared_operator_is_an_error_with_position():
    with pytest.raises(ParseError) as exc:
        parse('tss T { labels: a; rule "r": |- f(x) -a-> x; }')
    assert "f" in exc.value.message
    assert exc.value.line == 1


def test_undeclared_label_is_an_error():
    with pytest.raises(ParseError) as exc:
        parse('tss T { labels: a; op c/0; rule "r": |- c -b-> c; }')
    assert "b" in exc.value.message


def test_arity_mismatch_is_an_error():
    with pytest.raises(ParseError):
        parse('tss T { labels: a; op f/2; rule "r": |- f(x) -a-> x; }')


def test_conflicting_redeclaration_is_an_error():
    with pytest.raises(ParseError):
        parse("tss T { labels: a; op f/1; op f/2; }")


@pytest.mark.parametrize("text, position, message", [
    ("tss T { labels: a; op c/0; } $", (1, 30), "unexpected character '$'"),
    ("tss T { labels: a; op c/0 }", (1, 27), "expected ';', found '}'"),
    ("op c/0;", (1, 1), "expected 'tss' or 'eq' declaration"),
    ("tss T { labels: a; } tss T { labels: b; }", (1, 22),
     "duplicate declaration of 'T'"),
    ('tss T { labels: a; eq "e": x = x; }', (1, 20),
     "expected 'op', 'rule' or '}'"),
    ('tss T { labels: a; op f/1; rule "r": |- f -a-> f; }', (1, 41),
     "operator 'f' of arity 1 used without arguments"),
    ('tss T { labels: a; op c/0; } eq "e": c = c @ U;', (1, 46),
     "undeclared TSS 'U'"),
    ("tss T { labels: a; op f/1; op f/2; }", (1, 31),
     "operator 'f' redeclared with arity 2 (was 1)"),
    ("tss B { labels: a; op f/1; } tss E extends B { labels: a; op f/2; }",
     (1, 62), "operator 'f' redeclared with arity 2 (was 1)"),
])
def test_parse_errors_name_their_cause_and_place(text, position, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert ((exc.value.line, exc.value.col), exc.value.message) == (
        position, message)


def test_undeclared_base_tss_is_an_error():
    with pytest.raises(ParseError):
        parse("tss T extends Missing { labels: a; }")


def test_constants_parse_with_or_without_parens():
    doc = parse('tss T { labels: a; op c/0; rule "r": |- c() -a-> c; }')
    rule = doc.tss("T").rules[0]
    assert rule.conclusion.source == App("c") == rule.conclusion.target


def test_zero_arity_operator_classification():
    doc = parse("tss T { labels: a; op c/0; }")
    t = doc.tss("T")
    assert parse_term("c", t) == App("c")
    assert parse_term("x", t) == Var("x")
    with pytest.raises(ParseError):
        parse_term("c(x)", t)


def test_extension_shares_base_by_reference():
    doc = parse(CCS + "tss Ext extends Ccs { labels: b; op g/1; }")
    ext = doc.tss("Ext")
    assert ext.base is doc.tss("Ccs")
    assert set(ext.all_labels) == {"a", "b"}
    assert "plus" in ext.all_signature


def test_equation_pins_to_named_or_last_tss():
    doc = parse(CCS + """
tss Other { labels: a; op c/0; }
eq "one": plus(x, y) = plus(y, x) @ Ccs;
eq "two": c = c;
""")
    assert doc.equations[0].over == "Ccs"
    assert doc.equations[1].over == "Other"


def test_equation_before_any_tss_is_an_error():
    with pytest.raises(ParseError):
        parse('eq "e": x = x;')


def test_empty_document_prints_header_only():
    out = print_document(parse(""))
    assert out.startswith("#")
    assert parse(out).tss_decls == []


def test_print_contains_rule_in_dsl_syntax():
    doc = parse('tss F { labels: a; op f/1; '
                'rule "f": x -a-> x2 |- f(x) -a-> x2; }')
    assert 'rule "f": x -a-> x2 |- f(x) -a-> x2;' in print_document(doc)


def test_round_trip_on_corpus(corpus_docs):
    for name, doc in corpus_docs.items():
        text = print_document(doc)
        again = parse(text)
        assert again.to_json() == doc.to_json(), name
        assert print_document(again) == text, name


_ident = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s not in {"tss", "eq", "op", "rule", "labels", "extends", "forall"}
)


@st.composite
def documents(draw):
    labels = draw(st.lists(_ident, min_size=1, max_size=3, unique=True))
    ops = draw(st.dictionaries(_ident, st.integers(0, 2), min_size=1,
                               max_size=4))
    opnames = sorted(ops)

    def term(depth):
        if depth == 0 or draw(st.booleans()):
            name = draw(_ident)
            if name in ops and ops[name] != 0:
                return name + "(" + ", ".join(
                    term(0) for _ in range(ops[name])) + ")"
            if name in ops:
                return name
            return name  # a variable
        name = draw(st.sampled_from(opnames))
        return name + ("(" + ", ".join(term(depth - 1)
                                       for _ in range(ops[name])) + ")"
                       if ops[name] else "")

    lines = ["tss T {", "  labels: %s;" % ", ".join(labels)]
    for name in opnames:
        lines.append("  op %s/%d;" % (name, ops[name]))
    n_rules = draw(st.integers(0, 3))
    for i in range(n_rules):
        op = draw(st.sampled_from(opnames))
        src_vars = ["q%d" % j for j in range(ops[op])]
        prem = []
        for j, v in enumerate(src_vars):
            if draw(st.booleans()):
                prem.append("%s -%s-> w%d"
                            % (v, draw(st.sampled_from(labels)), j))
        concl = "%s -%s-> %s" % (
            "%s(%s)" % (op, ", ".join(src_vars)) if src_vars else op,
            draw(st.sampled_from(labels)),
            draw(st.sampled_from(src_vars + ["w%d" % j for j in range(len(prem))]
                                 + [o for o in opnames if ops[o] == 0]))
            if (src_vars or any(ops[o] == 0 for o in opnames))
            else "fresh",
        )
        lines.append('  rule "r%d": %s|- %s;'
                     % (i, ", ".join(prem) + " " if prem else "", concl))
    lines.append("}")
    return "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(documents())
def test_fuzzed_valid_documents_round_trip(text):
    try:
        doc = parse(text)
    except ParseError:
        # the generator may produce semantically invalid rules (e.g. a rule
        # target variable that is really an undeclared constant use); the
        # parser must reject them cleanly, never crash
        return
    text2 = print_document(doc)
    doc2 = parse(text2)
    assert doc2.to_json() == doc.to_json()
    assert print_document(doc2) == text2


def test_json_tree_field_names(corpus_docs):
    j = corpus_docs["ex3"].to_json()
    assert set(j) == {"tss", "eqs"}
    first = j["tss"][0]
    assert {"name", "extends", "labels", "ops", "rules"} <= set(first)
    assert {"name", "premises", "conclusion"} <= set(first["rules"][0])
