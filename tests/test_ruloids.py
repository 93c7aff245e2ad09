import itertools
import random

import pytest

from opensos import (
    App,
    Var,
    apply_subst,
    canonical_rename,
    enumerate_closed_terms,
    enumerate_open_terms,
    explore,
    initial_actions,
    instantiate_ruloid,
    instantiations,
    parse,
    parse_term,
    ruloids,
    transitions,
    vars_of,
)
from opensos.ruloids import Hyp

from gen import random_extension, random_tss


def _rstrs(rs):
    return sorted(str(r) for r in rs)


def test_variable_ruloids_one_per_label(corpus_tsss):
    fb = corpus_tsss["FB"]
    rs = ruloids(Var("x"), fb)
    assert _rstrs(rs) == [
        "x -a-> h0 |- x -a-> h0",
        "x -b-> h0 |- x -b-> h0",
    ]


def test_a_variable_named_like_a_hypothesis_target_keeps_them_apart(
        corpus_tsss):
    rs = ruloids(Var("h0"), corpus_tsss["FB"])
    assert _rstrs(rs) == [
        "h0 -a-> h1 |- h0 -a-> h1",
        "h0 -b-> h1 |- h0 -b-> h1",
    ]
    assert all(r.target != r.source for r in rs)


def test_forwarding_operator_ruloid(corpus_tsss):
    f = corpus_tsss["F"]
    rs = ruloids(parse_term("f(x)", f), f)
    assert _rstrs(rs) == ["x -a-> h0 |- f(x) -a-> h0"]


def test_choice_ruloids(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    rs = ruloids(parse_term("plus(x, y)", ccs), ccs)
    assert _rstrs(rs) == [
        "x -a-> h0 |- plus(x, y) -a-> h0",
        "y -a-> h0 |- plus(x, y) -a-> h0",
    ]


def test_nested_composition_accumulates_hypotheses(corpus_tsss):
    par = corpus_tsss["Par"]
    rs = ruloids(parse_term("par(x, y)", par), par)
    assert _rstrs(rs) == [
        "x -a-> h0, y -b-> h1 |- par(x, y) -tau-> par(h0, h1)"
    ]


def test_transitions_examples(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    p = parse_term("plus(zero, pre_a(zero))", ccs)
    assert ("a", App("zero")) in transitions(p, ccs)
    assert transitions(App("zero"), ccs) == ()
    rep = corpus_tsss["Rep"]
    assert transitions(App("aomega"), rep) == (("a", App("aomega")),)


def test_transitions_come_in_derivation_order_without_duplicates():
    t = parse('tss T { labels: a, b; op c/0; op d/0; op e/0; op f/2; '
              'rule "ce": |- c -a-> e; rule "cd": |- c -a-> d; '
              'rule "again": |- c -a-> e; '
              'rule "fb": |- f(x, y) -b-> x; '
              'rule "fa": x -a-> x2, y -a-> y2 |- f(x, y) -a-> f(x2, y2); '
              'rule "diag": x -a-> x2 |- f(x, y) -a-> f(x2, x2); }').tss("T")
    c, d, e = App("c"), App("d"), App("e")
    # declaration order, not label or printed order; the repeat is dropped
    assert transitions(c, t) == (("a", e), ("a", d))
    # rules in declaration order; premise choices in argument order, each
    # argument's moves in their own order; "diag" derives nothing new
    assert transitions(App("f", (c, c)), t) == (
        ("b", c),
        ("a", App("f", (e, e))), ("a", App("f", (e, d))),
        ("a", App("f", (d, e))), ("a", App("f", (d, d))))


def test_transitions_requires_closed_term(corpus_tsss):
    with pytest.raises(ValueError):
        transitions(Var("x"), corpus_tsss["Ccs"])


def test_initial_actions(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    assert initial_actions(App("zero"), ccs) == frozenset()
    assert initial_actions(App("aomega"), corpus_tsss["Rep"]) == {"a"}


def test_explore_self_loop(corpus_tsss):
    rep = corpus_tsss["Rep"]
    lts = explore(App("aomega"), rep, 10)
    assert len(lts.states) == 1 and len(lts.transitions) == 1
    assert lts.complete


def test_explore_inert_state(corpus_tsss):
    lts = explore(App("zero"), corpus_tsss["Ccs"], 10)
    assert len(lts.states) == 1 and not lts.transitions and lts.complete


def test_explore_cap_marks_incomplete():
    doc = parse('tss T { labels: a; op c/0; op s/1; '
                'rule "grow": |- c -a-> s(c); '
                'rule "step": x -a-> x2 |- s(x) -a-> s(x2); }')
    t = doc.tss("T")
    lts = explore(App("c"), t, 5)
    assert not lts.complete
    assert len(lts.states) == 5
    # s(s(s(s(c)))), four steps out, was cut short: only the four states
    # before it keep their edges
    assert (len(lts.succ), lts.horizon) == (4, 4)


def test_instantiate_ruloid_discharges_hypotheses():
    doc = parse('tss T { labels: a; op aomega/0; op f/1; '
                'rule "loop": |- aomega -a-> aomega; '
                'rule "f": x -a-> x2 |- f(x) -a-> x2; }')
    t = doc.tss("T")
    (r,) = ruloids(parse_term("f(x)", t), t)
    assert instantiate_ruloid(r, {"x": App("aomega")}, t) == ("a", App("aomega"))
    assert instantiate_ruloid(r, {"x": App("f", (App("aomega"),))}, t) is not None


def test_instantiate_ruloid_unsatisfiable_hypothesis(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    (r,) = ruloids(parse_term("pre_a(x)", ccs), ccs)
    assert r.hyps == frozenset()
    (r2,) = [r for r in ruloids(parse_term("plus(x, y)", ccs), ccs)
             if Hyp("x", "a", "h0") in r.hyps]
    assert instantiate_ruloid(r2, {"x": App("zero"), "y": App("zero")}, ccs) is None


def test_hypothesis_free_ruloids_coincide_with_transitions(corpus_tsss):
    for name in ("Ccs", "CcsExt", "ChoiceA", "RepA"):
        t = corpus_tsss[name]
        for p in enumerate_closed_terms(t.all_signature, 3):
            free = {(r.label, r.target) for r in ruloids(p, t) if not r.hyps}
            assert free == set(transitions(p, t)), (name, str(p))


def test_ruloid_wellformedness_invariants(corpus_tsss):
    for name, t in corpus_tsss.items():
        for s in enumerate_open_terms(t.all_signature, 2, ("x", "y")):
            for r in ruloids(s, t):
                srcs = vars_of(r.source)
                targets = [h.target for h in r.hyps]
                assert len(set(targets)) == len(targets)
                for h in r.hyps:
                    assert h.source in srcs
                    assert h.target not in srcs
                assert vars_of(r.target) <= srcs | set(targets)


def test_ruloids_alpha_invariant(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    for text in ("plus(p, plus(q, p))", "plus(pre_a(u), w)"):
        t = parse_term(text, ccs)
        canon, renaming = canonical_rename(t)
        sub = {old: Var(new) for old, new in renaming.items()}
        renamed = {
            str(type(r)(frozenset(Hyp(renaming.get(h.source, h.source),
                                      h.label, h.target) for h in r.hyps),
                        apply_subst(sub, r.source), r.label,
                        apply_subst(sub, r.target)))
            for r in ruloids(t, ccs)
        }
        assert renamed == {str(r) for r in ruloids(canon, ccs)}


def test_ruloid_instances_are_sound(corpus_tsss):
    t = corpus_tsss["CcsExt"]
    pool = list(enumerate_closed_terms(t.all_signature, 2))
    s = parse_term("plus(x, y)", t)
    for px, py in itertools.product(pool, repeat=2):
        sigma = {"x": px, "y": py}
        closed = apply_subst(sigma, s)
        derived = set()
        for r in ruloids(s, t):
            derived.update(instantiations(r, sigma, t))
        assert derived == set(transitions(closed, t)), str(closed)


def test_ruloids_are_deterministic(corpus_tsss):
    from conftest import CORPUS

    ccs = corpus_tsss["Ccs"]
    s = parse_term("plus(x, plus(y, z))", ccs)
    first = ruloids(s, ccs)
    assert ruloids(s, ccs) == first
    fresh = parse((CORPUS / "ex1.sos").read_text()).tss("Ccs")
    assert tuple(map(str, ruloids(s, fresh))) == tuple(map(str, first))


def _by_substitution(p, tss, cache):
    """`transitions` derived rule by rule with a fresh binding per premise
    choice, asking every premise even after one has no move.  Kept as the
    reference for `transitions`, which skips a rule at its first premise
    without a move and reuses one binding across a rule's choices."""
    if p in cache:
        return cache[p]
    result = {}
    for shape in tss.defining_shapes(p.op):
        binding = dict(zip(shape.source_vars, p.args))
        choice_lists = []
        for (idx, plabel, ptarget) in shape.premises:
            succ = [q for (l, q) in _by_substitution(p.args[idx], tss, cache)
                    if l == plabel]
            choice_lists.append((ptarget, succ))
        for combo in itertools.product(*(cs for _, cs in choice_lists)):
            env = dict(binding)
            for (ptarget, _), q in zip(choice_lists, combo):
                env[ptarget] = q
            result.setdefault((shape.label, apply_subst(env, shape.target)))
    cache[p] = tuple(result)
    return cache[p]


TARGETS = ('tss T { labels: a, b, c, z; op k/0; op m/0; op g/1; op h/2; '
           'op f/2; '
           'rule "k": |- k -a-> m; rule "m1": |- m -b-> k; '
           'rule "m2": |- m -b-> g(k); rule "g": x -b-> x2 |- g(x) -a-> x2; '
           'rule "source": |- f(x, y) -a-> x; '
           'rule "premise": y -b-> y2 |- f(x, y) -b-> y2; '
           'rule "repeated": |- f(x, y) -c-> h(y, y); '
           'rule "closed": x -a-> x2 |- f(x, y) -a-> h(g(m), x2); '
           'rule "nested": x -a-> x2, y -b-> y2 |- '
           'f(x, y) -c-> h(g(h(x2, y)), h(y2, g(h(x2, y)))); '
           'rule "constant": |- f(x, y) -b-> k; '
           'rule "no-move": y -z-> y2 |- f(x, y) -a-> y2; '
           'rule "h": x -a-> x2 |- h(x, y) -a-> h(y, x2); }')


def test_transitions_build_what_substitution_builds():
    t = parse(TARGETS).tss("T")
    cache = {}
    for p in enumerate_closed_terms(t.all_signature, 4):
        assert transitions(p, t) == _by_substitution(p, t, cache), str(p)
    # every target shape derives on this term, in rule and premise order:
    # a bare source variable, a premise target, a repeated variable, a
    # closed subterm, nested operators sharing a subterm and a constant.
    # "constant" repeats premise's (b, k), and "no-move" derives nothing,
    # as no term moves on z
    p = parse_term("f(g(m), m)", t)
    assert [(l, str(q)) for l, q in transitions(p, t)] == [
        ("a", "g(m)"),
        ("b", "k"), ("b", "g(k)"),
        ("c", "h(m, m)"),
        ("a", "h(g(m), k)"), ("a", "h(g(m), g(k))"),
        ("c", "h(g(h(k, m)), h(k, g(h(k, m))))"),
        ("c", "h(g(h(k, m)), h(g(k), g(h(k, m))))"),
        ("c", "h(g(h(g(k), m)), h(k, g(h(g(k), m))))"),
        ("c", "h(g(h(g(k), m)), h(g(k), g(h(g(k), m))))")]


def test_transitions_on_random_draws():
    rng = random.Random(18)
    moves = 0
    for _ in range(200):
        base = random_tss(rng)
        for tss in (base, random_extension(rng, base, rng.random() < 0.5)):
            cache = {}
            for p in enumerate_closed_terms(tss.all_signature, 3):
                derived = transitions(p, tss)
                assert derived == _by_substitution(p, tss, cache), str(p)
                moves += len(derived)
    assert moves > 1_000
