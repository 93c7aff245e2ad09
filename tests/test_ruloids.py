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
    term_size,
    transitions,
    vars_of,
)
from opensos.ruloids import STATE_SIZE_CAP, Hyp, Ruloid
from opensos.terms import canonical_names, var_order

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
    # before it keep their moves
    assert (list(lts.succ), lts.horizon) == (list(lts.states[:4]), 4)
    assert str(lts.states[4]) == "s(s(s(s(c))))"


def test_an_lts_is_a_view_of_the_transitions_memo(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    root = parse_term("plus(pre_a(pre_a(zero)), pre_a(plus(zero, pre_a(zero))))",
                      ccs)
    lts = explore(root, ccs)
    assert lts.complete and len(lts.succ) == len(lts.states) > 1
    # each state's moves are the tuple `transitions` keeps, not a copy
    for s in lts.states:
        assert lts.succ[s] is transitions(s, ccs)
    # exploring again, or from a state already reached, derives nothing new
    memo = ccs._memo["transitions"]
    derived = len(memo)
    for s in lts.states:
        again = explore(s, ccs)
        assert all(again.succ[t] is lts.succ[t] for t in again.states)
    assert len(memo) == derived


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


def test_instantiations_need_a_substitution_closing_the_source(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    (r,) = ruloids(parse_term("pre_a(plus(x, y))", ccs), ccs)
    assert r.hyps == frozenset()  # so only the source is there to close
    with pytest.raises(ValueError) as exc:
        instantiations(r, {"x": App("zero")}, ccs)
    assert str(exc.value) == (
        "substitution is not closing for pre_a(plus(x, y))")


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
           'op f/2; op d/1; '
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
           'rule "h": x -a-> x2 |- h(x, y) -a-> h(y, x2); '
           'rule "same": x -b-> x2, x -b-> x3 |- d(x) -c-> h(x2, x3); '
           'rule "mixed": x -a-> x2, x -b-> x3 |- d(x) -b-> h(x3, x2); }')


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
    # two premises read one argument: under one label, every pair of its
    # moves; under two labels, one move of each
    p = parse_term("d(f(m, k))", t)
    assert [(l, str(q)) for l, q in transitions(p, t)] == [
        ("c", "h(k, k)"),
        ("b", "h(k, m)")]
    p = parse_term("d(m)", t)
    assert [(l, str(q)) for l, q in transitions(p, t)] == [
        ("c", "h(k, k)"), ("c", "h(k, g(k))"),
        ("c", "h(g(k), k)"), ("c", "h(g(k), g(k))")]


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


def _two_pass(t, tss, cache):
    """`ruloids` synthesised in two naming passes: each premise's chosen
    sub-ruloid first gets fresh ?N hypothesis targets, and the built ruloid
    is then renamed to h0, h1, ... by a second sort and substitution.  Kept
    as the reference for `ruloids`, which names each target once."""
    if t in cache:
        return cache[t]
    if isinstance(t, Var):
        (h,) = canonical_names(1, frozenset([t.name]), prefix="h")
        cache[t] = tuple(Ruloid(frozenset([Hyp(t.name, label, h)]), t, label,
                                Var(h)) for label in tss.all_labels)
        return cache[t]
    counter = itertools.count()
    sub_ruloids = [_two_pass(a, tss, cache) for a in t.args]
    results = []
    for shape in tss.defining_shapes(t.op):
        base_binding = dict(zip(shape.source_vars, t.args))
        choice_lists = []
        for (idx, plabel, ptarget) in shape.premises:
            candidates = [r for r in sub_ruloids[idx] if r.label == plabel]
            choice_lists.append((ptarget, candidates))
        for combo in itertools.product(*(cs for _, cs in choice_lists)):
            binding = dict(base_binding)
            hyps = []
            for (ptarget, _), chosen in zip(choice_lists, combo):
                ren = {h.target: "?%d" % next(counter)
                       for h in chosen.hyps_sorted()}
                for h in chosen.hyps_sorted():
                    hyps.append((Hyp(h.source, h.label, ren[h.target]),
                                 len(hyps)))
                binding[ptarget] = apply_subst(
                    {old: Var(new) for old, new in ren.items()}, chosen.target)
            target = apply_subst(binding, shape.target)
            # the second pass: sort again, rename the built target again
            occ = {name: i for i, name in enumerate(var_order(t))}
            ordered = sorted(hyps, key=lambda hs: (
                occ.get(hs[0].source, 1 << 30), hs[0].label, hs[1]))
            names = canonical_names(len(ordered), vars_of(t), prefix="h")
            ren = {hs[0].target: new for hs, new in zip(ordered, names)}
            results.append(Ruloid(
                frozenset(Hyp(h.source, h.label, ren[h.target])
                          for h, _ in ordered),
                t, shape.label,
                apply_subst({old: Var(new) for old, new in ren.items()},
                            target)))

    def ruloid_key(r):
        s = term_size(r.target)
        return (r.label, s, str(r.target) if s <= STATE_SIZE_CAP else "",
                tuple(str(h) for h in r.hyps_sorted()))

    cache[t] = tuple(sorted(dict.fromkeys(results), key=ruloid_key))
    return cache[t]


def _same_as_two_pass(t, tss, cache):
    """Assert `ruloids` equals the reference in objects, order and print;
    return how many ruloids it has."""
    got, want = ruloids(t, tss), _two_pass(t, tss, cache)
    assert got == want, str(t)
    assert [str(r) for r in got] == [str(r) for r in want], str(t)
    return len(got)


def test_ruloids_name_what_two_passes_name_on_the_corpus(corpus_tsss):
    found = 0
    for tss in corpus_tsss.values():
        cache = {}
        for t in enumerate_open_terms(tss.all_signature, 3, ("x", "y")):
            found += _same_as_two_pass(t, tss, cache)
    assert found > 1_000


def test_ruloids_name_what_two_passes_name_on_random_draws():
    rng = random.Random(19)
    found = 0
    for _ in range(200):
        base = random_tss(rng)
        for tss in (base, random_extension(rng, base, rng.random() < 0.5)):
            cache = {}
            for t in enumerate_open_terms(tss.all_signature, 2, ("x", "y")):
                found += _same_as_two_pass(t, tss, cache)
    assert found > 1_000


def test_a_sub_ruloid_chosen_twice_gets_distinct_names():
    t = parse('tss T { labels: a, b; op c/0; op g/1; op f/1; op p/2; '
              'rule "c": |- c -a-> c; '
              'rule "ga": x -a-> y |- g(x) -a-> g(y); '
              'rule "gb": x -b-> y |- g(x) -a-> y; '
              'rule "twice": x -a-> y1, x -a-> y2 |- f(x) -a-> p(y1, y2); '
              '}').tss("T")
    cache = {}
    for text in ("f(x)", "f(g(x))", "f(p(x, g(x)))", "p(f(x), f(y))",
                 "f(f(x))"):
        _same_as_two_pass(parse_term(text, t), t, cache)
    assert [str(r) for r in ruloids(parse_term("f(g(x))", t), t)] == [
        "x -b-> h0, x -b-> h1 |- f(g(x)) -a-> p(h0, h1)",
        "x -a-> h0, x -b-> h1 |- f(g(x)) -a-> p(g(h0), h1)",
        "x -a-> h0, x -b-> h1 |- f(g(x)) -a-> p(h1, g(h0))",
        "x -a-> h0, x -a-> h1 |- f(g(x)) -a-> p(g(h0), g(h1))"]


def test_eleven_hypotheses_keep_the_printed_order_of_their_names():
    ys = ["y%d" % i for i in range(11)]
    t = parse('tss T { labels: a; op w/1; op k/1; op v/11; '
              'rule "w": %s |- w(x) -a-> v(%s); '
              'rule "k": x -a-> y |- k(x) -a-> y; }'
              % (", ".join("x -a-> %s" % y for y in ys), ", ".join(ys))
              ).tss("T")
    (r,) = ruloids(parse_term("w(x)", t), t)
    # h10 prints, and sorts, before h2
    assert str(r) == ("x -a-> h0, x -a-> h1, x -a-> h10, x -a-> h2, "
                      "x -a-> h3, x -a-> h4, x -a-> h5, x -a-> h6, "
                      "x -a-> h7, x -a-> h8, x -a-> h9 |- w(x) -a-> "
                      "v(h0, h1, h2, h3, h4, h5, h6, h7, h8, h9, h10)")
    cache = {}
    for text in ("w(x)", "k(w(x))", "w(k(x))"):
        _same_as_two_pass(parse_term(text, t), t, cache)
    # through k, the eleven are renamed in that printed order
    (r,) = ruloids(parse_term("k(w(x))", t), t)
    assert str(r.target) == "v(h0, h1, h3, h4, h5, h6, h7, h8, h9, h10, h2)"


def test_an_argument_variable_named_like_a_hypothesis_target(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    cache = {}
    for text in ("plus(h0, x)", "plus(pre_a(h1), h0)", "pre_a(h0)"):
        _same_as_two_pass(parse_term(text, ccs), ccs, cache)
    assert _rstrs(ruloids(parse_term("plus(h0, x)", ccs), ccs)) == [
        "h0 -a-> h1 |- plus(h0, x) -a-> h1",
        "x -a-> h1 |- plus(h0, x) -a-> h1",
    ]
