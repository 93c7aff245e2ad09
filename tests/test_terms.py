import copy
import gc
import operator
import pickle
import random
import sys
import threading

import pytest

from opensos import (
    App,
    Equation,
    Signature,
    SignatureError,
    Var,
    apply_subst,
    canonical_rename,
    enumerate_closed_terms,
    enumerate_open_terms,
    is_closed,
    is_linear,
    term_size,
    vars_of,
)
from opensos import terms
from opensos.terms import check_term, var_order

from gen import random_closed_term, random_open_term, random_term, random_tss

SIG = Signature.of({"zero": 0, "pre_a": 1, "plus": 2})


def test_signature_arity_and_lookup():
    assert SIG.arity("plus") == 2
    assert "zero" in SIG and "nope" not in SIG
    with pytest.raises(SignatureError):
        SIG.arity("nope")


def test_signature_rejects_conflicting_arities():
    with pytest.raises(SignatureError):
        Signature((("f", 1), ("f", 2)))
    with pytest.raises(SignatureError):
        SIG.merge(Signature.of({"plus": 3}))


def test_signature_rejects_a_negative_arity():
    with pytest.raises(SignatureError) as exc:
        Signature((("zero", 0), ("f", -1)))
    assert str(exc.value) == "negative arity for 'f'"


def test_check_term_flags_bad_arity():
    check_term(App("plus", (Var("x"), App("zero"))), SIG)
    with pytest.raises(SignatureError):
        check_term(App("plus", (Var("x"),)), SIG)


def test_check_term_flags_a_variable_named_like_an_operator():
    with pytest.raises(SignatureError) as exc:
        check_term(App("pre_a", (Var("zero"),)), SIG)
    assert str(exc.value) == "variable 'zero' collides with an operator"


def test_term_size_counts_operator_nodes():
    assert term_size(Var("x")) == 0
    assert term_size(App("zero")) == 1
    assert term_size(App("plus", (Var("x"), App("pre_a", (App("zero"),))))) == 3


def test_linearity_and_closedness():
    t = App("plus", (Var("x"), Var("x")))
    assert not is_linear(t)
    assert is_linear(App("plus", (Var("x"), Var("y"))))
    assert not is_closed(t)
    assert is_closed(App("pre_a", (App("zero"),)))


def test_substitution_variable_inclusion():
    rng = random.Random(11)
    ops = SIG.as_dict()
    for _ in range(100):
        t = random_term(rng, ops, ["x", "y"], rng.randint(0, 3))
        sigma = {v: random_term(rng, ops, ["u", "w"], rng.randint(0, 2))
                 for v in ("x", "y")}
        allowed = set()
        for v in vars_of(t):
            allowed |= vars_of(sigma.get(v, Var(v)))
        assert vars_of(apply_subst(sigma, t)) <= allowed


def test_canonical_rename_is_bijective_and_shape_preserving():
    t = App("plus", (Var("q"), App("plus", (Var("p"), Var("q")))))
    renamed, renaming = canonical_rename(t)
    assert renamed == App("plus", (Var("v0"), App("plus", (Var("v1"), Var("v0")))))
    assert sorted(renaming) == ["p", "q"]
    assert len(set(renaming.values())) == len(renaming)
    again, _ = canonical_rename(renamed)
    assert again == renamed  # idempotent


def test_enumeration_exhaustive_small_signatures():
    assert list(enumerate_closed_terms(Signature.of({"zero": 0}), 2)) == [App("zero")]
    two = list(enumerate_closed_terms(Signature.of({"zero": 0, "prefix_a": 1}), 2))
    assert two == [App("zero"), App("prefix_a", (App("zero"),))]
    assert list(enumerate_closed_terms(Signature.of({"f": 1}), 4)) == []


def test_enumeration_needs_a_positive_size():
    with pytest.raises(ValueError) as exc:
        list(enumerate_closed_terms(SIG, 0))
    assert str(exc.value) == "max_size must be positive"


def test_enumeration_no_duplicates_and_well_formed():
    seen = set()
    for t in enumerate_closed_terms(SIG, 4):
        assert t not in seen
        seen.add(t)
        check_term(t, SIG)
        assert is_closed(t)
        assert term_size(t) <= 4
    assert seen


def test_open_enumeration_covers_variables():
    terms = list(enumerate_open_terms(SIG, 2, ("x", "y")))
    assert Var("x") in terms and Var("y") in terms
    assert App("plus", (Var("x"), Var("y"))) in terms


def test_equation_properness():
    assert Equation(App("zero"), App("zero")).is_proper
    assert not Equation(Var("x"), App("zero")).is_proper
    assert not Equation(App("zero"), Var("x")).is_proper


def test_equal_construction_returns_the_same_node():
    a = App("plus", (Var("x"), App("pre_a", (App("zero"),))))
    b = App("plus", (Var("x"), App("pre_a", (App("zero"),))))
    assert a is b
    assert a == b and hash(a) == hash(b)
    assert a is not App("plus", (Var("y"), App("pre_a", (App("zero"),))))


def test_intern_table_drains_when_terms_die():
    gc.collect()
    before = len(terms._interned)
    live = [App("probe", (App("zero"),) * k) for k in range(500)]
    assert len(terms._interned) >= before + 500
    del live
    gc.collect()
    assert len(terms._interned) <= before
    assert ("probe", (App("zero"),) * 3) not in terms._interned


def _naive_facts(t):
    """(size, depth, variable occurrences) of t by plain recursion."""
    if isinstance(t, Var):
        return 0, 0, [t.name]
    size, depth, occs = 1, 0, []
    for a in t.args:
        s, d, o = _naive_facts(a)
        size, depth, occs = size + s, max(depth, d), occs + o
    return size, depth + 1, occs


def test_node_facts_match_a_naive_recomputation(corpus_tsss):
    rng = random.Random(24)
    draws = []
    for _ in range(200):
        tss = random_tss(rng)
        draws += [random_closed_term(rng, tss, 4), random_open_term(rng, tss, 4)]
    small = [t for tss in corpus_tsss.values()
             for t in enumerate_open_terms(tss.all_signature, 3, ("x", "y"))]
    for t in small + draws:
        if isinstance(t, App):
            size, depth, occs = _naive_facts(t)
            assert (t.size, t.depth, t.closed, t.vorder) == (
                size, depth, not occs, tuple(dict.fromkeys(occs))), t


def test_a_stale_callback_spares_a_recreated_entry():
    key = ("stale", (App("zero"),))
    t = App(*key)
    ref = terms._interned[key]
    callback = ref.__callback__  # a reference forgets it once called
    del t  # the node dies, and the callback drops the entry
    assert key not in terms._interned
    again = App(*key)
    callback(ref)  # as if the old callback ran only now
    assert terms._interned[key]() is again
    assert App(*key) is again


def test_threads_building_and_dropping_the_same_terms_agree():
    errors = []
    start = threading.Barrier(4)

    def build():
        return [App("thr", (App("thr%d" % k),)) for k in range(500)]

    def churn():
        try:
            for _ in range(10):
                start.wait(timeout=60)  # so that the threads meet on a key
                made = build()
                assert all(map(operator.is_, made, build()))
                del made
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
            start.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to meet the races
    try:
        threads = [threading.Thread(target=churn) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    for key, ref in list(terms._interned.items()):
        node = ref()
        if node is not None:
            assert (node.op, node.args) == key
            assert App(*key) is node
    assert not [key for key in terms._interned if key[0].startswith("thr")]


def test_a_dropped_substitution_result_dies_without_the_collector():
    # a call that left a reference cycle behind would keep the nodes it
    # built alive until the cyclic collector runs
    x = Var("x")
    t = App("wrapq", (x, App("wrapq", (x, x))))
    gc.collect()
    gc.disable()
    try:
        before = len(terms._interned)
        for i in range(300):
            apply_subst({"x": App("dropped%d" % i)}, t)
        left = len(terms._interned) - before
    finally:
        gc.enable()
    assert left == 0
    assert str(apply_subst({"x": App("c")}, t)) == "wrapq(c, wrapq(c, c))"


def test_terms_deeper_than_the_recursion_limit():
    n = 3 * sys.getrecursionlimit()

    def chain():
        t = App("zero")
        for _ in range(n):
            t = App("pre_a", (t,))
        return t

    t = chain()
    assert chain() is t
    assert hash(t) == hash(chain())
    assert t.depth == n + 1 and term_size(t) == n + 1
    assert str(t) == "pre_a(" * n + "zero" + ")" * n
    # text stays on the root and its argument: on every subterm of this
    # chain it would take about 7 * n * n / 2 characters, some 31 million
    assert t.args[0]._str is not None
    assert t.args[0].args[0]._str is None


def test_copies_and_pickles_are_the_interned_node():
    t = App("plus", (Var("x"), App("pre_a", (App("zero"),))))
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t


def test_app_is_immutable():
    t = App("pre_a", (App("zero"),))
    with pytest.raises(AttributeError):
        t.op = "zero"
    with pytest.raises(AttributeError):
        t.size = 7
    with pytest.raises(AttributeError):
        del t.args


def test_variable_order_is_first_occurrence():
    t = App("plus", (App("plus", (Var("q"), Var("p"))),
                     App("plus", (Var("r"), Var("q")))))
    assert var_order(t) == ("q", "p", "r")
    assert var_order(Var("x")) == ("x",)
    assert var_order(App("zero")) == ()
    assert vars_of(t) == frozenset("pqr")


def _naive(t):
    """The printed form of t by plain recursion, caching nothing."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.op
    return "%s(%s)" % (t.op, ", ".join(_naive(a) for a in t.args))


def test_printing_matches_a_naive_printer(corpus_tsss):
    # largest terms first, so smaller ones are read from the text their
    # parents stored on them
    for tss in corpus_tsss.values():
        small = list(enumerate_open_terms(tss.all_signature, 3, ("x", "y")))
        for t in reversed(small):
            assert str(t) == _naive(t)
    rng = random.Random(20)
    for _ in range(200):
        tss = random_tss(rng)
        for t in (random_closed_term(rng, tss, 4),
                  random_open_term(rng, tss, 4)):
            assert str(t) == _naive(t)


def _subterms(t):
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            yield t
            todo.extend(t.args)


def test_printing_caches_text_on_the_node_and_its_arguments_only():
    leaf = App("txt_k")
    inner = App("txt_g", (App("txt_h", (leaf, Var("x"))),))
    t = App("txt_f", (inner, Var("y"), App("txt_h", (inner, leaf))))
    assert all(s._str is None for s in _subterms(t))
    assert str(t) == ("txt_f(txt_g(txt_h(txt_k, x)), y, "
                      "txt_h(txt_g(txt_h(txt_k, x)), txt_k))")
    assert {s for s in _subterms(t) if s._str is not None} == {
        t, inner, t.args[2]}
