"""The reference oracle against answers worked out by hand."""
from pathlib import Path

import pytest

from opensos import parse

import oracle as ref

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SPECS = Path(__file__).resolve().parent / "specs"


def oracle_for(path: Path, name: str) -> ref.Oracle:
    tss = parse(path.read_text()).tss(name)
    return ref.Oracle(tss.all_signature.as_dict(), tss.all_labels,
                      tss.all_rules)


@pytest.fixture(scope="module")
def ccs():
    return oracle_for(CORPUS / "ex1.sos", "Ccs")


def term(orc: ref.Oracle, text: str) -> int:
    return orc.intern(ref.read_term(text, orc.ops))


def test_transitions_of_choice(ccs):
    p = term(ccs, "plus(zero, pre_a(zero))")
    assert {(l, ccs.show(q)) for l, q in ccs.succ(p)} == {("a", "zero")}
    assert ccs.succ(term(ccs, "zero")) == frozenset()


@pytest.mark.parametrize("lhs, rhs, want", [
    ("plus(pre_a(zero), pre_a(zero))", "pre_a(zero)", True),
    ("plus(zero, pre_a(zero))", "pre_a(zero)", True),
    ("pre_a(zero)", "zero", False),
    ("pre_a(pre_a(zero))", "plus(pre_a(zero), pre_a(pre_a(zero)))", False),
])
def test_bisimilarity_by_hand(ccs, lhs, rhs, want):
    assert ccs.bisimilar(term(ccs, lhs), term(ccs, rhs)) is want


def test_infinite_lts_is_undecided():
    rep = oracle_for(CORPUS / "ex6.sos", "Rep")
    # f(aomega) -a-> f(aomega) and aomega -a-> aomega: two one-state loops
    assert rep.bisimilar(term(rep, "f(aomega)"), term(rep, "aomega")) is True
    # c0 -a-> g0(c0) -a-> g0(g0(c0)) -a-> ... never closes
    item3 = oracle_for(SPECS / "item3.sos", "T")
    assert item3.bisimilar(term(item3, "c0"), term(item3, "c0")) is None


def test_chains_of_two_steps():
    chains = oracle_for(SPECS / "chains.sos", "Chains")
    a, b, c = "pa(pa(nil))", "pb(pb(nil))", "pc(pc(nil))"
    left = term(chains, "par(%s, par(%s, %s))" % (a, b, c))
    right = term(chains, "par(par(%s, %s), %s)" % (a, b, c))
    short = term(chains, "par(%s, par(%s, pc(nil)))" % (a, b))
    assert chains.reachable(left) is not None
    assert len(chains.reachable(left)) == 27
    assert chains.bisimilar(left, right) is True
    assert chains.bisimilar(short, right) is False


def test_closed_term_counts():
    ccs = parse((CORPUS / "ex1.sos").read_text())
    small = ccs.tss("Ccs").all_signature.as_dict()
    big = ccs.tss("CcsExt").all_signature.as_dict()
    # zero; pre_a(zero); pre_a(pre_a(zero)), plus(zero, zero); ...
    assert ref.closed_counts(small, 4) == [0, 1, 1, 2, 4]
    assert ref.closed_counts(big, 4) == [0, 1, 3, 10, 36]
    assert ref.closing_substitutions(big, 4, 3) == 125_000
    assert len(ref.closed_terms(big, 4)) == 50
    assert ref.closing_substitutions({"f": 1}, 3, 1) == 0


def test_strong_witness_replay(ccs):
    p, q = term(ccs, "pre_a(zero)"), term(ccs, "zero")
    good = {"side": "left", "label": "a", "move": "zero",
            "from": "pre_a(zero)", "responses": []}
    assert ccs.replay_strong(good, p, q) is None
    assert ccs.replay_strong(dict(good, side="right"), p, q)
    assert ccs.replay_strong(dict(good, move="pre_a(zero)"), p, q)
    # the responses must cover every same-label move of the defender
    r = term(ccs, "pre_a(pre_a(zero))")
    bad = {"side": "left", "label": "a", "move": "pre_a(zero)",
           "from": "pre_a(pre_a(zero))", "responses": []}
    assert ccs.replay_strong(bad, r, p)


def test_ci_witness_replay(ccs):
    s = ref.read_term("plus(x, zero)", ccs.ops)
    good = {"sigma": {"x": "pre_a(zero)"},
            "instance": ["plus(pre_a(zero), zero)", "zero"],
            "distinguisher": {"side": "left", "label": "a", "move": "zero",
                              "from": "plus(pre_a(zero), zero)",
                              "responses": []}}
    assert ccs.replay_ci(good, s, ("zero", ())) is None
    # plus(pre_a(zero), zero) ~ pre_a(zero): no distinguisher can be right
    bisimilar = {"sigma": {"x": "pre_a(zero)"},
                 "instance": ["plus(pre_a(zero), zero)", "pre_a(zero)"],
                 "distinguisher": good["distinguisher"]}
    assert ccs.replay_ci(bisimilar, s, "x")


def test_game_witness_replay():
    assert ref.replay_game({"trace": [{"obligation": {}, "unmatched": True}]}) is None
    assert ref.replay_game({"trace": [{"obligation": {"improper": ["x", "f(x)"]}}]}) is None
    assert ref.replay_game({"trace": [{"obligation": {}}]})
    assert ref.replay_game({"trace": []})


def test_branching_counts_derivations():
    chains = oracle_for(SPECS / "chains.sos", "Chains")
    # each chain can move once, and only one chain has each label
    assert chains.branching(term(chains, "par(pa(nil), par(pa(nil), pb(nil)))")) == 2
    assert chains.branching(term(chains, "nil")) == 0


def test_read_term():
    ops = {"zero": 0, "plus": 2}
    assert ref.read_term("plus(x, zero)", ops) == ("plus", ("x", ("zero", ())))
    with pytest.raises(ValueError):
        ref.read_term("plus(x zero)", ops)
