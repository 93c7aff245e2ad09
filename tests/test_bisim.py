import dataclasses
import itertools
import json
import random
import re
from pathlib import Path

import pytest

from opensos import (
    NOTIONS,
    App,
    Bounds,
    Hyp,
    Tss,
    Var,
    apply_subst,
    check,
    ci_bisim,
    enumerate_closed_terms,
    enumerate_open_terms,
    explore,
    fh_bisim,
    hp_bisim,
    parse,
    parse_term,
    pfh_bisim,
    php_bisim,
    strong_bisim,
    transitions,
)
from opensos import bisim
from opensos.bisim import EMPTY, _norm_state
from opensos.cli import main

import dump_verdicts
from conftest import CORPUS
from gen import (random_closed_term, random_extension, random_open_term,
                 random_tss)

SMALL = Bounds(term_size=2, depth=8, state_cap=200, pair_cap=500)
CRITERION_8 = Bounds(term_size=2, depth=8, state_cap=150, pair_cap=300)


def test_bounds_defaults():
    b = Bounds()
    assert (b.term_size, b.depth, b.state_cap, b.pair_cap) == (3, 12, 10_000, 5_000)


def test_bounds_name_the_field_they_refuse():
    for fields, message in (
            ({"pair_cap": "x"}, "bound pair_cap must be a positive integer, "
                                "got 'x'"),
            ({"depth": True}, "bound depth must be a positive integer, "
                              "got True"),
            ({"term_size": 0, "state_cap": -1},
             "bound term_size must be a positive integer, got 0")):
        with pytest.raises(ValueError) as exc:
            Bounds(**fields)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# strong


def test_strong_absorbing_inert_summand(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    v = strong_bisim(parse_term("plus(zero, pre_a(zero))", ccs),
                     parse_term("pre_a(zero)", ccs), ccs)
    assert v.holds
    assert "partition" in v.certificate


def test_strong_distinguishes_by_initial_action(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    v = strong_bisim(parse_term("pre_a(zero)", ccs), App("zero"), ccs)
    assert v.fails
    assert v.witness["label"] == "a"
    assert v.witness["responses"] == []  # zero has no answer at all


def test_strong_live_constant_vs_inert(corpus_tsss):
    t = corpus_tsss["ChoiceA"]
    v = strong_bisim(parse_term("plus(a, zero)", t), App("zero"), t)
    assert v.fails


def test_strong_bounded_fallback_on_infinite_state_spaces():
    doc = parse('tss T { labels: a, b; op c/0; op d/0; op s/1; '
                'rule "c": |- c -a-> s(c); '
                'rule "d": |- d -b-> s(d); '
                'op e/0; rule "e": |- e -a-> s(c); '
                'rule "s": x -a-> x2 |- s(x) -a-> s(x2); }')
    t = doc.tss("T")
    small = Bounds(depth=6, state_cap=4)
    v = strong_bisim(App("c"), App("d"), t, small)
    assert v.fails  # initial labels differ even under the cap
    # c and e are bisimilar, but neither LTS closes within the cap
    v2 = strong_bisim(App("c"), App("e"), t, small)
    assert v2.inconclusive
    # c's LTS is cut while expanding its state three steps from the root
    assert v2.reason == "state cap 4 exceeded; 3-step bisimilar"


def test_a_truncated_lts_is_decided_only_up_to_its_horizon():
    t = parse('tss T { labels: a; op c0/0; op g0/2; op g1/0; '
              'rule "r0": |- c0 -a-> g1; '
              'rule "r1": x1 -a-> y1 |- g0(x0, x1) -a-> y1; '
              'rule "r2": |- g0(x0, x1) -a-> x0; '
              'rule "r3": |- g1 -a-> g0(g0(c0, c0), g0(g1, g1)); }').tss("T")
    p, q = parse_term("g0(g1, c0)", t), parse_term("g0(c0, c0)", t)
    assert strong_bisim(p, q, t).holds
    # at state cap 4 the state cut short has moves beyond the cap; its
    # partial edge list must not be read as all of its moves
    v = strong_bisim(p, q, t, Bounds(depth=6, state_cap=4))
    assert v.inconclusive
    assert v.reason == "state cap 4 exceeded; 3-step bisimilar"


def test_strong_inconclusive_names_the_cap_that_fired():
    item3 = parse('tss T { labels: a; op c0/0; op g0/1; '
                  'rule "r0": |- c0 -a-> g0(c0); '
                  'rule "r2": |- g0(x0) -a-> g0(g0(x0)); '
                  'rule "r3": x0 -a-> y0 |- g0(x0) -a-> y0; }').tss("T")
    # c0's states nest one g0 deeper per step: the depth cap refuses the
    # 121st state, long before the state cap of 10 000
    v = strong_bisim(App("c0"), App("g0", (App("c0"),)), item3)
    assert v.inconclusive
    assert v.reason == "state depth cap 120 exceeded; 12-step bisimilar"


def _check_partition(cert, p, q, tss):
    """The partition is stable and puts both roots in one block."""
    blocks = [[parse_term(x, tss) for x in block] for block in cert["partition"]]
    where = {s: i for i, block in enumerate(blocks) for s in block}
    assert where[p] == where[q]
    for block in blocks:
        # a successor outside every block raises KeyError
        sigs = {frozenset((l, where[s2]) for (l, s2) in transitions(s, tss))
                for s in block}
        assert len(sigs) == 1, block


def _replay(w, p, q, tss):
    """Every move is a transition, and every same-label answer is refuted."""
    todo = [(w, p, q)]
    while todo:
        w, p, q = todo.pop()
        a, b = (p, q) if w["side"] == "left" else (q, p)
        assert w["from"] == str(a)
        assert w["move"] in {str(s) for (l, s) in transitions(a, tss)
                             if l == w["label"]}
        answers = sorted(str(s) for (l, s) in transitions(b, tss)
                         if l == w["label"])
        assert sorted(r["to"] for r in w["responses"]) == answers
        a2 = parse_term(w["move"], tss)
        todo.extend((r["then"], a2, parse_term(r["to"], tss))
                    for r in w["responses"])


CAPPED = re.compile(r"state (size |depth )?cap \d+ exceeded; \d+-step bisimilar")


def _draws():
    """400 random closed pairs, each with its TSS."""
    rng = random.Random(61)
    for _ in range(400):
        tss = random_tss(rng)
        p = random_closed_term(rng, tss, 3)
        q = random_closed_term(rng, tss, 3)
        yield tss, p, q


def test_strong_certificates_and_witnesses_check_out():
    seen = set()
    for tss, p, q in _draws():
        for cap in (8, 4):
            v = strong_bisim(p, q, tss, Bounds(depth=4, state_cap=cap))
            seen.add((cap, v.kind, v.reason.split(";")[0]))
            if v.holds and p != q:
                _check_partition(v.certificate, p, q, tss)
            elif v.fails:
                _replay(v.witness, p, q, tss)
            elif v.inconclusive:
                assert CAPPED.fullmatch(v.reason), v.reason
    for cap in (8, 4):
        assert {(cap, "holds", "partition refinement"),
                (cap, "fails", "distinguished by partition refinement"),
                (cap, "fails", "distinguished within depth bound"),
                (cap, "inconclusive", "state cap %d exceeded" % cap)} <= seen


def test_a_truncated_lts_keeps_only_full_expansions():
    truncated = 0
    for tss, p, q in _draws():
        for root, cap in itertools.product((p, q), (4, 8)):
            lts = explore(root, tss, cap)
            # every expanded state maps to its own `transitions`, not a copy,
            # and the expanded states are the first ones reached
            assert all(moves is transitions(s, tss)
                       for s, moves in lts.succ.items())
            assert list(lts.succ) == list(lts.states[:len(lts.succ)])
            if lts.complete:
                assert (len(lts.succ), lts.horizon) == (len(lts.states), None)
                continue
            truncated += 1
            dist = {root: 0}  # breadth-first distances along the kept moves
            for s, moves in lts.succ.items():
                for (_, t) in moves:
                    dist.setdefault(t, dist[s] + 1)
            # every state is reached along a kept move, in breadth-first order
            assert list(dist) == list(lts.states)
            assert dist[lts.states[len(lts.succ)]] == lts.horizon
            assert all(s in lts.succ for s, d in dist.items()
                       if d < lts.horizon)
    assert truncated > 50


def _numbered(p, q, tss, bounds):
    """The explored LTSs of p and q, and their states numbered once, p's
    first, with each state's moves as (label, number) pairs, as
    `strong_bisim` numbers them; a state neither side expanded has none.
    Also q's number."""
    lp, lq = explore(p, tss, bounds.state_cap), explore(q, tss, bounds.state_cap)
    number = {}
    for s in lp.states + lq.states:
        number.setdefault(s, len(number))
    succ = [[(l, number[t]) for (l, t) in lp.succ.get(s, lq.succ.get(s, ()))]
            for s in number]
    return lp, lq, list(number), succ, number[q]


def _shuffled_witness(p, q, tss, bounds, rng):
    """Strong's witness for p and q, built after the states of both LTSs
    are numbered in a random order, which numbers blocks differently."""
    _, _, states, succ, qi = _numbered(p, q, tss, bounds)
    n = len(states)
    perm = list(range(n))
    rng.shuffle(perm)
    moved, placed = [()] * n, [None] * n
    for i, edges in enumerate(succ):
        moved[perm[i]] = [(l, perm[j]) for (l, j) in edges]
        placed[perm[i]] = states[i]
    levels = bisim._refine(moved, n, perm[0], perm[qi])
    return bisim._distinguish(perm[0], perm[qi], levels, placed, moved)


def _eager_witness(p, q, tss, bounds):
    """Strong's witness for p and q with every state named and every edge
    list sorted before the tree is built, and the splitting level found by
    a linear scan.  Kept as the reference for `_distinguish`, which prints
    only the states it visits."""
    lp, lq, states, succ, qi = _numbered(p, q, tss, bounds)
    cuts = [lts.horizon for lts in (lp, lq) if lts.cap]
    levels = bisim._refine(succ, min(bounds.depth, *cuts) if cuts
                           else len(states), 0, qi)
    names = [str(s) for s in states]
    out = [sorted(edges, key=lambda e: (e[0], names[e[1]])) for edges in succ]
    root = {}
    todo = [(root, 0, qi, len(levels) - 1)]
    while todo:
        node, p, q, k = todo.pop()
        k = next(i for i in range(1, k + 1) if levels[i][p] != levels[i][q])
        prev = levels[k - 1]
        for side, a, b in (("left", p, q), ("right", q, p)):
            answers = {(l, prev[s]) for (l, s) in out[b]}
            move = next(((l, s) for (l, s) in out[a]
                         if (l, prev[s]) not in answers), None)
            if move:
                break
        l, a2 = move
        ends = [b2 for (l2, b2) in out[b] if l2 == l]
        responses = [{"to": names[b2], "then": {}} for b2 in ends]
        todo.extend((r["then"], a2, b2, k - 1) for r, b2 in zip(responses, ends))
        node.update({"side": side, "label": l, "move": names[a2],
                     "from": names[a], "responses": responses})
    return root


def test_strong_witnesses_do_not_depend_on_state_numbers():
    rng = random.Random(7)
    fails = 0
    for tss, p, q in _draws():
        for cap in (8, 4):
            bounds = Bounds(depth=4, state_cap=cap)
            v = strong_bisim(p, q, tss, bounds)
            if v.fails:
                fails += 1
                assert _shuffled_witness(p, q, tss, bounds, rng) == v.witness
    assert fails > 100
    # two classes escape under one label here, so the choice between them
    # must not follow block numbers
    t = parse(PRINTED_ORDER).tss("T")
    v = strong_bisim(App("p"), App("q"), t)
    for _ in range(20):
        assert _shuffled_witness(App("p"), App("q"), t, Bounds(), rng) == v.witness


BRANCHING = ('tss T { labels: a; op c0/0; op g0/0; op g1/2; '
             'rule "r0": |- c0 -a-> g1(g0, g0); rule "r1": |- c0 -a-> g0; '
             'rule "r2": |- g0 -a-> g1(g0, c0); '
             'rule "r3": |- g0 -a-> g1(g1(c0, g0), g1(c0, c0)); '
             'rule "r4": x0 -a-> y0, x1 -a-> y1 |- g1(x0, x1) -a-> g1(y0, y1); '
             'rule "r5": x0 -a-> y0 |- g1(x0, x1) -a-> g0; }')
DRAW_369 = ('tss T { labels: a; op c0/0; op g0/2; op g1/0; '
            'rule "r0": |- c0 -a-> g0(c0, c0); rule "r1": |- c0 -a-> g1; '
            'rule "r2": x0 -a-> y0, x1 -a-> y1 |- '
            'g0(x0, x1) -a-> g0(g0(c0, y0), y1); '
            'rule "r3": x1 -a-> y1 |- '
            'g0(x0, x1) -a-> g0(g0(c0, g1), g0(x1, x1)); '
            'rule "r4": |- g1 -a-> g1; }')


def test_truncated_pairs_explore_each_side_once_and_stop(monkeypatch):
    # the successors of these states multiply, so any derivation beyond
    # one bounded exploration per side takes minutes and gigabytes
    calls = []
    explore = bisim.explore
    monkeypatch.setattr(bisim, "explore", lambda p, tss, cap: calls.append(p)
                        or explore(p, tss, cap))
    cases = [(BRANCHING, "g1(g1(c0, c0), g1(c0, g0))",
              "g1(g1(g1(g0, g0), g1(g0, g0)), g1(g1(g0, c0), g1(c0, c0)))",
              Bounds(state_cap=100)),
             (DRAW_369, "g0(g1, c0)", "g0(g0(g1, c0), g0(c0, g1))",
              Bounds(depth=4, state_cap=8))]
    for spec, lhs, rhs, bounds in cases:
        t = parse(spec).tss("T")
        calls.clear()
        v = strong_bisim(parse_term(lhs, t), parse_term(rhs, t), t, bounds)
        assert v.inconclusive
        assert v.reason.startswith("state cap %d exceeded;" % bounds.state_cap)
        assert [str(p) for p in calls] == [lhs, rhs]


PAR_WITNESS = {
    "side": "left", "label": "a",
    "from": "par(pa(pa(nil)), par(pb(pb(pb(nil))), pc(pc(pc(nil)))))",
    "move": "par(pa(nil), par(pb(pb(pb(nil))), pc(pc(pc(nil)))))",
    "responses": [{
        "to": "par(par(pa(pa(nil)), pb(pb(pb(nil)))), pc(pc(pc(nil))))",
        "then": {
            "side": "left", "label": "a",
            "from": "par(pa(nil), par(pb(pb(pb(nil))), pc(pc(pc(nil)))))",
            "move": "par(nil, par(pb(pb(pb(nil))), pc(pc(pc(nil)))))",
            "responses": [{
                "to": "par(par(pa(nil), pb(pb(pb(nil)))), pc(pc(pc(nil))))",
                "then": {
                    "side": "right", "label": "a",
                    "from": "par(par(pa(nil), pb(pb(pb(nil)))), pc(pc(pc(nil))))",
                    "move": "par(par(nil, pb(pb(pb(nil)))), pc(pc(pc(nil))))",
                    "responses": [],
                },
            }],
        },
    }],
}


CHAINS = ('tss Chains { labels: a, b, c; op nil/0; op pa/1; '
          'op pb/1; op pc/1; op par/2; '
          'rule "pa": |- pa(x) -a-> x; rule "pb": |- pb(x) -b-> x; '
          'rule "pc": |- pc(x) -c-> x; '
          'rule "par-l" forall l: x -l-> x2 |- par(x, y) -l-> par(x2, y); '
          'rule "par-r" forall l: y -l-> y2 |- par(x, y) -l-> par(x, y2); '
          '}')


# one a-step short on the left: told apart only at the third level
PAR_PAIR = ("par(pa(pa(nil)), par(pb(pb(pb(nil))), pc(pc(pc(nil)))))",
            "par(par(pa(pa(pa(nil))), pb(pb(pb(nil)))), pc(pc(pc(nil))))")


def test_strong_witness_on_par_chains_is_pinned():
    chains = parse(CHAINS).tss("Chains")
    p, q = (parse_term(side, chains) for side in PAR_PAIR)
    v = strong_bisim(p, q, chains)
    assert v.reason == "distinguished by partition refinement"
    assert v.witness == PAR_WITNESS
    _replay(v.witness, p, q, chains)


PRINTED_ORDER = ('tss T { labels: a, b; op p/0; op q/0; op z/0; op n/0; '
                 'op f/1; rule "p1": |- p -a-> z; rule "p2": |- p -a-> f(n); '
                 'rule "q": |- q -a-> n; rule "z": |- z -b-> n; '
                 'rule "fa": |- f(x) -a-> x; rule "fb": |- f(x) -b-> x; }')


def test_strong_witness_numbers_classes_in_printed_order():
    t = parse(PRINTED_ORDER).tss("T")
    # both of p's moves escape q; the attacker takes the move into the class
    # that comes first in printed order (f(n) < z), though exploration
    # reaches z first
    v = strong_bisim(App("p"), App("q"), t)
    assert v.witness == {
        "side": "left", "label": "a", "from": "p", "move": "f(n)",
        "responses": [{"to": "n", "then": {
            "side": "left", "label": "a", "from": "f(n)", "move": "n",
            "responses": []}}],
    }


def _cycles(*lengths):
    """Constants ck_i on a-cycles of length k, each with a b-loop at ck_0,
    and s running its two arguments in lockstep."""
    ops = " ".join("op c%d_%d/0;" % (k, i) for k in lengths for i in range(k))
    rules = " ".join('rule "c%d_%d": |- c%d_%d -a-> c%d_%d;'
                     % (k, i, k, i, k, (i + 1) % k)
                     for k in lengths for i in range(k))
    rules += " ".join(' rule "b%d": |- c%d_0 -b-> c%d_0;' % (k, k, k)
                      for k in lengths)
    rules += "".join(' rule "s%s": x -%s-> x1, y -%s-> y1 |- '
                     's(x, y) -%s-> s(x1, y1);' % (l, l, l, l) for l in "ab")
    return "tss T { labels: a, b; op s/2; %s %s }" % (ops, rules)


# b is enabled only when every component is at its start, which the two
# sides first disagree on after 1 155 a-steps
CYCLES_PAIR = ("s(s(s(c3_0, c5_0), c7_0), c11_0)",
               "s(s(s(c3_0, c5_0), c7_0), c13_0)")


def test_a_split_after_a_thousand_rounds_has_a_witness(tmp_path, capsys):
    spec = _cycles(3, 5, 7, 11, 13)
    t = parse(spec).tss("T")
    lhs, rhs = CYCLES_PAIR
    p, q = parse_term(lhs, t), parse_term(rhs, t)
    v = strong_bisim(p, q, t)
    assert v.reason == "distinguished by partition refinement"
    depth, w = 0, v.witness
    while w["responses"]:
        [r] = w["responses"]
        depth, w = depth + 1, r["then"]
    assert depth == 1155
    _replay(v.witness, p, q, t)
    (tmp_path / "cycles.sos").write_text(spec)
    assert main(["check", "strong", lhs, rhs,
                 "--spec", str(tmp_path / "cycles.sos")]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == (
        "fails: distinguished by partition refinement\n", "")


@pytest.mark.xfail(strict=True, raises=RecursionError,
                   reason="the witness is a tree 1 155 responses deep, "
                          "deeper than json.dumps recurses")
def test_a_thousand_round_witness_prints_as_json(tmp_path, capsys):
    (tmp_path / "cycles.sos").write_text(_cycles(3, 5, 7, 11, 13))
    lhs, rhs = CYCLES_PAIR
    assert main(["check", "strong", lhs, rhs, "--json",
                 "--spec", str(tmp_path / "cycles.sos")]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    payload = json.loads(out.out)
    assert payload["verdict"] == "fails" and payload["witness"]


def _nodes(w):
    """A witness tree's nodes in depth-first order, without recursion: a
    witness can be deeper than `==` on nested dicts can compare."""
    nodes, todo = [], [w]
    while todo:
        w = todo.pop()
        nodes.append((w["side"], w["label"], w["from"], w["move"],
                      [r["to"] for r in w["responses"]]))
        todo.extend(r["then"] for r in reversed(w["responses"]))
    return nodes


def test_strong_witnesses_match_eager_naming():
    # the pinned par pair, the 1 155-step split and every closed fails of
    # 300 draws at criterion 8's bounds
    chains = parse(CHAINS).tss("Chains")
    cycles = parse(_cycles(3, 5, 7, 11, 13)).tss("T")
    cases = [(t, parse_term(lhs, t), parse_term(rhs, t), Bounds())
             for t, (lhs, rhs) in ((chains, PAR_PAIR), (cycles, CYCLES_PAIR))]
    rng = random.Random(101)
    for _ in range(300):
        tss = random_tss(rng)
        p = random_closed_term(rng, tss, 3)
        q = random_closed_term(rng, tss, 3)
        cases.append((tss, p, q, CRITERION_8))
    fails = 0
    for tss, p, q, bounds in cases:
        v = strong_bisim(p, q, tss, bounds)
        if v.fails:
            fails += 1
            want = _eager_witness(p, q, tss, bounds)
            assert _nodes(v.witness) == _nodes(want), (str(p), str(q))
    assert fails > 40


def test_the_verdict_dump_runs():
    lines = list(dump_verdicts.rows(itertools.islice(dump_verdicts.cases(),
                                                     30)))
    kinds = {json.loads(line)["verdict"] for line in lines}
    assert len(lines) >= 30
    assert kinds <= {"holds", "fails", "inconclusive"}


def test_the_pinned_verdict_rows_stay_as_committed():
    # the dump's corpus and named-input rows; after a deliberate change,
    # write the file again with `dump_verdicts.py --pinned`
    pinned = Path(dump_verdicts.__file__).with_name("pinned_verdicts.jsonl")
    want = pinned.read_text().splitlines()
    got = list(dump_verdicts.rows(dump_verdicts.pinned_cases()))
    for expected, actual in zip(want, got):
        assert actual == expected
    assert len(got) == len(want)


# ---------------------------------------------------------------------------
# ci


def test_ci_no_counterexample_over_inert_signature(corpus_tsss):
    t = corpus_tsss["Choice0"]
    s = parse_term("plus(x, y)", t)
    # neither game holds, so the sweep answers
    assert fh_bisim(s, App("zero"), t).fails
    assert hp_bisim(s, App("zero"), t).fails
    v = ci_bisim(s, App("zero"), t, Bounds(term_size=4))
    assert v.to_json() == {
        "verdict": "inconclusive",
        "reason": "no counterexample up to bound (term size 4, 4 substitutions)"}


def test_ci_witness_is_replayable(corpus_tsss):
    t = corpus_tsss["ChoiceA"]
    v = ci_bisim(parse_term("plus(x, y)", t), App("zero"), t, SMALL)
    assert v.fails
    assert v.witness == {
        "sigma": {"x": "a", "y": "a"},
        "instance": ["plus(a, a)", "zero"],
        "distinguisher": {"side": "left", "label": "a", "move": "zero",
                          "from": "plus(a, a)", "responses": []}}
    sigma = {name: parse_term(text, t)
             for name, text in v.witness["sigma"].items()}
    lhs = apply_subst(sigma, parse_term("plus(x, y)", t))
    rhs = apply_subst(sigma, App("zero"))
    assert strong_bisim(lhs, rhs, t).fails


def test_ci_holds_via_fh_with_its_certificate(corpus_tsss, monkeypatch):
    ext = corpus_tsss["CcsExt"]
    s = parse_term("plus(plus(x, y), z)", ext)
    t = parse_term("plus(x, plus(y, z))", ext)
    bounds = Bounds(term_size=4)
    fh = fh_bisim(s, t, ext, bounds)
    assert fh.holds

    def no_sweep(*args):
        raise AssertionError("swept although fh holds")

    monkeypatch.setattr(bisim, "_ci_sweep", no_sweep)
    v = ci_bisim(s, t, ext, bounds)
    assert v.holds and not v.vacuous
    assert v.reason == "fh-bisimilar, which implies ci"
    assert v.certificate == {"via": "fh", **fh.certificate}


SEED_100_DRAW_46 = ('tss T { labels: a; op c0/0; op g0/2; op g1/1; '
                    'rule "r0": |- c0 -a-> g1(c0); '
                    'rule "r1": x0 -a-> y0, x1 -a-> y1 |- g0(x0, x1) -a-> c0; '
                    'rule "r2": |- g0(x0, x1) -a-> c0; }')


def test_ci_holds_via_hp_where_fh_does_not():
    # draw 46 of seed 100 in tests/dump_verdicts.py
    t = parse(SEED_100_DRAW_46).tss("T")
    s, u = parse_term("g0(x, x)", t), parse_term("g0(x, y)", t)
    assert not fh_bisim(s, u, t).holds
    hp = hp_bisim(s, u, t)
    assert hp.holds
    v = ci_bisim(s, u, t)
    assert v.reason == "hp-bisimilar, which implies ci"
    assert v.certificate == {"via": "hp", **hp.certificate}
    # the sweep finds no counterexample either
    assert bisim._ci_sweep(s, u, t, Bounds()).inconclusive


def test_ci_closed_pair_delegates_to_strong(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    v = ci_bisim(parse_term("plus(zero, pre_a(zero))", ccs),
                 parse_term("pre_a(zero)", ccs), ccs)
    assert v.holds


def test_ci_vacuous_without_constants(corpus_tsss):
    res = corpus_tsss["Res"]
    v = ci_bisim(parse_term("resA(pre_a(x))", res),
                 parse_term("pre_tau(resA(x))", res), res)
    assert v.holds and v.vacuous
    assert v.to_json()["vacuous"] is True


def test_ci_vacuity_is_decided_before_the_games(corpus_tsss, monkeypatch):
    def no_game(*args):
        raise AssertionError("a game ran on a vacuous pair")

    monkeypatch.setattr(bisim, "fh_bisim", no_game)
    monkeypatch.setattr(bisim, "hp_bisim", no_game)
    res = corpus_tsss["Res"]
    v = ci_bisim(parse_term("resB(resA(x))", res),
                 parse_term("resAB(x)", res), res)
    assert v.to_json() == {
        "verdict": "holds", "vacuous": True,
        "reason": "no constants in signature: no closing substitutions exist"}


# ---------------------------------------------------------------------------
# fh / hp / proper variants


def test_fh_identity_and_reflexive_variables(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    assert fh_bisim(Var("x"), Var("x"), ccs).holds
    assert pfh_bisim(Var("x"), Var("x"), ccs).holds


def test_fh_distinct_variables_fail(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    assert fh_bisim(Var("x"), Var("y"), ccs).fails


def test_fh_relates_every_merged_variant(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    v = fh_bisim(parse_term("plus(plus(x, y), z)", ccs),
                 parse_term("plus(x, plus(y, z))", ccs), ccs)
    # the pair, its three two-variable merges and the merge of all three,
    # which merging two variables of a merged variant reaches
    assert v.certificate["pairs"] == [
        ["plus(plus(v0, v0), v0)", "plus(v0, plus(v0, v0))"],
        ["plus(plus(v0, v0), v1)", "plus(v0, plus(v0, v1))"],
        ["plus(plus(v0, v1), v0)", "plus(v0, plus(v1, v0))"],
        ["plus(plus(v0, v1), v1)", "plus(v0, plus(v1, v1))"],
        ["plus(plus(v0, v1), v2)", "plus(v0, plus(v1, v2))"],
        ["v0", "v0"]]


def test_fh_forwarding_breaks_with_new_label(corpus_tsss):
    f, fb = corpus_tsss["F"], corpus_tsss["FB"]
    s, t = parse_term("f(x)", f), Var("x")
    assert fh_bisim(s, t, f).holds
    v = fh_bisim(s, t, fb)
    assert v.fails
    last = v.witness["trace"][-1]
    assert last["obligation"]["ruloid"] == "v0 -b-> h0 |- v0 -b-> h0"
    assert last.get("unmatched")


def test_hp_copying_choice(corpus_tsss):
    copy, copyb = corpus_tsss["Copy"], corpus_tsss["CopyB"]
    s = parse_term("plus(x, y)", copy)
    t = parse_term("plus(y, x)", copy)
    hv = hp_bisim(s, t, copy)
    assert hv.holds
    states = [tuple(st["pair"]) + (tuple(st["gamma"]),)
              for st in hv.certificate["states"]]
    assert ("plus(v0, v0)", "v0", ("v1 -a-> v0",)) in states
    assert hp_bisim(s, t, copyb).fails
    assert php_bisim(s, t, copy).fails


def test_proper_variant_rejects_improper_root(corpus_tsss):
    f = corpus_tsss["F"]
    v = pfh_bisim(parse_term("f(x)", f), Var("x"), f)
    assert v.fails
    assert "improper" in str(v.witness)


def test_proper_holds_implies_plain_holds(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    s = parse_term("plus(x, plus(y, z))", ccs)
    t = parse_term("plus(plus(x, y), z)", ccs)
    assert pfh_bisim(s, t, ccs).holds
    assert fh_bisim(s, t, ccs).holds


def test_hierarchy_on_sample_pairs(corpus_tsss):
    pairs = [
        ("Ccs", "plus(x, y)", "plus(y, x)"),
        ("Ccs", "plus(x, x)", "x"),
        ("Ccs", "plus(x, zero)", "x"),
        ("F", "f(x)", "x"),
        ("FB", "f(x)", "x"),
        ("Copy", "plus(x, y)", "plus(y, x)"),
        ("ChoiceA", "plus(x, y)", "zero"),
    ]
    for name, ls, rs in pairs:
        t = corpus_tsss[name]
        s1, s2 = parse_term(ls, t), parse_term(rs, t)
        fh = fh_bisim(s1, s2, t, SMALL)
        hp = hp_bisim(s1, s2, t, SMALL)
        ci = ci_bisim(s1, s2, t, SMALL)
        if fh.holds:
            assert not hp.fails, (name, ls, rs)
        if hp.holds:
            # ci answers through the games, so the sweep is asked directly
            assert ci.holds, (name, ls, rs)
            assert not bisim._ci_sweep(s1, s2, t, SMALL).fails, (name, ls, rs)


def test_closed_term_coincidence(corpus_tsss):
    t = corpus_tsss["ChoiceA"]
    pool = list(enumerate_closed_terms(t.all_signature, 2))
    for p, q in itertools.product(pool, repeat=2):
        strong = strong_bisim(p, q, t)
        for checker in (ci_bisim, fh_bisim, hp_bisim):
            other = checker(p, q, t, SMALL)
            if strong.holds and not other.inconclusive:
                assert other.holds, (str(p), str(q), checker.__name__)
            if strong.fails:
                assert not other.holds, (str(p), str(q), checker.__name__)


def test_inconclusive_names_the_bound_that_fired():
    item3 = parse('tss T { labels: a; op c0/0; op g0/1; '
                  'rule "r0": |- c0 -a-> g0(c0); '
                  'rule "r2": |- g0(x0) -a-> g0(g0(x0)); '
                  'rule "r3": x0 -a-> y0 |- g0(x0) -a-> y0; }').tss("T")
    c0, g0c0 = App("c0"), App("g0", (App("c0"),))
    v = fh_bisim(c0, g0c0, item3, Bounds(pair_cap=50))
    assert v.reason == "pair cap 50 reached without closure"
    # derivatives outgrow the size cap below the pair cap
    v = fh_bisim(c0, g0c0, item3, Bounds(pair_cap=300))
    assert v.inconclusive
    assert v.reason == "size cap 24 reached without closure"
    wide = parse('tss W { labels: a; op c/0; op f/5; rule "f": '
                 'x1 -a-> y1, x2 -a-> y2, x3 -a-> y3, x4 -a-> y4, '
                 'x5 -a-> y5 |- f(x1, x2, x3, x4, x5) -a-> c; }').tss("W")
    f = App("f", tuple(Var("x%d" % i) for i in range(1, 6)))
    g = App("f", tuple(Var("x%d" % i) for i in (2, 1, 3, 4, 5)))
    v = hp_bisim(f, g, wide)
    assert v.reason == "hypothesis cap 4 reached without closure"


def test_hp_leaves_a_state_over_the_size_budget_unexplored(monkeypatch):
    # draw 204 of seed 102 in tests/dump_verdicts.py: the accumulated
    # hypotheses outgrow the budget while no term or ruloid does
    t = parse('tss T { labels: a; op c0/0; op g0/2; op g1/2; '
              'rule "r0": |- c0 -a-> c0; rule "r1": |- c0 -a-> g0(c0, c0); '
              'rule "r2": x0 -a-> y0 |- g0(x0, x1) -a-> y0; '
              'rule "r3": |- g1(x0, x1) -a-> g0(g1(c0, x0), g0(c0, x1)); '
              'rule "r4": x0 -a-> y0 |- g1(x0, x1) -a-> g1(x1, x1); }'
              ).tss("T")
    over, option = bisim._Game.over, bisim._Game.option
    fired, states = [], []  # every cap met; the states refused by one

    def recording_over(game, size, hyps):
        cap = over(game, size, hyps)
        if cap:
            fired.append(cap)
        return cap

    def recording_option(game, s, t, gamma):
        opt = option(game, s, t, gamma)
        if isinstance(opt, str):
            states.append((opt, len(gamma)))
        return opt

    monkeypatch.setattr(bisim._Game, "over", recording_over)
    monkeypatch.setattr(bisim._Game, "option", recording_option)
    v = hp_bisim(App("c0"), parse_term("g1(g0(x, y), g1(y, x))", t), t,
                 Bounds(term_size=2, depth=8, state_cap=150, pair_cap=300))
    assert v.reason == "hypothesis cap 4 reached without closure"
    assert states and all(cap == "hypothesis" and hyps > bisim._Game.HYP_CAP
                          for cap, hyps in states)
    assert len(fired) == len(states)  # no ruloid was over a cap


def test_identical_pairs_hold_under_every_notion():
    item3 = parse('tss T { labels: a; op c0/0; op g0/1; '
                  'rule "r0": |- c0 -a-> g0(c0); '
                  'rule "r2": |- g0(x0) -a-> g0(g0(x0)); '
                  'rule "r3": x0 -a-> y0 |- g0(x0) -a-> y0; }').tss("T")
    # c0's LTS is infinite, and no game on either term closes at pair cap
    # 50, so every search here would end inconclusive; strong takes
    # closed terms only
    cases = [(n, App("c0")) for n in NOTIONS]
    cases += [(n, App("g0", (Var("x"),))) for n in NOTIONS if n != "strong"]
    for notion, term in cases:
        v = check(notion, term, term, item3, Bounds(pair_cap=50))
        assert v.holds, (notion, str(term))
        assert v.certificate == {"relation": "identity"}


def test_check_refuses_an_unknown_notion(corpus_tsss):
    with pytest.raises(ValueError, match="^unknown notion 'bogus'$"):
        check("bogus", App("zero"), App("zero"), corpus_tsss["Ccs"])


def test_verdicts_are_alpha_invariant(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    for notion in ("ci", "fh", "hp", "pfh", "php"):
        a = check(notion, parse_term("plus(p, q)", ccs),
                  parse_term("plus(q, p)", ccs), ccs, SMALL)
        b = check(notion, parse_term("plus(u, w)", ccs),
                  parse_term("plus(w, u)", ccs), ccs, SMALL)
        assert a.kind == b.kind, notion


def test_verdict_json_shape(corpus_tsss):
    f = corpus_tsss["F"]
    v = fh_bisim(parse_term("f(x)", f), Var("x"), f)
    j = v.to_json()
    assert j["verdict"] == "holds"
    assert "certificate" in j


def test_one_normal_form_for_game_states(corpus_tsss):
    ccs = corpus_tsss["Ccs"]
    terms = list(enumerate_open_terms(ccs.all_signature, 2, ("x", "y")))
    # a hypothesis between the terms' variables, and one to a fresh target
    gammas = (frozenset(), frozenset({Hyp("x", "a", "y")}),
              frozenset({Hyp("x", "a", "y"), Hyp("y", "b", "z")}))
    cycle = {"x": "y", "y": "z", "z": "x"}
    ren = {x: Var(y) for x, y in cycle.items()}
    checked = 0
    for s, t in itertools.product(terms, repeat=2):
        for gamma in gammas:
            norm, key = _norm_state(s, t, gamma)
            assert key == bisim._state_key_str(norm)
            assert (norm, key) == _norm_state(t, s, gamma)
            renamed = frozenset(Hyp(cycle[h.source], h.label, cycle[h.target])
                                for h in gamma)
            assert (norm, key) == _norm_state(apply_subst(ren, s),
                                              apply_subst(ren, t), renamed)
            again, again_key = _norm_state(*norm)
            assert (again, again_key) == (norm, key)
            # an already-canonical state comes back as the same objects
            assert all(a is b for a, b in zip(again, norm))
            checked += 1
    assert checked > 1000


def test_php_arena_loses_at_its_first_state(monkeypatch):
    # the benchmark's php arena: the root is lost by an unmatched ruloid,
    # yet more states than the pair cap of 150 are reachable from it
    arena = parse('tss T { labels: a; op c0/0; op g0/1; '
                  'rule "r0": |- c0 -a-> g0(g0(c0)); '
                  'rule "r1": x0 -a-> y0 |- g0(x0) -a-> g0(y0); '
                  'rule "r2": x0 -a-> y0 |- g0(x0) -a-> g0(g0(c0)); }'
                  ).tss("T")
    built = []
    obligations = bisim._HpGame.obligations
    monkeypatch.setattr(bisim._HpGame, "obligations",
                        lambda game, key: built.append(key)
                        or obligations(game, key))
    v = php_bisim(parse_term("g0(g0(y))", arena), App("c0"), arena,
                  Bounds(pair_cap=150))
    assert v.fails
    assert v.witness["trace"][-1]["unmatched"]
    assert len(built) == 1


def test_a_state_whose_option_was_lost_before_it_was_built_loses():
    # c0 and c3 are told apart only through the pair (c0, c2), which is
    # built after (c1, c3), the one option of its losing obligation, is lost
    t = parse('tss T { labels: a, b; op c0/0; op c1/0; op c2/0; op c3/0; '
              'rule "r01a": |- c0 -a-> c1; rule "r02b": |- c0 -b-> c2; '
              'rule "r03a": |- c0 -a-> c3; rule "r21a": |- c2 -a-> c1; '
              'rule "r22b": |- c2 -b-> c2; rule "r30b": |- c3 -b-> c0; '
              'rule "r31a": |- c3 -a-> c1; rule "r33a": |- c3 -a-> c3; }'
              ).tss("T")
    c0, c3 = App("c0"), App("c3")
    assert strong_bisim(c0, c3, t).fails
    for checker in (fh_bisim, hp_bisim, pfh_bisim, php_bisim):
        assert checker(c0, c3, t).fails, checker.__name__


MERGED = ('tss T { labels: a, b, c, d, e; op z/0; op A/2; op B/2; '
          'op L/2; op M/2; op p/2; op q/2; op u/2; '
          'rule "Ap": |- A(x1, x2) -a-> p(x1, x1); '
          'rule "Aq": |- A(x1, x2) -a-> q(x1, x1); '
          'rule "Bp": |- B(x1, x2) -a-> p(x1, x1); '
          'rule "Bq": |- B(x1, x2) -a-> q(x1, x1); '
          'rule "AL": |- A(x1, x2) -b-> L(x1, x2); '
          'rule "BM": |- B(x1, x2) -b-> M(x1, x2); '
          'rule "Lp": |- L(x1, x2) -c-> p(x1, x2); '
          'rule "Mq": |- M(x1, x2) -c-> q(x1, x2); '
          'rule "pu": |- p(x1, x2) -d-> u(x1, x2); '
          'rule "qz": |- q(x1, x2) -d-> z; '
          'rule "ue": |- u(x1, x2) -e-> z; }')


def test_fh_witness_steps_through_a_merged_variant_lost_first():
    # the root's a-moves reach (p(x, x), q(x, x)), which an a-answer to
    # the same term keeps from losing the root; it is lost one level down,
    # before (p(x, y), q(x, y)) is built through the b- and c-moves, so
    # that pair loses by its merged variant while its own d-moves are open
    t = parse(MERGED).tss("T")
    s, u = parse_term("A(x, y)", t), parse_term("B(x, y)", t)
    for checker in (fh_bisim, pfh_bisim):
        trace = checker(s, u, t).witness["trace"]
        assert [step["obligation"].get("ruloid") for step in trace] == [
            "|- A(v0, v1) -b-> L(v0, v1)", "|- L(v0, v1) -c-> p(v0, v1)",
            None, "|- p(v0, v0) -d-> u(v0, v0)", "|- u(v0, v0) -e-> z"]
        assert trace[2] == {"state": ["p(v0, v1)", "q(v0, v1)"],
                            "obligation": {
                                "from": ["p(v0, v1)", "q(v0, v1)"],
                                "merged-variant": ["p(v0, v0)", "q(v0, v0)"]}}
        assert trace[3]["state"] == ["p(v0, v0)", "q(v0, v0)"]
        assert trace[-1]["unmatched"]
        assert all("unmatched" not in step for step in trace[:-1])


def _sweep(game, s, t):
    """Reference solver: build every reachable state through `obligations`,
    where the name of a cap is an option that is never lost, then sweep
    for lost states until nothing changes.  The verdict kind and
    certificate; None when the pair cap fires, or when another bound fired
    and the root is not lost."""
    root, _ = _norm_state(s, t, EMPTY)
    graph: dict = {}
    todo = [root]
    capped = False
    while todo:
        key = todo.pop()
        if key in graph:
            continue
        if len(graph) >= game.pair_cap:
            return None
        graph[key] = [opts for _, opts in game.obligations(key)]
        for opts in graph[key]:
            for o in opts:
                if isinstance(o, str):
                    capped = True
                else:
                    todo.append(o)
    lost: set = set()
    changed = True
    while changed:
        changed = False
        for key, obligations in graph.items():
            a, b, _ = key
            improper = a != b and (isinstance(a, Var) or isinstance(b, Var))
            if key not in lost and (
                    game.proper and improper
                    or any(all(o in lost for o in opts)
                           for opts in obligations)):
                lost.add(key)
                changed = True
    if root in lost:
        return "fails", None
    if capped:  # a state or ruloid over the size or hypothesis cap
        return None
    return "holds", game.certificate([k for k in graph if k not in lost])


def test_one_pass_solver_agrees_with_the_fixpoint_sweep():
    games = {fh_bisim: (bisim._FhGame, False),
             hp_bisim: (bisim._HpGame, False),
             pfh_bisim: (bisim._FhGame, True),
             php_bisim: (bisim._HpGame, True)}
    rng = random.Random(7)
    kinds = []
    for _ in range(200):
        base = random_tss(rng)
        tss = random_extension(rng, base, add_label=rng.random() < 0.5)
        s = random_open_term(rng, base, 3)
        t = random_open_term(rng, base, 3)
        if s == t:
            continue  # the identity relation answers without a game
        for checker, (game, proper) in games.items():
            want = _sweep(game(tss, SMALL.pair_cap, proper), s, t)
            if want is not None:
                v = checker(s, t, tss, SMALL)
                assert (v.kind, v.certificate) == want, \
                    (checker.__name__, str(s), str(t))
                kinds.append(v.kind)
    assert kinds.count("holds") > 50 and kinds.count("fails") > 50


GAMES = {fh_bisim: (bisim._FhGame, False), hp_bisim: (bisim._HpGame, False),
         pfh_bisim: (bisim._FhGame, True), php_bisim: (bisim._HpGame, True)}
DRAW_173 = ('tss T { labels: a, b; op c0/0; op g0/2; op g1/0; '
            'rule "r0": |- c0 -b-> g0(g1, g1); '
            'rule "r1": |- c0 -a-> g0(g0(g1, g1), g0(g1, g1)); '
            'rule "r2": x1 -b-> y1 |- g0(x0, x1) -b-> g0(x0, y1); '
            'rule "r3": |- g0(x0, x1) -a-> x1; '
            'rule "r4": |- g1 -b-> g0(g0(g1, c0), g0(c0, c0)); '
            'rule "r5": |- g1 -b-> g0(g1, g1); }')


def test_a_capped_state_does_not_stop_the_search():
    # the size cap fires while the root's successors are built; a search that
    # stops after that level builds 9 states and ends inconclusive, as the
    # root is lost only through states further down
    t = parse(DRAW_173).tss("T")
    p = parse_term("g0(c0, c0)", t)
    q = parse_term("g0(g0(g0(c0, g1), g0(g1, g1)), "
                   "g0(g0(g1, c0), g0(g1, c0)))", t)
    assert strong_bisim(p, q, t).fails
    for checker in GAMES:
        for cap in (50, 300, 5000):
            v = checker(p, q, t, Bounds(pair_cap=cap))
            assert v.fails, (checker.__name__, cap, v.reason)
            assert v.witness["trace"][-1]["unmatched"]
    # the reference builds all 12 932 states within the size cap, so it
    # needs a larger pair cap; one plain and one proper game suffice
    for checker in (fh_bisim, php_bisim):
        game, proper = GAMES[checker]
        assert _sweep(game(t, 20_000, proper), p, q) == ("fails", None)


ITEM3 = ('tss T { labels: a; op c0/0; op g0/1; '
         'rule "r0": |- c0 -a-> g0(c0); '
         'rule "r2": |- g0(x0) -a-> g0(g0(x0)); '
         'rule "r3": x0 -a-> y0 |- g0(x0) -a-> y0; }')


def test_each_raw_game_state_is_normalised_once(monkeypatch):
    norm, key = bisim._norm_state, bisim._state_key_str
    raw, keyed, built = [], [], []
    monkeypatch.setattr(bisim, "_norm_state",
                        lambda *a: raw.append(a) or norm(*a))
    monkeypatch.setattr(bisim, "_state_key_str",
                        lambda state: keyed.append(state) or key(state))
    for game in (bisim._FhGame, bisim._HpGame):
        obligations = game.obligations
        monkeypatch.setattr(game, "obligations",
                            lambda g, k, obligations=obligations:
                            built.append(k) or obligations(g, k))
    c0, g0c0 = App("c0"), App("g0", (App("c0"),))
    for checker in (fh_bisim, hp_bisim):
        item3 = parse(ITEM3).tss("T")  # a TSS no game has played on yet
        raw.clear()
        keyed.clear()
        v = checker(c0, g0c0, item3, Bounds(pair_cap=150))
        assert v.reason == "pair cap 150 reached without closure"
        assert len(raw) == len(set(raw)) > 150, checker.__name__
        # both orientations of each raw state are keyed once, and the
        # options are sorted by those keys, never by keying a state again
        assert len(keyed) == 2 * len(raw), checker.__name__
    # a second game on the same TSS rebuilds nothing
    item3 = parse(ITEM3).tss("T")
    cold = fh_bisim(c0, g0c0, item3, Bounds(pair_cap=150))
    raw.clear()
    keyed.clear()
    built.clear()
    warm = fh_bisim(c0, g0c0, item3, Bounds(pair_cap=150))
    assert warm.to_json() == cold.to_json()
    assert raw == keyed == built == []


def _fresh(layers: dict) -> dict:
    """Copies of a base and its extensions that no game has played on."""
    old = layers["base"]
    base = Tss(old.name, old.signature, old.labels, old.rules)
    return {where: base if tss is old else
            Tss(tss.name, tss.signature, tss.labels, tss.rules, base)
            for where, tss in layers.items()}


def test_warm_game_tables_answer_as_a_fresh_tss_does():
    # criterion 8's bounds; the questions of open-games on one base and its
    # extensions, in that order and reversed, each also asked on a TSS of
    # its own
    bounds = Bounds(term_size=2, depth=8, state_cap=150, pair_cap=300)
    order = [(notion, where) for where in ("base", "ext0", "ext1")
             for notion in ("fh", "hp", "pfh", "php", "ci")]
    rng = random.Random(16)
    draws, kinds = 0, []
    while draws < 200:
        base = random_tss(rng)
        layers = {"base": base,
                  "ext0": random_extension(rng, base, add_label=False),
                  "ext1": random_extension(rng, base, add_label=True)}
        s = random_open_term(rng, base, 2)
        t = random_open_term(rng, base, 2)
        if s == t:
            continue  # the identity relation answers without a game
        draws += 1
        cold = {(notion, where):
                check(notion, s, t, _fresh(layers)[where], bounds).to_json()
                for notion, where in order}
        for questions in (order, order[::-1]):
            warm = _fresh(layers)
            for notion, where in questions:
                v = check(notion, s, t, warm[where], bounds)
                assert v.to_json() == cold[notion, where], \
                    (notion, where, str(s), str(t))
                kinds.append(v.kind)
    assert kinds.count("holds") > 500 and kinds.count("fails") > 500


SIZE_CAPPED = ('tss T { labels: a; op c0/0; op c1/0; op g0/1; '
               'rule "r0": |- c1 -a-> c1; '
               'rule "r1": |- g0(x0) -a-> g0(x0); }')


def test_a_warm_table_replays_the_caps_its_states_fired(monkeypatch):
    c0, g0c0 = App("c0"), App("g0", (App("c0"),))
    warm = parse(ITEM3).tss("T")
    for checker in GAMES:  # pfh and php find their tables filled
        cold = checker(c0, g0c0, parse(ITEM3).tss("T"), Bounds(pair_cap=150))
        for _ in range(2):
            v = checker(c0, g0c0, warm, Bounds(pair_cap=150))
            assert v.reason == cold.reason, checker.__name__
    # c1 ~ g0(g0(c0)) answers itself through its only state; below the
    # defender's size of 3, a cap fires while the root's obligations are
    # built, and nowhere else
    t = parse(SIZE_CAPPED).tss("T")
    c1, g = App("c1"), App("g0", (g0c0,))
    monkeypatch.setattr(bisim._Game, "SIZE_CAP", 2)
    for checker in GAMES:
        cold = checker(c1, g, parse(SIZE_CAPPED).tss("T"))
        assert cold.reason == "size cap 2 reached without closure"
        for _ in range(2):
            assert checker(c1, g, t).to_json() == cold.to_json()
    # a table never answers for another size cap
    monkeypatch.setattr(bisim._Game, "SIZE_CAP", 24)
    for checker in GAMES:
        assert checker(c1, g, t).holds, checker.__name__
    monkeypatch.setattr(bisim._Game, "SIZE_CAP", 2)
    for checker in GAMES:
        assert checker(c1, g, t).reason == "size cap 2 reached without closure"


def test_a_base_table_never_answers_for_an_extension():
    # g0(y) ~ y holds on the base; the extension's label z tells them apart
    text = ('tss B { labels: a; op c0/0; op g0/1; '
            'rule "r0": |- c0 -a-> g0(g0(c0)); rule "r1": |- c0 -a-> c0; '
            'rule "r2": x0 -a-> y0 |- g0(x0) -a-> y0; } '
            'tss E extends B { labels: z; op n0/1; '
            'rule "e0": |- n0(x0) -z-> x0; '
            'rule "e1": x0 -a-> y0 |- n0(x0) -a-> g0(c0); }')
    doc = parse(text)
    s, t = App("g0", (Var("y"),)), Var("y")
    for checker in (fh_bisim, hp_bisim):
        cold = checker(s, t, parse(text).tss("E"))
        assert cold.fails
        assert checker(s, t, doc.tss("B")).holds
        assert checker(s, t, doc.tss("E")).to_json() == cold.to_json()


def test_refinement_stops_once_the_roots_split(monkeypatch):
    t = parse(_cycles(3, 5, 7, 11, 13)).tss("T")
    p = parse_term("s(s(s(c3_0, c5_0), c7_0), c11_0)", t)
    q = parse_term("s(s(s(c3_0, c5_0), c7_0), c13_0)", t)
    refine, kept = bisim._refine, []
    monkeypatch.setattr(bisim, "_refine",
                        lambda *a: kept.append(refine(*a)) or kept[-1])
    assert strong_bisim(p, q, t).fails
    # the roots split at round 1 156; the partition is stable only at
    # round 2 310
    assert len(kept[0]) == 1157


# ---------------------------------------------------------------------------
# the strong verdict table


def _count_closed_work(monkeypatch) -> list[str]:
    """The names of the explore and _refine calls bisim makes from now on."""
    calls = []
    explore, refine = bisim.explore, bisim._refine
    monkeypatch.setattr(bisim, "explore",
                        lambda *a: calls.append("explore") or explore(*a))
    monkeypatch.setattr(bisim, "_refine",
                        lambda *a: calls.append("refine") or refine(*a))
    return calls


def _chain_pairs(tss):
    """A pair of par chains that holds, one that fails and one that a
    state cap of 20 leaves inconclusive."""
    def term(text):
        return parse_term(text, tss)
    left = term("par(pa(pa(nil)), par(pb(pb(pb(nil))), pc(pc(pc(nil)))))")
    right = term("par(par(pa(pa(nil)), pb(pb(pb(nil)))), pc(pc(pc(nil))))")
    longer = term("par(par(pa(pa(pa(nil))), pb(pb(pb(nil)))), pc(pc(pc(nil))))")
    return [(left, right, Bounds()), (left, longer, Bounds()),
            (left, right, Bounds(state_cap=20))]


def test_a_closed_pair_is_decided_once_per_tss(monkeypatch):
    calls = _count_closed_work(monkeypatch)
    kinds = []
    for first, then in itertools.product(("strong", "ci"), repeat=2):
        t = parse(CHAINS).tss("Chains")
        for p, q, bounds in _chain_pairs(t):
            calls.clear()
            v = check(first, p, q, t, bounds)
            assert calls.count("explore") == 2 and "refine" in calls
            calls.clear()
            again = check(then, p, q, t, bounds)
            assert calls == [], (first, then, v.kind)
            assert again.to_json() == v.to_json()
            kinds.append(v.kind)
    assert set(kinds) == {"holds", "fails", "inconclusive"}


def test_the_table_is_keyed_by_the_bounds_strong_reads(monkeypatch):
    calls = _count_closed_work(monkeypatch)
    t = parse(CHAINS).tss("Chains")
    for p, q, bounds in _chain_pairs(t):
        strong_bisim(p, q, t, bounds)
        for field, recomputes in (("depth", True), ("state_cap", True),
                                  ("term_size", False), ("pair_cap", False)):
            change = {field: getattr(bounds, field) + 1}
            other = dataclasses.replace(bounds, **change)
            calls.clear()
            v = strong_bisim(p, q, t, other)
            assert bool(calls) == recomputes, field
            fresh = parse(CHAINS).tss("Chains")
            assert v.to_json() == strong_bisim(p, q, fresh, other).to_json()


def test_a_base_table_never_answers_strong_for_an_extension():
    # c0 ~ g0(c0) on the base; the extension adds a z move to c0 alone
    doc = parse('tss B { labels: a; op c0/0; op g0/1; '
                'rule "r0": |- c0 -a-> c0; '
                'rule "r1": x -a-> y |- g0(x) -a-> g0(y); } '
                'tss E extends B { labels: z; rule "e0": |- c0 -z-> c0; }')
    p, q = App("c0"), App("g0", (App("c0"),))
    for checker in (strong_bisim, ci_bisim):
        assert checker(p, q, doc.tss("B")).holds
        assert checker(p, q, doc.tss("E")).fails
        assert checker(p, q, doc.tss("B")).holds


def test_a_ci_sweep_leaves_the_strong_table_empty(monkeypatch):
    swept = []
    strong = bisim._strong
    monkeypatch.setattr(bisim, "_strong",
                        lambda *a: swept.append(a[:2]) or strong(*a))
    ext = parse((CORPUS / "ex1.sos").read_text()).tss("CcsExt")
    v = ci_bisim(parse_term("plus(x, x)", ext), Var("x"), ext)
    assert v.fails and "sigma" in v.witness
    t = parse(SEED_100_DRAW_46).tss("T")
    v = bisim._ci_sweep(parse_term("g0(x, x)", t), parse_term("g0(x, y)", t),
                        t, Bounds())
    assert v.inconclusive
    assert len(swept) > 10
    assert not ext._memo.get("strong") and not t._memo.get("strong")
