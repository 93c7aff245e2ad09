"""Equivalence checkers: strong, ci-, fh-, hp-bisimilarity and proper variants.

Every checker returns a three-valued Verdict: Holds with a certificate,
Fails with a replayable witness, or InconclusiveAtBound.  Identical terms
hold at once under every notion, certified by the identity relation.

fh and hp are one game over states (s, t, gamma): two open terms and the
hypotheses accumulated on their variables, which fh leaves empty.  They
share one normal form (`_norm_state`), one budget policy (`_Game.over`,
whose caps are options that never lose) and one solver, which builds the
game breadth-first, solves it on the fly and stops once the root is lost;
a notion only says how a defender ruloid may answer an attacker's.  Both
work at the most-general-ruloid level, and hypothesis-target merging is
covered explicitly (merged pair variants for fh, alignment maps for hp),
so Holds is sound and Fails always bottoms out in a concretely unmatched
ruloid.

ci on open terms answers through that hierarchy first (fh ⊆ hp ⊆ ci): an
fh or hp Holds is a ci Holds carrying its certificate under "via".  Only
when neither holds does ci sweep closing substitutions, which can refute
but never prove.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

from .terms import (
    Term,
    Var,
    _gc_paused,
    apply_subst,
    canonical_names,
    enumerate_closed_terms,
    is_closed,
    term_size,
    var_order,
    vars_of,
)
from .tss import Tss
from .ruloids import Hyp, Ruloid, _group_hyps, explore, ruloids

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """A three-valued answer.  Frozen, since a TSS keeps its strong verdicts
    and hands the same object to every caller that asks again."""

    kind: str
    reason: str = ""
    certificate: object = None
    witness: object = None
    vacuous: bool = False

    @property
    def holds(self) -> bool:
        return self.kind == HOLDS

    @property
    def fails(self) -> bool:
        return self.kind == FAILS

    @property
    def inconclusive(self) -> bool:
        return self.kind == INCONCLUSIVE

    def to_json(self) -> dict:
        out: dict = {"verdict": self.kind}
        if self.reason:
            out["reason"] = self.reason
        if self.vacuous:
            out["vacuous"] = True
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class Bounds:
    term_size: int = 3
    depth: int = 12
    state_cap: int = 10_000
    pair_cap: int = 5_000

    def __post_init__(self):
        for name, value in vars(self).items():
            if type(value) is not int or value <= 0:
                raise ValueError("bound %s must be a positive integer, got %r"
                                 % (name, value))


def _identity() -> Verdict:
    """The verdict on identical terms: the identity relation is a
    bisimulation for every notion here."""
    return Verdict(HOLDS, "identical terms", certificate={"relation": "identity"})


# ---------------------------------------------------------------------------
# strong bisimilarity on closed terms


def _refine(succ, rounds: int, p: int, q: int) -> list[list[int]]:
    """Naive partition refinement in worklist form: every level k of the
    partition (the k-step bisimilarity classes, as a block number per
    state) from level 0 up to the coarsest stable partition, to level
    `rounds` or to the first level that splits states p and q if earlier.

    Rounds are synchronous, so each level is exactly the k-step partition.
    A state's signature (its labels and successor blocks) is recomputed only
    when a successor changed block in the previous round, and a round looks
    only at those re-signed states: the others in their block still share
    the block's signature and keep its number.  A block whose members were
    all re-signed keeps its number for its largest part.
    """
    n = len(succ)
    preds: list[list[int]] = [[] for _ in range(n)]
    for i, out in enumerate(succ):
        for (_, j) in out:
            preds[j].append(i)
    block = [0] * n
    size = [n]  # states per block
    shared: list = [None]  # per block: the signature of its unchanged states
    levels = [block[:]]
    sig = [frozenset([(l, 0) for (l, _) in out]) for out in succ]
    dirty = range(n)
    while len(levels) <= rounds:
        grouped: dict[int, dict[frozenset, list[int]]] = {}
        for i in dirty:
            grouped.setdefault(block[i], {}).setdefault(sig[i], []).append(i)
        moved: list[int] = []
        for b, parts in grouped.items():
            if sum(map(len, parts.values())) < size[b]:
                parts.pop(shared[b], None)
                split = list(parts.values())
            else:
                split = sorted(parts.values(), key=len, reverse=True)
                shared[b] = sig[split[0][0]]
                del split[0]
            for part in split:
                new = len(size)
                size.append(len(part))
                shared.append(sig[part[0]])
                size[b] -= len(part)
                for i in part:
                    block[i] = new
                moved.extend(part)
        if not moved:
            break
        levels.append(block[:])
        if block[p] != block[q]:
            break
        dirty = {i for j in moved for i in preds[j]}
        for i in dirty:
            sig[i] = frozenset([(l, block[j]) for (l, j) in succ[i]])
    return levels


def _distinguish(p: int, q: int, levels, states, succ) -> dict:
    """A witness that states p and q are not bisimilar.

    At the first level k that splits a pair, the attacker takes the first
    edge in (label, printed target) order whose class at level k - 1 no
    same-label answer reaches, and every answer, in printed order, is split
    again below k.  Only the states the witness visits have their edges
    ordered, so only their successors are printed.  Classes are only
    compared for equality, so the witness does not depend on how blocks
    are numbered.  Levels only refine, so k is found by bisection; the tree
    is built from a stack, not by recursion.
    """
    def printed(e):
        return (e[0], str(states[e[1]]))

    root: dict = {}
    todo = [(root, p, q, len(levels) - 1)]  # a pair and a level splitting it
    while todo:
        node, p, q, k = todo.pop()
        k = bisect_left(range(k), True, 1,
                        key=lambda i: levels[i][p] != levels[i][q])
        prev = levels[k - 1]
        for side, a, b in (("left", p, q), ("right", q, p)):
            answers = {(l, prev[s]) for (l, s) in succ[b]}
            move = min(((l, s) for (l, s) in succ[a]
                        if (l, prev[s]) not in answers), key=printed,
                       default=None)
            if move:
                break
        else:
            raise AssertionError("states separated without a distinguishing move")
        l, a2 = move
        ends = sorted(((l2, b2) for (l2, b2) in succ[b] if l2 == l),
                      key=printed)
        responses = [{"to": str(states[b2]), "then": {}} for (_, b2) in ends]
        todo.extend((r["then"], a2, b2, k - 1)
                    for r, (_, b2) in zip(responses, ends))
        node.update({"side": side, "label": l, "move": str(states[a2]),
                     "from": str(states[a]), "responses": responses})
    return root


@_gc_paused
def strong_bisim(p: Term, q: Term, tss: Tss,
                 bounds: Bounds = Bounds()) -> Verdict:
    """Strong bisimilarity of two closed terms, by partition refinement of
    the explored part of their LTSs, decided up to min(depth, horizon)
    steps.

    When both LTSs close within the caps the answer is exact: Holds with
    the partition of all states as certificate, or Fails with a witness
    built from the k-step partitions.  When a cap truncates an LTS,
    `explore` records its horizon, the distance of the state it cut short,
    and keeps the edges of the states it expanded in full, which include
    every state nearer the root.  So every level of the refinement up to
    `depth` and the horizons is exact for the roots: a split there is a
    definitive Fails, and otherwise the verdict is inconclusive and names
    the cap.

    The TSS keeps each verdict, keyed by the pair and the two bounds read
    here (`depth` and `state_cap`), so asking again, or asking ci of the
    same closed pair, returns the stored verdict.
    """
    table = tss._memo.setdefault("strong", {})
    key = (p, q, bounds.depth, bounds.state_cap)
    v = table.get(key)
    if v is None:
        v = table[key] = _strong(p, q, tss, bounds)
    return v


def _strong(p: Term, q: Term, tss: Tss, bounds: Bounds) -> Verdict:
    """`strong_bisim` without its table."""
    if p == q:
        return _identity()
    open_sides = [str(side) for side in (p, q) if not is_closed(side)]
    if open_sides:
        raise ValueError("strong bisimilarity needs closed terms, got %s"
                         % " and ".join(open_sides))
    lp = explore(p, tss, bounds.state_cap)
    lq = explore(q, tss, bounds.state_cap)
    # number the states once, p's first; a state both sides expanded has the
    # same moves on both, and a state neither expanded has none
    number: dict[Term, int] = {}
    for s in lp.states + lq.states:
        number.setdefault(s, len(number))
    states = list(number)
    succ = [[(l, number[t]) for (l, t) in lp.succ.get(s) or lq.succ.get(s, ())]
            for s in states]
    qi = number[q]
    cap = lp.cap or lq.cap
    cuts = [lts.horizon for lts in (lp, lq) if lts.cap]
    # without a cut, refinement is stable within n rounds
    reach = min(bounds.depth, *cuts) if cuts else len(states)
    levels = _refine(succ, reach, 0, qi)
    block = levels[-1]
    if block[0] == block[qi]:
        if cap:
            return Verdict(INCONCLUSIVE, "%s exceeded; %d-step bisimilar"
                           % (cap, reach))
        classes: dict[int, list[str]] = {}
        for s, b in zip(states, block):
            classes.setdefault(b, []).append(str(s))
        cert = {"partition": sorted(sorted(c) for c in classes.values())}
        return Verdict(HOLDS, "partition refinement", certificate=cert)
    reason = ("distinguished within depth bound" if cap
              else "distinguished by partition refinement")
    return Verdict(FAILS, reason,
                   witness=_distinguish(0, qi, levels, states, succ))


# ---------------------------------------------------------------------------
# closed-instance bisimilarity


@_gc_paused
def ci_bisim(s: Term, t: Term, tss: Tss, bounds: Bounds = Bounds()) -> Verdict:
    """Closed-instance bisimilarity.

    Closed pairs are strong bisimilarity.  On open terms, with closing
    substitutions to try, fh and then hp are asked at the same bounds: the
    first Holds proves ci (fh ⊆ hp ⊆ ci on open terms) and is returned
    with certificate {"via": notion, **that verdict's certificate}.  An fh
    or hp Fails says nothing about ci, so otherwise every closing
    substitution with images up to the term size bound is swept.  Fails
    is definitive; a clean sweep is reported as "no counterexample up to
    bound", never as a definitive Holds.
    """
    if s == t:
        return _identity()
    if is_closed(s) and is_closed(t):
        return strong_bisim(s, t, tss, bounds)
    if not tss.all_signature.constants():
        return Verdict(
            HOLDS, "no constants in signature: no closing substitutions exist",
            vacuous=True,
        )
    for notion, game in (("fh", fh_bisim), ("hp", hp_bisim)):
        v = game(s, t, tss, bounds)
        if v.holds:
            return Verdict(HOLDS, "%s-bisimilar, which implies ci" % notion,
                           certificate={"via": notion, **v.certificate})
    return _ci_sweep(s, t, tss, bounds)


def _ci_sweep(s: Term, t: Term, tss: Tss, bounds: Bounds) -> Verdict:
    """Sweep every closing substitution with images up to the term size
    bound.  Fails is definitive; a clean sweep is inconclusive."""
    names = sorted(vars_of(s) | vars_of(t))
    pool = list(enumerate_closed_terms(tss.all_signature, bounds.term_size))
    count = 0
    for images in itertools.product(pool, repeat=len(names)):
        sigma = dict(zip(names, images))
        p, q = apply_subst(sigma, s), apply_subst(sigma, t)
        inner = _strong(p, q, tss, bounds)  # kept out of the verdict table
        count += 1
        if inner.fails:
            witness = {
                "sigma": {x: str(v) for x, v in sorted(sigma.items())},
                "instance": [str(p), str(q)],
                "distinguisher": inner.witness,
            }
            return Verdict(FAILS, "closing substitution distinguishes",
                           witness=witness)
    return Verdict(
        INCONCLUSIVE,
        "no counterexample up to bound (term size %d, %d substitutions)"
        % (bounds.term_size, count),
    )


# ---------------------------------------------------------------------------
# fh / hp games


EMPTY: frozenset[Hyp] = frozenset()


def _is_proper(state) -> bool:
    s, t, _ = state
    return s == t or not (isinstance(s, Var) or isinstance(t, Var))


def _rename(names: dict[str, str], t: Term) -> Term:
    return apply_subst({x: Var(y) for x, y in names.items()}, t)


def _canon_state(s: Term, t: Term, gamma: frozenset[Hyp]
                 ) -> tuple[Term, Term, frozenset[Hyp]]:
    order = list(dict.fromkeys(var_order(s) + var_order(t)))
    known = {x: i for i, x in enumerate(order)}
    big = 1 << 30

    def hyp_key(h: Hyp):
        return (min(known.get(h.source, big), known.get(h.target, big)),
                known.get(h.source, big), h.label,
                known.get(h.target, big), h.source, h.target)

    for h in sorted(gamma, key=hyp_key):
        for name in (h.source, h.target):
            if name not in order:
                order.append(name)
    names = canonical_names(len(order))
    if names == order:
        return s, t, gamma
    ren = dict(zip(order, names))
    new_gamma = frozenset(
        Hyp(ren[h.source], h.label, ren[h.target]) for h in gamma
    )
    return _rename(ren, s), _rename(ren, t), new_gamma


def _state_key_str(state) -> tuple[str, str, tuple[str, ...]]:
    s, t, gamma = state
    return (str(s), str(t),
            tuple(sorted(str(h) for h in gamma)))


def _norm_state(s: Term, t: Term, gamma: frozenset[Hyp]):
    """The canonical form of a state, the same for (s, t) and (t, s), and
    its `_state_key_str`, by which the two orientations were compared."""
    a = _canon_state(s, t, gamma)
    b = _canon_state(t, s, gamma)
    ka, kb = _state_key_str(a), _state_key_str(b)
    return (b, kb) if kb < ka else (a, ka)


def _gc(s: Term, t: Term, gamma: frozenset[Hyp]) -> frozenset[Hyp]:
    live = vars_of(s) | vars_of(t)
    return frozenset(h for h in gamma if h.source in live or h.target in live)


def _merge_maps(r: Ruloid, gamma: frozenset[Hyp]):
    """Alignment maps for an attacker ruloid's fresh hypothesis targets.

    Each target may stay fresh, merge with an earlier same-shaped fresh
    target, or align with the target of a same-shaped hypothesis in gamma.
    """
    hyps = r.hyps_sorted()
    choice_lists = []
    for i, h in enumerate(hyps):
        choices = [h.target]
        for prev in hyps[:i]:
            if (prev.source, prev.label) == (h.source, h.label):
                choices.append(prev.target)
        for g in sorted(gamma, key=str):
            if (g.source, g.label) == (h.source, h.label) and g.target != h.source:
                choices.append(g.target)
        choice_lists.append(choices)
    seen = set()
    for combo in itertools.product(*choice_lists):
        mapping = {h.target: tgt for h, tgt in zip(hyps, combo)}
        # resolve chains from merging onto earlier fresh targets
        def resolve(x: str) -> str:
            while mapping.get(x, x) != x:
                x = mapping[x]
            return x
        flat = tuple(sorted((k, resolve(k)) for k in mapping))
        if flat in seen:
            continue
        seen.add(flat)
        yield {k: resolve(k) for k in mapping}


def _embeddings(cand: Ruloid, groups):
    """Injective maps of cand's hypotheses onto same-shaped hypotheses of
    gamma, given as `_group_hyps(gamma)`: the callers group one gamma once
    for all its responses, and each response groups its own hypotheses
    once (`Ruloid.hyp_groups`)."""
    per_group = []
    for k, need in cand.hyp_groups():
        pool = groups.get(k, [])
        if len(pool) < len(need):
            return
        per_group.append([
            list(zip((h.target for h in need), (g.target for g in pick)))
            for pick in itertools.permutations(pool, len(need))
        ])
    for combo in itertools.product(*per_group):
        mapping: dict[str, str] = {}
        for pairs in combo:
            for a, b in pairs:
                mapping[a] = b
        yield mapping


class _Game:
    """Shared safety-game core, built breadth-first from one queue and solved
    on the fly.  The search ends when the root is lost, the queue is empty
    or the pair cap fires.

    A state is lost when some obligation has only lost options (an
    obligation with no options at all is an unmatched ruloid) or, in the
    proper variants, when its pair is improper.  Lost is a least fixpoint,
    so Fails verdicts are definitive even under the pair cap.  Each
    obligation counts its options not yet lost and each state lists the
    obligations waiting on it, so a loss spreads once along those lists
    (Liu and Smolka's linear-time fixpoint scheme).

    A cap is an option that never loses.  Where the size or hypothesis cap
    refuses a derivative state, or an attacker or response ruloid, the
    obligation lists the cap's name in place of the states refused, so
    the cap blocks Holds without forcing Fails.  The root is built
    whatever its size.

    A state's obligations do not depend on `proper` or the pair cap, so they
    are built once per TSS, notion and caps (`build`): the fh, pfh and ci's
    fh games share one table, and hp, php and ci's hp step another, both
    kept in the TSS's memo with the raw-to-normal-form table.  Only the
    states lost at the start differ.  An obligation is a pair (how,
    options): `options` the normal states that may answer it, least by
    `_state_key_str` first, then the names of the caps that refused
    others, and `how` the objects `render` turns into its description when
    a witness is written.  Each notion supplies `answers`, `render`,
    `describe` and `certificate`.
    """

    SIZE_CAP = 24  # per-side operator-node budget for explored derivatives
    HYP_CAP = 4  # merge maps and embeddings are exponential in hyp count

    def __init__(self, tss: Tss, pair_cap: int, proper: bool):
        self.tss = tss
        self.pair_cap = pair_cap
        self.proper = proper
        # raw state -> its normal form, shared by every game on this TSS
        self.norms: dict = tss._memo.setdefault("normal-forms", {})
        # option -> its sort key, also per TSS: 0 and a normal state's
        # `_state_key_str`, kept when `norm` makes the state, or 1 and the
        # name of a cap, so that caps sort after every state
        self.keys: dict = tss._memo.setdefault(
            "option-keys", {cap: (1, cap) for cap in ("size", "hypothesis")})
        self.key = self.keys.__getitem__
        # normal state -> its obligations, shared by the plain and proper
        # game of this notion; the caps in the key keep a table from
        # answering for another budget
        self.table: dict = tss._memo.setdefault(
            ("obligations", type(self), self.SIZE_CAP, self.HYP_CAP), {})

    def norm(self, s: Term, t: Term, gamma: frozenset[Hyp]):
        raw = (s, t, gamma)
        state = self.norms.get(raw)
        if state is None:
            state, key = _norm_state(s, t, gamma)
            self.norms[raw] = state
            self.keys[state] = (0, *key)
        return state

    def over(self, size: int, hyps: int) -> str | None:
        """The cap that a state or ruloid of `size` operator nodes (on its
        larger side) and `hyps` hypotheses is over, if any."""
        if size > self.SIZE_CAP:
            return "size"
        if hyps > self.HYP_CAP:
            return "hypothesis"
        return None

    def option(self, s: Term, t: Term, gamma: frozenset[Hyp]):
        """A derivative state as an option: the name of the cap it is over,
        else its normal form.  Merge maps and embeddings are combinatorial
        in the accumulated hypotheses, so gamma has a cap of its own."""
        return (self.over(max(term_size(s), term_size(t)), len(gamma))
                or self.norm(s, t, gamma))

    def build(self, key) -> tuple:
        """The obligations of state `key`, made once per TSS."""
        if key not in self.table:
            self.table[key] = tuple(self.obligations(key))
        return self.table[key]

    def obligations(self, key) -> list:
        """One obligation per attacker ruloid of either side, or the
        notion's `answers` to it.  An attacker ruloid over a cap, or else
        one with a response over a cap, is one obligation whose options are
        those caps' names."""
        s, t, gamma = key
        obligations = []
        for a, b in ((s, t), (t, s)):
            for r in ruloids(a, self.tss):
                responses = [r2 for r2 in ruloids(b, self.tss)
                             if r2.label == r.label]
                cap = self.over(term_size(r.target), len(r.hyps))
                caps = {cap} if cap else {
                    self.over(term_size(r2.target), len(r2.hyps))
                    for r2 in responses} - {None}
                if caps:
                    obligations.append((None, tuple(sorted(caps))))
                else:
                    obligations += self.answers(gamma, a, b, r, responses)
        return obligations

    def run(self, s: Term, t: Term) -> Verdict:
        if s == t:
            return _identity()
        root = self.norm(s, t, EMPTY)
        queue = [root]  # every state queued, in breadth-first order
        seen = {root}
        lost: dict = {}  # state -> the (how, options) obligation that lost it
        waiting: dict = {}  # state -> [[live options, owner, obligation], ...]
        capped: set[str] = set()  # the caps met: "pair", "size", "hypothesis"
        for built, key in enumerate(queue):
            if root in lost:
                break
            if built >= self.pair_cap:
                capped.add("pair")
                break
            obs = [[len(o[1]), key, o] for o in self.build(key)]
            for ob in obs:
                for opt in ob[2][1]:
                    if opt in lost:
                        ob[0] -= 1
                    elif isinstance(opt, str):  # a cap: never built or lost
                        capped.add(opt)
                    else:
                        waiting.setdefault(opt, []).append(ob)
                        if opt not in seen:
                            seen.add(opt)
                            queue.append(opt)
            dead = [ob[2] for ob in obs if not ob[0]]
            if self.proper and not _is_proper(key):
                dead.insert(0, (None, None))  # an improper pair
            if not dead:
                continue
            lost[key] = dead[0]
            spread = [key]
            for k in spread:
                for ob in waiting.pop(k, ()):
                    ob[0] -= 1
                    if not ob[0] and ob[1] not in lost:
                        lost[ob[1]] = ob[2]
                        spread.append(ob[1])
        if root in lost:
            return Verdict(FAILS, "unmatched ruloid",
                           witness=self._witness(root, lost))
        if not capped:  # so every state seen was built
            good = self.certificate([k for k in seen if k not in lost])
            return Verdict(HOLDS, "relation closed", certificate=good)
        caps = {"pair": "pair cap %d" % self.pair_cap,
                "size": "size cap %d" % self.SIZE_CAP,
                "hypothesis": "hypothesis cap %d" % self.HYP_CAP}
        fired = " and ".join(text for name, text in caps.items()
                             if name in capped)
        return Verdict(INCONCLUSIVE, "%s reached without closure" % fired)

    def _witness(self, key, lost) -> dict:
        """The trace from `key` along the obligations that lost each state,
        each rendered here from the objects its entry keeps.  A losing
        obligation's options were all lost before it, so the trace ends."""
        trace = []
        while True:
            how, options = lost[key]
            step = {"state": self.describe(key),
                    "obligation": ({"improper": self.describe(key)}
                                   if options is None
                                   else self.render(key, how, options))}
            trace.append(step)
            if options is None:  # an improper pair
                break
            if not options:  # the unmatched ruloid
                step["unmatched"] = True
                break
            key = options[0]  # the least by `_state_key_str`
        return {"trace": trace}


class _FhGame(_Game):
    """Hypotheses match one to one, up to renaming their targets; the
    relation must also contain every variable-merging variant of a pair."""

    def answers(self, gamma, a, b, r, responses) -> list:
        groups = _group_hyps(r.hyps)
        options = {
            self.option(r.target, _rename(emb, r2.target), EMPTY)
            for r2 in responses if len(r2.hyps) == len(r.hyps)
            for emb in _embeddings(r2, groups)
        }
        return [((a, b, r), tuple(sorted(options, key=self.key)))]

    def obligations(self, key) -> list:
        s, t, _ = key
        obligations = super().obligations(key)
        # closed under merging each pair of variables is closed under every
        # merge, since a merge is a sequence of pairwise ones
        names = sorted(vars_of(s) | vars_of(t))
        variants = dict.fromkeys(
            self.option(_rename({y: x}, s), _rename({y: x}, t), EMPTY)
            for x, y in itertools.combinations(names, 2))
        for variant in sorted(variants, key=self.key):
            obligations.append((None, (variant,)))
        return obligations

    def render(self, key, how, options) -> dict:
        if how is None:  # the merged variant that is its one option
            return {"from": self.describe(key),
                    "merged-variant": self.describe(options[0])}
        a, b, r = how
        return {"from": [str(a), str(b)], "ruloid": str(r)}

    def describe(self, key):
        return [str(key[0]), str(key[1])]

    def certificate(self, good_keys):
        return {
            "pairs": sorted([str(s), str(t)] for (s, t, _) in good_keys),
            "discipline": "most-general ruloids with merged-variable variants",
        }


@_gc_paused
def fh_bisim(s: Term, t: Term, tss: Tss, bounds: Bounds = Bounds()) -> Verdict:
    return _FhGame(tss, bounds.pair_cap, False).run(s, t)


class _HpGame(_Game):
    """The attacker's fresh hypotheses are aligned into gamma first; the
    defender's must then embed into the accumulated hypotheses."""

    def answers(self, gamma, a, b, r, responses) -> list:
        obligations = []
        for mu in _merge_maps(r, gamma):
            merged = frozenset(
                Hyp(h.source, h.label, mu[h.target]) for h in r.hyps
            )
            gamma2 = merged | gamma
            groups = _group_hyps(gamma2)
            a2 = _rename(mu, r.target)
            options = set()
            for r2 in responses:
                for emb in _embeddings(r2, groups):
                    b2 = _rename(emb, r2.target)
                    options.add(self.option(a2, b2, _gc(a2, b2, gamma2)))
            obligations.append(((a, b, r, merged),
                                tuple(sorted(options, key=self.key))))
        return obligations

    def render(self, key, how, options) -> dict:
        a, b, r, merged = how
        return {
            "from": [str(a), str(b)],
            "ruloid": str(r),
            "aligned-gamma": sorted(str(h) for h in merged),
            "accumulated": sorted(str(h) for h in merged | key[2]),
        }

    def describe(self, key):
        s, t, gamma = key
        return {"pair": [str(s), str(t)],
                "gamma": sorted(str(h) for h in gamma)}

    def certificate(self, good_keys):
        return {
            "states": sorted((self.describe(k) for k in good_keys),
                             key=lambda d: (d["pair"], d["gamma"])),
            "discipline": ("most-general ruloids padded with the accumulated "
                           "hypothesis set; dead hypotheses garbage-collected"),
        }


@_gc_paused
def hp_bisim(s: Term, t: Term, tss: Tss, bounds: Bounds = Bounds()) -> Verdict:
    return _HpGame(tss, bounds.pair_cap, False).run(s, t)


@_gc_paused
def pfh_bisim(s: Term, t: Term, tss: Tss, bounds: Bounds = Bounds()) -> Verdict:
    return _FhGame(tss, bounds.pair_cap, True).run(s, t)


@_gc_paused
def php_bisim(s: Term, t: Term, tss: Tss, bounds: Bounds = Bounds()) -> Verdict:
    return _HpGame(tss, bounds.pair_cap, True).run(s, t)


NOTIONS = ("strong", "ci", "fh", "hp", "pfh", "php")


def check(notion: str, s: Term, t: Term, tss: Tss,
          bounds: Bounds = Bounds()) -> Verdict:
    if notion == "strong":
        return strong_bisim(s, t, tss, bounds)
    if notion == "ci":
        return ci_bisim(s, t, tss, bounds)
    if notion == "fh":
        return fh_bisim(s, t, tss, bounds)
    if notion == "hp":
        return hp_bisim(s, t, tss, bounds)
    if notion == "pfh":
        return pfh_bisim(s, t, tss, bounds)
    if notion == "php":
        return php_bisim(s, t, tss, bounds)
    raise ValueError("unknown notion %r" % notion)
