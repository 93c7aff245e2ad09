"""Derivation of most-general provable ruloids, and closed-term transitions.

The two routes are deliberately independent: `ruloids` synthesises open-term
inference rules by structural recursion, while `transitions` derives closed
transitions directly from the deduction rules.  Tests cross-check them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .terms import (
    App,
    Subst,
    Term,
    Var,
    apply_subst,
    canonical_names,
    is_closed,
    term_size,
    var_order,
    vars_of,
)
from .tss import Tss


@dataclass(frozen=True)
class Hyp:
    """A hypothesis: a variable-to-variable labelled transition."""

    source: str
    label: str
    target: str

    def __str__(self) -> str:
        return "%s -%s-> %s" % (self.source, self.label, self.target)


@dataclass(frozen=True)
class Ruloid:
    hyps: frozenset[Hyp]
    source: Term
    label: str
    target: Term

    def hyps_sorted(self) -> tuple[Hyp, ...]:
        return tuple(sorted(self.hyps, key=lambda h: (h.target, h.source, h.label)))

    def hyp_groups(self) -> tuple[tuple[tuple[str, str], tuple[Hyp, ...]], ...]:
        """The items of `_group_hyps(self.hyps)`, grouped on the first call
        and kept on the ruloid, outside its fields: ruloids are memoised
        per TSS, and the games embed the same ones again and again."""
        groups = self.__dict__.get("_hyp_groups")
        if groups is None:
            groups = tuple((k, tuple(hs))
                           for k, hs in _group_hyps(self.hyps).items())
            object.__setattr__(self, "_hyp_groups", groups)
        return groups

    def __str__(self) -> str:
        prem = ", ".join(str(h) for h in self.hyps_sorted())
        return "%s|- %s -%s-> %s" % (
            prem + " " if prem else "", self.source, self.label, self.target
        )


def _group_hyps(hyps) -> dict[tuple[str, str], list[Hyp]]:
    """Hypotheses by (source, label), in that order, each group sorted by
    target."""
    groups: dict[tuple[str, str], list[Hyp]] = {}
    for h in sorted(hyps, key=lambda h: (h.source, h.label, h.target)):
        groups.setdefault((h.source, h.label), []).append(h)
    return groups


def _synthesize(t: Term, tss: Tss) -> tuple[Ruloid, ...]:
    if isinstance(t, Var):
        (h,) = canonical_names(1, frozenset([t.name]), prefix="h")
        return tuple(Ruloid(frozenset([Hyp(t.name, label, h)]), t, label,
                            Var(h)) for label in tss.all_labels)

    sub_ruloids = [ruloids(a, tss) for a in t.args]
    occ = {name: i for i, name in enumerate(var_order(t))}
    avoid = vars_of(t)
    results: list[Ruloid] = []
    for shape in tss.shape_table().get(t.op, ()):
        # per premise: the candidate sub-ruloids of the bound argument term
        choice_lists = [[r for r in sub_ruloids[idx] if r.label == plabel]
                        for (idx, plabel, _) in shape.premises]
        for combo in itertools.product(*choice_lists):
            # each hypothesis of each chosen sub-ruloid is named once, h0,
            # h1, ... avoiding t's variables, in the order of its source
            # variable's first occurrence in t, then its label, then premise
            # order and its place in the sub-ruloid's `hyps_sorted`; a
            # sub-ruloid chosen twice gets distinct names each time
            found = sorted(((occ[h.source], h.label, i, j, h)
                            for i, chosen in enumerate(combo)
                            for j, h in enumerate(chosen.hyps_sorted())),
                           key=lambda f: f[:4])
            names = canonical_names(len(found), avoid, prefix="h")
            hyps = []
            ren: list[dict[str, Term]] = [{} for _ in combo]
            for (_, _, i, _, h), name in zip(found, names):
                hyps.append(Hyp(h.source, h.label, name))
                ren[i][h.target] = Var(name)
            binding: dict[str, Term] = dict(zip(shape.source_vars, t.args))
            for (_, _, ptarget), chosen, sigma in zip(shape.premises, combo,
                                                      ren):
                binding[ptarget] = apply_subst(sigma, chosen.target)
            results.append(Ruloid(frozenset(hyps), t, shape.label,
                                  apply_subst(binding, shape.target)))
    # deterministic order, duplicates removed; targets beyond the state size
    # cap are never printed (their relative order is irrelevant: every
    # consumer prunes them)
    uniq: dict[Ruloid, None] = {}
    for r in results:
        uniq.setdefault(r, None)

    def ruloid_key(r: Ruloid):
        s = term_size(r.target)
        return (r.label, s, str(r.target) if s <= STATE_SIZE_CAP else "",
                tuple(str(h) for h in r.hyps_sorted()))

    return tuple(sorted(uniq, key=ruloid_key))


def ruloids(t: Term, tss: Tss) -> tuple[Ruloid, ...]:
    """The most-general provable ruloids with conclusion source t."""
    cache = tss._memo.setdefault("ruloids", {})
    if t not in cache:
        cache[t] = _synthesize(t, tss)
    return cache[t]


def transitions(p: Term, tss: Tss) -> tuple[tuple[str, Term], ...]:
    """All derivable transitions of a closed term, computed directly.

    They come without duplicates in derivation order: the defining rules of
    p's operator in declaration order, and for each rule the premise
    choices in argument order, each premise taking its argument's moves in
    their own derivation order.  No set of terms is iterated, so the order
    is the same in every process.
    """
    if not is_closed(p):
        raise ValueError("transitions requires a closed term, got %s" % p)
    return _transitions(p, tss.shape_table(),
                        tss._memo.setdefault("transitions", {}))


def _transitions(p: App, shapes: dict, cache: dict
                 ) -> tuple[tuple[str, Term], ...]:
    """`transitions` of the closed term p, kept in `cache`.  A rule with a
    premise that has no move derives nothing, so its later premises are not
    asked.  Each argument's moves are grouped by label once, when a premise
    first reads them, and the groups are dropped with the derivation."""
    moves = cache.get(p)
    if moves is not None:
        return moves
    args = p.args
    by_label: dict[Term, dict[str, list[Term]]] = {}
    result: dict[tuple[str, Term], None] = {}
    for shape in shapes.get(p.op, ()):
        choices = []
        for (idx, plabel, _) in shape.premises:
            a = args[idx]
            groups = by_label.get(a)
            if groups is None:
                groups = by_label[a] = {}
                for (l, q) in cache.get(a) or _transitions(a, shapes, cache):
                    groups.setdefault(l, []).append(q)
            succ = groups.get(plabel)
            if not succ:
                break
            choices.append(succ)
        else:
            env = dict(zip(shape.source_vars, args))
            label, target = shape.label, shape.target
            if len(choices) == 1:  # one premise: its moves, no product
                y = shape.premises[0][2]
                for q in choices[0]:
                    env[y] = q
                    result.setdefault((label, apply_subst(env, target)))
            else:
                for chosen in itertools.product(*choices):
                    for (_, _, y), q in zip(shape.premises, chosen):
                        env[y] = q
                    result.setdefault((label, apply_subst(env, target)))
    moves = cache[p] = tuple(result)
    return moves


def initial_actions(p: Term, tss: Tss) -> frozenset[str]:
    return frozenset(l for (l, _) in transitions(p, tss))


@dataclass(frozen=True)
class Lts:
    """A reachable LTS, a view of the TSS's memo of closed transitions.

    `states` holds the reached states in breadth-first order, the root
    first.  `succ` maps each fully expanded state to the very tuple
    `transitions(s, tss)` returns, (label, target) pairs in derivation
    order: nothing is copied or numbered, so a state is derived once per
    TSS however often it is explored.  `cap` names the bound that refused
    a state, None when the LTS is complete.  A truncated LTS keeps only
    full expansions: `succ` leaves out the state whose expansion the cap
    cut short and every later one, `states` holds the states their moves
    reach, and `horizon` is the cut state's distance from the root.  The
    walk is breadth-first, so every state nearer the root than the horizon
    is expanded.
    """

    states: tuple[Term, ...]
    succ: dict[Term, tuple[tuple[str, Term], ...]]
    cap: str | None = None
    horizon: int | None = None

    @property
    def complete(self) -> bool:
        return self.cap is None

    @property
    def transitions(self) -> frozenset[tuple[Term, str, Term]]:
        return frozenset((s, l, q) for s, moves in self.succ.items()
                         for (l, q) in moves)


STATE_SIZE_CAP = 1000  # derivatives can outgrow any state cap on copying rules
STATE_DEPTH_CAP = 120  # keeps recursive traversals well inside stack limits


def explore(p: Term, tss: Tss, state_cap: int = 10_000) -> Lts:
    """The LTS reachable from the closed term p, explored breadth-first,
    each state's successors met in `transitions` order.

    Exploration stops at the first new state that a bound refuses: the
    state cap (the number of states), `STATE_SIZE_CAP` (operator nodes of
    one state) or `STATE_DEPTH_CAP` (its nesting depth).  The result then
    names that bound in `cap`, leaves the state being expanded out of
    `succ`, drops the states only its moves reached, and records that
    state's distance as `horizon`; otherwise it is complete.  A truncated
    LTS is incomplete whichever state is refused first, so stopping there
    loses nothing a caller could decide from it.
    """
    transitions(p, tss)  # refuses an open p, or a TSS outside the format
    shapes, cache = tss.shape_table(), tss._memo["transitions"]
    seen = {p}
    states = [p]
    succ: dict[Term, tuple[tuple[str, Term], ...]] = {}
    level, level_end = 0, 1  # state i's distance; the next level's first state
    for i, s in enumerate(states):  # grows while walked: a breadth-first queue
        if i == level_end:
            level, level_end = level + 1, len(states)
        known = len(states)  # the states reached before s is expanded
        moves = cache.get(s) or _transitions(s, shapes, cache)
        for (_, q) in moves:
            if q not in seen:
                cap = None
                if len(states) >= state_cap:
                    cap = "state cap %d" % state_cap
                elif q.size > STATE_SIZE_CAP:
                    cap = "state size cap %d" % STATE_SIZE_CAP
                elif q.depth > STATE_DEPTH_CAP:
                    cap = "state depth cap %d" % STATE_DEPTH_CAP
                if cap:
                    return Lts(tuple(states[:known]), succ, cap, level)
                seen.add(q)
                states.append(q)
        succ[s] = moves
    return Lts(tuple(states), succ)


def instantiations(r: Ruloid, sigma: Subst, tss: Tss
                   ) -> tuple[tuple[str, Term], ...]:
    """All closed conclusion instances of r under a closing substitution,
    without duplicates and in derivation order.

    Each hypothesis x -l-> h is discharged by any derivable transition of
    sigma(x) with label l, in `transitions` order; the targets extend sigma
    over the h variables.
    """
    src = apply_subst(sigma, r.source)
    if not is_closed(src):
        raise ValueError("substitution is not closing for %s" % r.source)
    hyps = r.hyps_sorted()
    choice_lists = []
    for h in hyps:
        source = sigma.get(h.source)
        if source is None or not is_closed(source):
            raise ValueError("substitution is not closing for %s" % r.source)
        succ = [q for (l, q) in transitions(source, tss) if l == h.label]
        if not succ:
            return ()
        choice_lists.append(succ)
    out: dict[tuple[str, Term], None] = {}
    for combo in itertools.product(*choice_lists):
        env = dict(sigma)
        for h, q in zip(hyps, combo):
            env[h.target] = q
        out.setdefault((r.label, apply_subst(env, r.target)))
    return tuple(out)


def instantiate_ruloid(r: Ruloid, sigma: Subst, tss: Tss
                       ) -> tuple[str, Term] | None:
    """One witnessed conclusion instance, or None if a hypothesis fails."""
    inst = instantiations(r, sigma, tss)
    return inst[0] if inst else None
