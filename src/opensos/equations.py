"""Equational theories: bounded proof search, soundness sweeps, preservation.

The preservation advisor evaluates, cheapest first, the guarantees the
notion has: robust extensions (label criteria, ci only), no-new-label
extensions (fh and hp), proper fh/hp certificates (every notion), and the
non-evolving-index criteria on the equations (ci only); it then re-checks
every axiom empirically on the extended TSS.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .terms import (
    App,
    Equation,
    SignatureError,
    Term,
    Var,
    _gc_paused,
    apply_subst,
    check_term,
    term_size,
    vars_of,
)
from .tss import Tss
from .analysis import (
    EquationCriteria,
    ExtensionCriteria,
    LabelGuardError,
    adds_labels,
    robust_equation_criteria,
    robust_extension_criteria,
    validate_disjoint_extension,
    validate_positive_gsos,
)
from .bisim import Bounds, Verdict, check

THEORY_CAVEAT = (
    "axiom-wise evidence; lifting to the congruence closure assumes the "
    "notion is a congruence for the TSS"
)


@dataclass(frozen=True)
class EquationalTheory:
    axioms: tuple[Equation, ...]
    over: Tss


# ---------------------------------------------------------------------------
# bounded proof search in the equational closure


def _subterm_positions(t: Term) -> list[tuple[tuple[int, ...], Term]]:
    out = [((), t)]
    if isinstance(t, App):
        for i, a in enumerate(t.args):
            out.extend(((i,) + pos, sub) for pos, sub in _subterm_positions(a))
    return out


def _replace(t: Term, pos: tuple[int, ...], new: Term) -> Term:
    if not pos:
        return new
    assert isinstance(t, App)
    i = pos[0]
    args = list(t.args)
    args[i] = _replace(args[i], pos[1:], new)
    return App(t.op, tuple(args))


def _match(pattern: Term, t: Term, binding: dict[str, Term]) -> bool:
    if isinstance(pattern, Var):
        if pattern.name in binding:
            return binding[pattern.name] == t
        binding[pattern.name] = t
        return True
    if not isinstance(t, App) or t.op != pattern.op:
        return False
    return all(_match(pa, ta, binding) for pa, ta in zip(pattern.args, t.args))


def _instantiation_pool(t: Term, theory: EquationalTheory,
                        inst_size: int) -> list[Term]:
    """Candidate images for rewrite variables unbound by matching."""
    pool: dict[Term, None] = {}
    for _, sub in _subterm_positions(t):
        if term_size(sub) <= inst_size:
            pool.setdefault(sub, None)
    for c in theory.over.all_signature.constants():
        pool.setdefault(App(c), None)
    return sorted(pool, key=lambda u: (term_size(u), str(u)))


def _rewrites(t: Term, theory: EquationalTheory, inst_size: int):
    """One-step rewrites of t: (result, axiom, direction, position)."""
    for eq in theory.axioms:
        for frm, to, direction in ((eq.lhs, eq.rhs, "lr"), (eq.rhs, eq.lhs, "rl")):
            for pos, sub in _subterm_positions(t):
                binding: dict[str, Term] = {}
                if not _match(frm, sub, binding):
                    continue
                free = sorted(vars_of(to) - set(binding))
                if not free:
                    yield (_replace(t, pos, apply_subst(binding, to)), eq,
                           direction, pos)
                    continue
                pool = _instantiation_pool(t, theory, inst_size)
                for images in itertools.product(pool, repeat=len(free)):
                    b2 = dict(binding)
                    b2.update(zip(free, images))
                    yield (_replace(t, pos, apply_subst(b2, to)), eq,
                           direction, pos)


@dataclass
class ProofResult:
    proved: bool
    steps: list[dict] = field(default_factory=list)
    reason: str = ""


_REVERSED = {"lr": "rl", "rl": "lr"}


@_gc_paused
def prove(theory: EquationalTheory, goal: Equation, depth: int = 6,
          inst_size: int = 3) -> ProofResult:
    """Bidirectional bounded rewrite search in the equational closure.

    Proved returns the derivation as a chain of rewrite steps from lhs to
    rhs.  Step i rewrites the term of step i - 1 (goal.lhs for the first)
    into its `term` by instantiating `axiom` at `position` (argument
    indices from the root): `direction` "lr" replaces an instance of the
    axiom's lhs by its rhs, "rl" the converse.  The last term is goal.rhs.
    Otherwise UnknownAtBound (the proof system is not complete).
    """
    if goal.lhs == goal.rhs:
        return ProofResult(True, [], "reflexivity")
    # term -> (origin side, previous term, axiom, direction, position)
    seen: dict = {
        goal.lhs: ("lhs", None, None, None, None),
        goal.rhs: ("rhs", None, None, None, None),
    }

    def path(term: Term) -> list[tuple]:
        """The rewrites from term's origin to term, in search order."""
        edges = []
        while seen[term][1] is not None:
            _, prev, eq, direction, pos = seen[term]
            edges.append((prev, term, eq, direction, pos))
            term = prev
        return edges[::-1]

    def step(term: Term, eq: Equation, direction: str, pos) -> dict:
        return {"term": str(term), "axiom": eq.name or str(eq),
                "direction": direction, "position": list(pos)}

    frontiers = {"lhs": [goal.lhs], "rhs": [goal.rhs]}
    for _ in range(depth):
        side = min(frontiers, key=lambda k: len(frontiers[k]))
        if not frontiers[side]:
            side = max(frontiers, key=lambda k: len(frontiers[k]))
        nxt = []
        for term in frontiers[side]:
            for new, eq, direction, pos in _rewrites(term, theory, inst_size):
                if new in seen:
                    if seen[new][0] != side:
                        meet = (term, new, eq, direction, pos)
                        if side == "lhs":
                            left, right = path(term) + [meet], path(new)
                        else:
                            left, right = path(new), path(term) + [meet]
                        # the rhs half runs backwards: undo each of its steps
                        steps = [step(b, ax, d, p) for (_, b, ax, d, p) in left]
                        steps += [step(a, ax, _REVERSED[d], p)
                                  for (a, _, ax, d, p) in reversed(right)]
                        return ProofResult(True, steps, "meet-in-the-middle")
                    continue
                seen[new] = (side, term, eq, direction, pos)
                nxt.append(new)
        frontiers[side] = nxt
        if not frontiers["lhs"] and not frontiers["rhs"]:
            break
    return ProofResult(False, [], "unknown at depth %d" % depth)


# ---------------------------------------------------------------------------
# soundness sweeps and the preservation advisor


def soundness_sweep(theory: EquationalTheory, notion: str,
                    bounds: Bounds = Bounds(),
                    tss: Tss | None = None) -> list[tuple[Equation, Verdict]]:
    """Run the notion's checker per axiom; theory-level soundness inherits
    the congruence caveat recorded in the report."""
    target = tss if tss is not None else theory.over
    out = []
    for eq in theory.axioms:
        v = check(notion, eq.lhs, eq.rhs, target, bounds)
        # a copy: the verdict may be one the TSS keeps for later callers
        reason = (v.reason + "; " if v.reason else "") + THEORY_CAVEAT
        out.append((eq, replace(v, reason=reason)))
    return out


GUARANTEED = "guaranteed-preserved"
EMPIRICAL = "empirically-preserved-at-bound"
BROKEN = "broken"

_PROPER_NOTION = {"fh": "pfh", "hp": "php", "ci": "pfh",
                  "pfh": "pfh", "php": "php"}


@dataclass
class AxiomReport:
    equation: Equation
    soundness_on_base: Verdict
    theorems: dict  # theorem name -> {"applies": bool, conjuncts...}
    recheck_on_extension: Verdict
    classification: str
    theorem: str | None
    contradiction: bool

    def to_json(self) -> dict:
        return {
            "equation": str(self.equation),
            "name": self.equation.name,
            "soundness_on_base": self.soundness_on_base.to_json(),
            "theorems": self.theorems,
            "recheck_on_extension": self.recheck_on_extension.to_json(),
            "classification": self.classification,
            "theorem": self.theorem,
            "contradiction": self.contradiction,
        }


@dataclass
class PreservationReport:
    notion: str
    extension_valid: bool
    axioms: list[AxiomReport]
    caveat: str = THEORY_CAVEAT

    def to_json(self) -> dict:
        return {
            "notion": self.notion,
            "extension_valid": self.extension_valid,
            "caveat": self.caveat,
            "axioms": [a.to_json() for a in self.axioms],
        }


def _extension_conjuncts(crit: ExtensionCriteria) -> dict:
    return {
        "disjoint": crit.disjoint,
        "base_positive_gsos": crit.base_gsos_ok,
        "improper_equations": list(crit.improper_equations),
        "conclusion-premise-label-overlap": list(crit.label_overlap),
    }


def _equation_conjuncts(crit: EquationCriteria) -> dict:
    return {
        "initially_fertile": crit.fertility.fertile,
        "unrealized_subsets": [list(m) for m in crit.fertility.missing],
        "lhs_linear": crit.lhs_linear,
        "rhs_linear": crit.rhs_linear,
        "placement_violations": list(crit.placement_violations),
    }


def _evidence(v: Verdict) -> str:
    """A verdict's kind, naming the notion a ci Holds was proved through."""
    via = (v.certificate or {}).get("via")
    return "%s via %s" % (v.kind, via) if via else v.kind


@_gc_paused
def preservation_advisor(theory: EquationalTheory, base: Tss, ext: Tss,
                         notion: str, bounds: Bounds = Bounds()
                         ) -> PreservationReport:
    """Every axiom's preservation report; an axiom over an operator the
    base does not declare is a ValueError naming both."""
    extrep = validate_disjoint_extension(base, ext)
    for eq in theory.axioms:
        for side in (eq.lhs, eq.rhs):
            try:
                check_term(side, base.all_signature)
            except SignatureError as exc:
                raise ValueError("equation %s is not over base %s: %s"
                                 % (eq.name or eq, base.name, exc)) from None
    fmt_ok = validate_positive_gsos(ext).ok
    valid = extrep.disjoint and fmt_ok
    new_labels = adds_labels(base, ext)
    reports = []
    for eq in theory.axioms:
        sound = check(notion, eq.lhs, eq.rhs, base, bounds)
        evidence = _evidence(sound)
        theorems: dict = {}

        if notion == "ci":
            crit4 = robust_extension_criteria(base, ext, (eq,))
            theorems["robust-extension-labels"] = {
                "applies": crit4.robust and sound.holds,
                "verdict_on_base": evidence,
                **_extension_conjuncts(crit4),
            }

        if notion in ("fh", "hp"):
            theorems["no-new-labels"] = {
                "applies": (not new_labels) and sound.holds and extrep.disjoint,
                "adds_labels": new_labels,
                "certificate_on_base": sound.kind,
            }

        proper_notion = _PROPER_NOTION[notion]
        pv = sound if proper_notion == notion else check(
            proper_notion, eq.lhs, eq.rhs, base, bounds)
        theorems["proper-%s-certificate" % proper_notion] = {
            "applies": pv.holds and extrep.disjoint,
            "verdict_on_base": pv.kind,
        }

        if notion == "ci":
            try:
                crit3 = robust_equation_criteria(eq, base, bounds.term_size)
            except LabelGuardError as exc:
                theorems["non-evolving-criteria"] = {
                    "applies": False, "verdict_on_base": evidence,
                    "label_guard": str(exc)}
            else:
                theorems["non-evolving-criteria"] = {
                    "applies": crit3.met and sound.holds,
                    "verdict_on_base": evidence,
                    **_equation_conjuncts(crit3),
                }

        # theorems was filled in priority order
        chosen = next(
            (name for name, th in theorems.items() if th["applies"]), None)
        recheck = check(notion, eq.lhs, eq.rhs, ext, bounds)
        if recheck.fails:
            classification = BROKEN
        elif chosen:
            classification = GUARANTEED
        else:
            classification = EMPIRICAL
        contradiction = bool(chosen) and recheck.fails
        reports.append(AxiomReport(
            eq, sound, theorems, recheck, classification,
            chosen if classification == GUARANTEED else None, contradiction,
        ))
    return PreservationReport(notion, valid, reports)
