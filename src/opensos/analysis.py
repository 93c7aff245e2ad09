"""Static analyses over a TSS: rule format, extensions, fertility, robustness."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .terms import (
    Equation,
    Term,
    Var,
    enumerate_closed_terms,
    is_linear,
    vars_of,
)
from .tss import Tss, rule_head
from .ruloids import initial_actions, transitions


@dataclass(frozen=True)
class FormatReport:
    violations: tuple[tuple[str, str], ...]  # (rule name, explanation)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_positive_gsos(tss: Tss) -> FormatReport:
    return FormatReport(tss.format_violations)


class ArityConflictError(ValueError):
    pass


@dataclass(frozen=True)
class ExtensionReport:
    offending: tuple[str, ...]  # delta rules defining an old operator

    @property
    def disjoint(self) -> bool:
        return not self.offending


def _delta_layers(base: Tss, ext: Tss) -> tuple[Tss, ...]:
    """The layers `ext` adds to `base`: every layer of `ext` after it.  An
    `ext` that does not extend `base` is an error."""
    layers = tuple(ext.layers())
    if ext is base or base not in layers:
        raise ValueError("%s does not extend %s" % (ext.name, base.name))
    return layers[layers.index(base) + 1:]


def validate_disjoint_extension(base: Tss, ext: Tss) -> ExtensionReport:
    """Check that every delta rule is f-defining for a new operator.

    The delta is every layer from `base` (exclusive) up to `ext`
    (inclusive): their declarations together are the extension, whether
    `ext` extends `base` directly or through other layers.  An `ext` that
    does not extend `base`, or an arity conflict between layers, is a hard
    error.
    """
    delta = _delta_layers(base, ext)
    base_sig = sig = base.all_signature
    try:
        for layer in delta:
            sig = sig.merge(layer.signature)
    except Exception as exc:
        raise ArityConflictError(str(exc)) from exc
    new_ops = set(sig.names()) - set(base_sig.names())
    return ExtensionReport(tuple(
        rule.name for layer in delta for rule in layer.rules
        if rule_head(rule) not in new_ops))


def label_usage(tss: Tss) -> tuple[frozenset[str], frozenset[str]]:
    """(premise labels, conclusion labels) of the TSS's own rules."""
    prem: set[str] = set()
    concl: set[str] = set()
    for rule in tss.rules:
        concl.add(rule.conclusion.label)
        for p in rule.premises:
            prem.add(p.label)
    return frozenset(prem), frozenset(concl)


def adds_labels(base: Tss, ext: Tss) -> bool:
    """Whether a delta layer declares a label the base does not."""
    old = set(base.all_labels)
    return any(set(layer.labels) - old for layer in _delta_layers(base, ext))


@dataclass(frozen=True)
class NonEvolvingTable:
    indices: tuple[tuple[str, tuple[int, ...]], ...]  # per operator

    def of(self, op: str) -> frozenset[int]:
        for name, idxs in self.indices:
            if name == op:
                return frozenset(idxs)
        raise KeyError(op)


def non_evolving_indices(tss: Tss) -> NonEvolvingTable:
    """Per operator, the indices non-evolving for every defining rule.

    An index is non-evolving for a rule when neither the argument variable
    nor any of its premise targets occurs in the conclusion target.
    Operators with no defining rules get every index (vacuous intersection).
    """
    table = []
    for op, arity in sorted(tss.all_signature.operators):
        good = set(range(arity))
        for shape in tss.defining_shapes(op):
            tvars = vars_of(shape.target)
            for i in list(good):
                if shape.source_vars[i] in tvars:
                    good.discard(i)
                    continue
                for (idx, _, ptarget) in shape.premises:
                    if idx == i and ptarget in tvars:
                        good.discard(i)
                        break
        table.append((op, tuple(sorted(good))))
    return NonEvolvingTable(tuple(table))


class LabelGuardError(ValueError):
    pass


@dataclass(frozen=True)
class FertilityResult:
    witnesses: tuple[tuple[tuple[str, ...], Term], ...]  # realized subsets
    missing: tuple[tuple[str, ...], ...]
    bound: int

    @property
    def fertile(self) -> bool:
        return not self.missing


MAX_LABELS = 16  # fertility's label guard: 2 ** 16 subsets


def initial_fertility(tss: Tss, size_bound: int, *,
                      force: bool = False) -> FertilityResult:
    """Search closed terms of bounded size for one witness per label subset.

    A semi-decision: either Fertile with verified witnesses, or the subsets
    still unrealized at the bound.  Never answers "infertile".
    """
    labels = tss.all_labels
    if len(labels) > MAX_LABELS and not force:
        raise LabelGuardError(
            "%d labels means %d subsets; pass force to override"
            % (len(labels), 2 ** len(labels))
        )
    wanted = {
        frozenset(c)
        for n in range(len(labels) + 1)
        for c in itertools.combinations(labels, n)
    }
    witnesses: dict[frozenset[str], Term] = {}
    for p in enumerate_closed_terms(tss.all_signature, size_bound):
        acts = frozenset(initial_actions(p, tss))
        if acts in wanted and acts not in witnesses:
            witnesses[acts] = p
            if len(witnesses) == len(wanted):
                break
    missing = sorted(wanted - set(witnesses), key=lambda s: (len(s), sorted(s)))
    return FertilityResult(
        tuple(sorted(((tuple(sorted(k)), v) for k, v in witnesses.items()),
                     key=lambda e: (len(e[0]), e[0]))),
        tuple(tuple(sorted(m)) for m in missing),
        size_bound,
    )


def _open_argument_placement(t: Term, table: NonEvolvingTable
                             ) -> list[str]:
    """Violations of "open arguments sit at non-evolving indices"."""
    out: list[str] = []
    _place(t, table, out)
    return out


def _place(u: Term, table: NonEvolvingTable, out: list[str]) -> None:
    # a function of its own, not a closure over `out`: a closure that calls
    # itself is a reference cycle, which keeps it, `out` and the table alive
    # until the cyclic collector runs
    if isinstance(u, Var):
        return
    for i, a in enumerate(u.args):
        if vars_of(a) and i not in table.of(u.op):
            out.append(
                "open argument %s at evolving index %d of %s" % (a, i, u.op)
            )
        _place(a, table, out)


@dataclass(frozen=True)
class EquationCriteria:
    fertility: FertilityResult
    lhs_linear: bool
    rhs_linear: bool
    placement_violations: tuple[str, ...]

    @property
    def met(self) -> bool:
        return (self.fertility.fertile and self.lhs_linear and self.rhs_linear
                and not self.placement_violations)


def robust_equation_criteria(eq: Equation, tss: Tss, size_bound: int
                             ) -> EquationCriteria:
    """Side conditions under which a sound equation survives any disjoint
    positive GSOS extension: fertility, linearity, and non-evolving placement.
    Closed argument terms at evolving indices are permitted; only open
    arguments are constrained.

    Soundness of the equation itself is established separately.
    """
    fert = initial_fertility(tss, size_bound)
    table = non_evolving_indices(tss)
    violations: list[str] = []
    for side, t in (("lhs", eq.lhs), ("rhs", eq.rhs)):
        if isinstance(t, Var):
            violations.append("%s is a bare variable" % side)
        else:
            violations.extend("%s: %s" % (side, v)
                              for v in _open_argument_placement(t, table))
    return EquationCriteria(
        fert, is_linear(eq.lhs), is_linear(eq.rhs), tuple(violations)
    )


@dataclass(frozen=True)
class ExtensionCriteria:
    disjoint: bool
    offending_rules: tuple[str, ...]
    base_gsos_ok: bool
    improper_equations: tuple[str, ...]
    label_overlap: tuple[str, ...]

    @property
    def robust(self) -> bool:
        return (self.disjoint and self.base_gsos_ok
                and not self.improper_equations and not self.label_overlap)


def robust_extension_criteria(base: Tss, ext: Tss,
                              equations: tuple[Equation, ...]
                              ) -> ExtensionCriteria:
    """Syntactic criteria under which any sound proper theory stays sound:
    disjointness plus no delta conclusion label in the base's premises."""
    extrep = validate_disjoint_extension(base, ext)
    fmt = validate_positive_gsos(base)
    improper = tuple(
        eq.name or str(eq) for eq in equations if not eq.is_proper
    )
    base_prem = set()
    for layer in base.layers():
        base_prem |= label_usage(layer)[0]
    ext_concl = set()
    for layer in _delta_layers(base, ext):
        ext_concl |= label_usage(layer)[1]
    overlap = tuple(sorted(ext_concl & base_prem))
    return ExtensionCriteria(
        extrep.disjoint, extrep.offending, fmt.ok, improper, overlap
    )


def conservativity_probe(base: Tss, ext: Tss, size_bound: int
                         ) -> tuple[tuple[Term, str], ...]:
    """Closed base terms whose transition sets differ between the layers.

    Empty for every validated disjoint positive GSOS extension.
    """
    bad: list[tuple[Term, str]] = []
    for p in enumerate_closed_terms(base.all_signature, size_bound):
        old = set(transitions(p, base))
        new = set(transitions(p, ext))
        if old != new:
            bad.append((p, "transitions differ: %s vs %s"
                        % (sorted(map(str, old)), sorted(map(str, new)))))
    return tuple(bad)
