"""Command-line front end binding the parser, analyses and checkers.

Each subcommand asks one question of a spec document; a corpus fixture
asks the question of the subcommand it names.  Exit codes: 0 holds/ok,
1 fails/criteria-not-met, 2 input error, 3 inconclusive-at-bound.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import analysis, equations, specio
from .bisim import Bounds, NOTIONS, check
from .ruloids import explore, ruloids, transitions
from .specio import ParseError, parse, parse_term
from .terms import SignatureError, _gc_paused

OK, FAIL, INPUT_ERROR, INCONCLUSIVE_AT_BOUND = 0, 1, 2, 3

_BOUND_KEYS = tuple(f.name for f in dataclasses.fields(Bounds))


def _env_bounds() -> dict[str, int]:
    raw = os.environ.get("OPENSOS_BOUNDS", "")
    out: dict[str, int] = {}
    for piece in filter(None, (p.strip() for p in raw.split(","))):
        key, _, value = piece.partition("=")
        if key not in _BOUND_KEYS or not value.isdigit():
            raise SystemExit("invalid OPENSOS_BOUNDS entry %r" % piece)
        out[key] = int(value)
    return out


def _bounds_from(args) -> Bounds:
    merged = dict(_env_bounds())
    for key in _BOUND_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    try:
        return Bounds(**merged)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _add_bounds_flags(sub) -> None:
    for key in _BOUND_KEYS:
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=int)


def _emit(payload: dict, as_json: bool, lines) -> None:
    try:
        if as_json:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (as `| head` does): drop the rest, and
        # the flush at exit, so the command still returns its own code
        sys.stdout = open(os.devnull, "w")


def _read(path) -> str:
    """The text of a file the CLI reads.  A file that cannot be read, or
    is not UTF-8, is an input error: `main` prints it and returns 2."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(str(exc))
    except UnicodeDecodeError as exc:
        raise SystemExit("%s: not UTF-8 text (%s)" % (path, exc))


def _load(path: str | Path, extra: str | None = None) -> specio.SpecDocument:
    """The spec document at `path`, followed by the declarations in the
    file `extra` if given."""
    text = _read(path)
    if extra:
        text += "\n" + _read(extra)
    try:
        return parse(text)
    except (ParseError, SignatureError) as exc:
        raise SystemExit("%s: %s" % (path, exc))


def _pick_tss(doc: specio.SpecDocument, name: str | None):
    if name is None:
        if not doc.tss_decls:
            raise SystemExit("document declares no TSS")
        return doc.tss_decls[-1]
    try:
        return doc.tss(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0])  # str(exc) would quote the message


def _term(text: str, tss):
    try:
        return parse_term(text, tss)
    except ParseError as exc:
        raise SystemExit("term %r: %s" % (text, exc))


# ---------------------------------------------------------------------------
# questions: q_<name>(doc, a, bounds) -> (verdict, payload, lines), where `a`
# is the parsed flags or a corpus fixture read as flags


def q_parse_check(doc, a, bounds):
    return "ok", doc.to_json(), [
        "parsed %d TSS declaration(s), %d equation(s)"
        % (len(doc.tss_decls), len(doc.equations))]


def q_gsos_check(doc, a, bounds):
    targets = [_pick_tss(doc, a.tss)] if a.tss else doc.tss_decls
    details = [{"tss": t.name, "rule": rule, "violation": why}
               for t in targets
               for rule, why in analysis.validate_positive_gsos(t).violations]
    verdict = "violations" if details else "ok"
    payload = {"analysis": "gsos-check", "tss": [t.name for t in targets],
               "verdict": verdict, "details": details}
    return verdict, payload, [verdict] + [
        "%s: rule %r: %s" % (d["tss"], d["rule"], d["violation"])
        for d in details]


def q_extension_check(doc, a, bounds):
    base, ext = _pick_tss(doc, a.base), _pick_tss(doc, a.ext)
    report = analysis.validate_disjoint_extension(base, ext)
    verdict = "disjoint" if report.disjoint else "not-disjoint"
    payload = {"analysis": "extension-check", "tss": [base.name, ext.name],
               "verdict": verdict, "details": list(report.offending)}
    return verdict, payload, [verdict] + [
        "rule %r defines a base operator" % r for r in report.offending]


def q_robust_extension(doc, a, bounds):
    base, ext = _pick_tss(doc, a.base), _pick_tss(doc, a.ext)
    crit = analysis.robust_extension_criteria(base, ext, tuple(doc.equations))
    verdict = "robust" if crit.robust else "not-robust"
    details = (
        ["rule %r defines a base operator" % r for r in crit.offending_rules]
        + ([] if crit.base_gsos_ok else ["the base is not positive GSOS"])
        + ["equation %r is not proper" % e for e in crit.improper_equations]
        + ["the extension concludes base premise label %r" % label
           for label in crit.label_overlap])
    payload = {"analysis": "robust-extension", "tss": [base.name, ext.name],
               "verdict": verdict, "details": details}
    return verdict, payload, [verdict] + details


def q_ruloids(doc, a, bounds):
    tss = _pick_tss(doc, a.tss)
    t = _term(a.term, tss)
    rs = ruloids(t, tss)
    payload = {"term": str(t), "ruloids": [
        {"hyps": [str(h) for h in r.hyps_sorted()], "label": r.label,
         "target": str(r.target)} for r in rs]}
    return "ok", payload, [str(r) for r in rs] or ["(no ruloids)"]


def q_transitions(doc, a, bounds):
    tss = _pick_tss(doc, a.tss)
    t = _term(a.term, tss)
    ts = sorted(transitions(t, tss), key=lambda e: (e[0], str(e[1])))
    payload = {"term": str(t),
               "transitions": [{"label": l, "target": str(q)} for (l, q) in ts]}
    return "ok", payload, (["%s -%s-> %s" % (t, l, q) for (l, q) in ts]
                           or ["(no transitions)"])


def q_explore(doc, a, bounds):
    tss = _pick_tss(doc, a.tss)
    t = _term(a.term, tss)
    lts = explore(t, tss, bounds.state_cap)
    edges = sorted(lts.transitions, key=lambda e: (str(e[0]), e[1], str(e[2])))
    payload = {
        "root": str(t),
        "states": sorted(str(s) for s in lts.states),
        "transitions": [{"source": str(p), "label": l, "target": str(q)}
                        for (p, l, q) in edges],
        "complete": lts.complete,
    }
    if not lts.complete:
        payload["cap"] = lts.cap
    return "complete" if lts.complete else "truncated", payload, (
        ["%d state(s), %d transition(s), %s"
         % (len(lts.states), len(edges),
            "complete" if lts.complete else "truncated at " + lts.cap)]
        + ["%s -%s-> %s" % (p, l, q) for (p, l, q) in edges])


def q_check(doc, a, bounds):
    tss = _pick_tss(doc, a.tss)
    v = check(a.notion, _term(a.lhs, tss), _term(a.rhs, tss), tss, bounds)
    return v.kind, v.to_json(), ["%s: %s" % (v.kind, v.reason)]


def q_fertility(doc, a, bounds):
    tss = _pick_tss(doc, a.tss)
    result = analysis.initial_fertility(tss, bounds.term_size, force=a.force)
    verdict = "fertile" if result.fertile else "unknown-at-bound"
    payload = {
        "analysis": "fertility", "tss": tss.name, "verdict": verdict,
        "bound": result.bound,
        "witnesses": [{"labels": list(ls), "term": str(p)}
                      for (ls, p) in result.witnesses],
        "missing": [list(m) for m in result.missing],
    }
    return verdict, payload, (
        [verdict]
        + ["{%s} realized by %s" % (", ".join(ls), p)
           for (ls, p) in result.witnesses]
        + ["{%s} unrealized at bound %d" % (", ".join(m), result.bound)
           for m in result.missing])


def q_non_evolving(doc, a, bounds):
    tss = _pick_tss(doc, a.tss)
    table = analysis.non_evolving_indices(tss)
    payload = {"analysis": "non-evolving", "tss": tss.name,
               "indices": {op: list(idxs) for op, idxs in table.indices}}
    return "ok", payload, [
        "%s: %s" % (op, ", ".join(map(str, idxs)) if idxs else "(none)")
        for op, idxs in table.indices]


def q_advise(doc, a, bounds):
    base, ext = _pick_tss(doc, a.tss), _pick_tss(doc, a.ext)
    axioms = tuple(e for e in doc.equations
                   if e.over in (base.name, ext.name))
    if not axioms:
        raise SystemExit("no equations pinned to %s or %s"
                         % (base.name, ext.name))
    theory = equations.EquationalTheory(axioms, base)
    report = equations.preservation_advisor(theory, base, ext, a.notion,
                                            bounds)
    lines = []
    for ax in report.axioms:
        note = " via %s" % ax.theorem if ax.theorem else ""
        if ax.classification == equations.BROKEN and ax.soundness_on_base.fails:
            # an axiom unsound on the base is not broken by the extension
            note = " (fails on the base already)"
        lines.append("%s: %s%s" % (
            ax.equation.name or str(ax.equation), ax.classification, note))
    broken = any(ax.classification == equations.BROKEN for ax in report.axioms)
    return equations.BROKEN if broken else "ok", report.to_json(), lines


QUESTIONS = {
    "parse-check": q_parse_check, "gsos-check": q_gsos_check,
    "extension-check": q_extension_check,
    "robust-extension": q_robust_extension, "ruloids": q_ruloids,
    "transitions": q_transitions, "explore": q_explore, "check": q_check,
    "fertility": q_fertility, "non-evolving": q_non_evolving,
    "advise": q_advise,
}

# the exit code of a verdict; every other verdict exits OK
_EXIT = {"fails": FAIL, "violations": FAIL, "not-disjoint": FAIL,
         "not-robust": FAIL, equations.BROKEN: FAIL,
         "inconclusive": INCONCLUSIVE_AT_BOUND,
         "unknown-at-bound": INCONCLUSIVE_AT_BOUND,
         "truncated": INCONCLUSIVE_AT_BOUND}


def _run(question, args) -> int:
    """One subcommand: its spec, its bounds (only a subcommand with bound
    flags reads OPENSOS_BOUNDS), its output and its exit code."""
    doc = _load(args.spec, getattr(args, "eqs", None))
    bounds = _bounds_from(args) if hasattr(args, "term_size") else None
    verdict, payload, lines = question(doc, args, bounds)
    _emit(payload, args.json, lines)
    return _EXIT.get(verdict, OK)


# ---------------------------------------------------------------------------
# corpus runner


class _Fixture(dict):
    """A manifest entry read as flags.  A field it lacks is its error, and
    it never lifts fertility's label guard."""

    force = False

    def __getattr__(self, key):
        if key not in self:
            raise SystemExit("fixture %r has no field %r" % (self["name"], key))
        return self[key]


def _run_fixture(fx: dict, root: Path, bounds: Bounds,
                 docs: dict) -> tuple[str, str]:
    """Returns (expected, actual) labels for one manifest entry, parsing
    its spec file unless `docs`, the documents by file name, has it."""
    a = _Fixture(fx)
    doc = docs[a.spec] = docs.get(a.spec) or _load(root / a.spec)
    for key in fx.get("bounds", {}):
        if key not in _BOUND_KEYS:
            raise SystemExit("unknown bound %r" % key)
    bounds = dataclasses.replace(bounds, **fx.get("bounds", {}))
    cmd, expect = a.command, a.expect
    if cmd not in ("check", "gsos-check", "extension-check", "fertility",
                   "robust-extension"):
        raise ValueError("unknown corpus command %r" % cmd)
    return expect, QUESTIONS[cmd](doc, a, bounds)[0]


def cmd_corpus(args) -> int:
    root = Path(args.dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        if not root.is_dir():
            raise SystemExit("no such directory %r" % args.dir)
        _emit({"fixtures": [], "passed": 0, "failed": 0}, args.json,
              ["0 fixture(s)"])
        return OK
    try:
        manifest = json.loads(_read(manifest_path))
    except json.JSONDecodeError as exc:
        raise SystemExit("%s: not valid JSON (%s)" % (manifest_path, exc))
    fixtures = manifest.get("fixtures", []) if isinstance(manifest, dict) else None
    if not (isinstance(fixtures, list) and all(
            isinstance(fx, dict) and "name" in fx
            and isinstance(fx.get("bounds", {}), dict)
            and all(isinstance(v, str) for k, v in fx.items() if k != "bounds")
            for fx in fixtures)):
        raise SystemExit('%s: expected {"fixtures": [...]}, each fixture an '
                         'object of strings with a "name" and optional '
                         '"bounds" object' % manifest_path)
    bounds = _bounds_from(args)
    rows, docs = [], {}
    for fx in sorted(fixtures, key=lambda f: f["name"]):
        try:
            expected, actual = _run_fixture(fx, root, bounds, docs)
        except (ValueError, SystemExit) as exc:
            expected, actual = fx.get("expect", "?"), "error: %s" % exc
        rows.append({"name": fx["name"], "expect": expected,
                     "actual": actual, "pass": expected == actual})
    failed = [r for r in rows if not r["pass"]]
    _emit({"fixtures": rows, "passed": len(rows) - len(failed),
           "failed": len(failed)},
          args.json,
          ["%-40s %-12s %-12s %s" % (r["name"], r["expect"], r["actual"],
                                     "ok" if r["pass"] else "DIVERGED")
           for r in rows]
          + ["%d passed, %d failed" % (len(rows) - len(failed), len(failed))])
    return OK if not failed else FAIL


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="opensos",
        description="Rule-format analyses and open-term bisimilarity checks "
                    "for transition system specifications.")
    subs = ap.add_subparsers(dest="command", required=True)

    def sub(name, help, spec="--spec"):
        """A subcommand answering QUESTIONS[name], the spec file positional
        or given by --spec."""
        p = subs.add_parser(name, help=help)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=lambda args: _run(QUESTIONS[name], args))
        if spec == "file":
            p.add_argument("spec", metavar="file")
        elif spec:
            p.add_argument("--spec", required=True)
        return p

    sub("parse-check", "parse a specification file", "file")

    p = sub("gsos-check", "validate the rule format", "file")
    p.add_argument("--tss")

    p = sub("extension-check", "validate a disjoint extension", "file")
    p.add_argument("--base", required=True)
    p.add_argument("--ext", required=True)

    p = sub("robust-extension", "the label criteria for a robust extension")
    p.add_argument("--tss", dest="base", required=True, help="base TSS name")
    p.add_argument("--ext", required=True, help="extension TSS name")

    for name, help in (("ruloids", "derive the ruloids of an open term"),
                       ("transitions", "derive the transitions of a closed term"),
                       ("explore", "explore the reachable state space")):
        p = sub(name, help)
        p.add_argument("term")
        p.add_argument("--tss")

    p = sub("check", "check an equivalence between two terms")
    p.add_argument("notion", choices=NOTIONS)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--tss")

    p = sub("fertility", "search for initial-action witnesses per label subset")
    p.add_argument("--tss")
    p.add_argument("--force", action="store_true",
                   help="override the label-count guard")

    p = sub("non-evolving", "non-evolving argument indices per operator")
    p.add_argument("--tss")

    p = sub("advise", "preservation report for equations under an extension")
    p.add_argument("--tss", required=True, help="base TSS name")
    p.add_argument("--ext", required=True, help="extension TSS name")
    p.add_argument("--eqs", help="extra file of equation declarations")
    p.add_argument("--notion", default="ci", choices=("ci", "fh", "hp",
                                                      "pfh", "php"))

    p = sub("corpus", "run a fixture corpus against its manifest", None)
    p.add_argument("dir")
    p.set_defaults(fn=cmd_corpus)

    for name in ("explore", "check", "fertility", "advise", "corpus"):
        _add_bounds_flags(subs.choices[name])

    return ap


@_gc_paused
def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SystemExit, ValueError) as exc:
        # an input error, the CLI's own or one the library raises
        print("error: %s" % (exc.code if isinstance(exc, SystemExit) else exc),
              file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
