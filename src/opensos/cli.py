"""Command-line front end binding the parser, analyses and checkers.

Exit codes: 0 holds/ok, 1 fails/criteria-not-met, 2 input error,
3 inconclusive-at-bound.
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
from .terms import SignatureError

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


def _load(path: str, extra: str | None = None) -> specio.SpecDocument:
    """The spec document at `path`, followed by the declarations in the
    file `extra` if given."""
    text = _read(path)
    if extra:
        text += "\n" + _read(extra)
    try:
        return parse(text)
    except (ParseError, SignatureError) as exc:
        print("%s: %s" % (path, exc), file=sys.stderr)
        raise SystemExit(INPUT_ERROR)


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
        print("term %r: %s" % (text, exc), file=sys.stderr)
        raise SystemExit(INPUT_ERROR)


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse_check(args) -> int:
    doc = _load(args.file)
    _emit(doc.to_json(), args.json,
          ["parsed %d TSS declaration(s), %d equation(s)"
           % (len(doc.tss_decls), len(doc.equations))])
    return OK


def cmd_gsos_check(args) -> int:
    doc = _load(args.file)
    targets = [_pick_tss(doc, args.tss)] if args.tss else doc.tss_decls
    details = []
    for t in targets:
        report = analysis.validate_positive_gsos(t)
        for rule, why in report.violations:
            details.append({"tss": t.name, "rule": rule, "violation": why})
    verdict = "ok" if not details else "violations"
    _emit({"analysis": "gsos-check", "tss": [t.name for t in targets],
           "verdict": verdict, "details": details},
          args.json,
          ["%s" % verdict] + ["%s: rule %r: %s" % (d["tss"], d["rule"], d["violation"])
                              for d in details])
    return OK if not details else FAIL


def cmd_extension_check(args) -> int:
    doc = _load(args.file)
    base = _pick_tss(doc, args.base)
    ext = _pick_tss(doc, args.ext)
    try:
        report = analysis.validate_disjoint_extension(base, ext)
    except analysis.ArityConflictError as exc:
        raise SystemExit(str(exc))
    verdict = "disjoint" if report.disjoint else "not-disjoint"
    _emit({"analysis": "extension-check", "tss": [base.name, ext.name],
           "verdict": verdict, "details": list(report.offending)},
          args.json,
          [verdict] + ["rule %r defines a base operator" % r
                       for r in report.offending])
    return OK if report.disjoint else FAIL


def cmd_ruloids(args) -> int:
    doc = _load(args.spec)
    tss = _pick_tss(doc, args.tss)
    t = _term(args.term, tss)
    rs = ruloids(t, tss)
    payload = {
        "term": str(t),
        "ruloids": [
            {"hyps": [str(h) for h in r.hyps_sorted()],
             "label": r.label, "target": str(r.target)}
            for r in rs
        ],
    }
    _emit(payload, args.json, [str(r) for r in rs] or ["(no ruloids)"])
    return OK


def cmd_transitions(args) -> int:
    doc = _load(args.spec)
    tss = _pick_tss(doc, args.tss)
    t = _term(args.term, tss)
    try:
        ts = sorted(transitions(t, tss), key=lambda e: (e[0], str(e[1])))
    except ValueError as exc:
        raise SystemExit(str(exc))
    payload = {"term": str(t),
               "transitions": [{"label": l, "target": str(q)} for (l, q) in ts]}
    _emit(payload, args.json,
          ["%s -%s-> %s" % (t, l, q) for (l, q) in ts] or ["(no transitions)"])
    return OK


def cmd_explore(args) -> int:
    doc = _load(args.spec)
    tss = _pick_tss(doc, args.tss)
    t = _term(args.term, tss)
    bounds = _bounds_from(args)
    try:
        lts = explore(t, tss, bounds.state_cap)
    except ValueError as exc:
        raise SystemExit(str(exc))
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
    _emit(payload, args.json,
          ["%d state(s), %d transition(s), %s"
           % (len(lts.states), len(edges),
              "complete" if lts.complete else "truncated at " + lts.cap)]
          + ["%s -%s-> %s" % (p, l, q) for (p, l, q) in edges])
    return OK if lts.complete else INCONCLUSIVE_AT_BOUND


def cmd_check(args) -> int:
    doc = _load(args.spec)
    tss = _pick_tss(doc, args.tss)
    lhs = _term(args.lhs, tss)
    rhs = _term(args.rhs, tss)
    bounds = _bounds_from(args)
    try:
        v = check(args.notion, lhs, rhs, tss, bounds)
    except ValueError as exc:
        raise SystemExit(str(exc))
    _emit(v.to_json(), args.json,
          ["%s: %s" % (v.kind, v.reason)] if v.reason else [v.kind])
    if v.holds:
        return OK
    if v.fails:
        return FAIL
    return INCONCLUSIVE_AT_BOUND


def cmd_fertility(args) -> int:
    doc = _load(args.spec)
    tss = _pick_tss(doc, args.tss)
    bounds = _bounds_from(args)
    try:
        result = analysis.initial_fertility(tss, bounds.term_size,
                                            force=args.force)
    except analysis.LabelGuardError as exc:
        raise SystemExit(str(exc))
    verdict = "fertile" if result.fertile else "unknown-at-bound"
    payload = {
        "analysis": "fertility", "tss": tss.name, "verdict": verdict,
        "bound": result.bound,
        "witnesses": [{"labels": list(ls), "term": str(p)}
                      for (ls, p) in result.witnesses],
        "missing": [list(m) for m in result.missing],
    }
    _emit(payload, args.json,
          [verdict]
          + ["{%s} realized by %s" % (", ".join(ls), p)
             for (ls, p) in result.witnesses]
          + ["{%s} unrealized at bound %d" % (", ".join(m), result.bound)
             for m in result.missing])
    return OK if result.fertile else INCONCLUSIVE_AT_BOUND


def cmd_non_evolving(args) -> int:
    doc = _load(args.spec)
    tss = _pick_tss(doc, args.tss)
    table = analysis.non_evolving_indices(tss)
    payload = {
        "analysis": "non-evolving", "tss": tss.name,
        "indices": {op: list(idxs) for op, idxs in table.indices},
    }
    _emit(payload, args.json,
          ["%s: %s" % (op, ", ".join(map(str, idxs)) if idxs else "(none)")
           for op, idxs in table.indices])
    return OK


def cmd_advise(args) -> int:
    doc = _load(args.spec, args.eqs)
    base = _pick_tss(doc, args.tss)
    ext = _pick_tss(doc, args.ext)
    axioms = tuple(e for e in doc.equations
                   if e.over in (base.name, ext.name))
    if not axioms:
        raise SystemExit("no equations pinned to %s or %s"
                         % (base.name, ext.name))
    theory = equations.EquationalTheory(axioms, base)
    bounds = _bounds_from(args)
    report = equations.preservation_advisor(theory, base, ext, args.notion,
                                            bounds)
    lines = []
    for a in report.axioms:
        note = " via %s" % a.theorem if a.theorem else ""
        if a.classification == equations.BROKEN and a.soundness_on_base.fails:
            # an axiom unsound on the base is not broken by the extension
            note = " (fails on the base already)"
        lines.append("%s: %s%s" % (
            a.equation.name or str(a.equation), a.classification, note))
    _emit(report.to_json(), args.json, lines)
    return FAIL if any(a.classification == equations.BROKEN
                       for a in report.axioms) else OK


# ---------------------------------------------------------------------------
# corpus runner


def _run_fixture(fx: dict, root: Path, bounds: Bounds) -> tuple[str, str]:
    """Returns (expected, actual) labels for one manifest entry."""
    def need(key: str) -> str:
        if key not in fx:
            raise SystemExit("fixture %r has no field %r" % (fx["name"], key))
        return fx[key]

    doc = parse(_read(root / need("spec")))
    for key in fx.get("bounds", {}):
        if key not in _BOUND_KEYS:
            raise SystemExit("unknown bound %r" % key)
    bounds = dataclasses.replace(bounds, **fx.get("bounds", {}))
    cmd, expect = need("command"), need("expect")
    if cmd == "check":
        tss = _pick_tss(doc, need("tss"))
        v = check(need("notion"), parse_term(need("lhs"), tss),
                  parse_term(need("rhs"), tss), tss, bounds)
        return expect, v.kind
    if cmd == "gsos-check":
        report = analysis.validate_positive_gsos(_pick_tss(doc, need("tss")))
        return expect, "ok" if report.ok else "violations"
    if cmd == "extension-check":
        report = analysis.validate_disjoint_extension(
            _pick_tss(doc, need("base")), _pick_tss(doc, need("ext")))
        return expect, "disjoint" if report.disjoint else "not-disjoint"
    if cmd == "fertility":
        result = analysis.initial_fertility(_pick_tss(doc, need("tss")),
                                            bounds.term_size)
        return expect, "fertile" if result.fertile else "unknown-at-bound"
    if cmd == "robust-extension":
        eqs = tuple(doc.equations)
        crit = analysis.robust_extension_criteria(
            _pick_tss(doc, need("base")), _pick_tss(doc, need("ext")), eqs)
        return expect, "robust" if crit.robust else "not-robust"
    raise ValueError("unknown corpus command %r" % cmd)


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
    rows = []
    for fx in sorted(fixtures, key=lambda f: f["name"]):
        try:
            expected, actual = _run_fixture(fx, root, bounds)
        except (ParseError, KeyError, ValueError, SystemExit) as exc:
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

    def sub(name, fn, **kw):
        p = subs.add_parser(name, **kw)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)
        return p

    p = sub("parse-check", cmd_parse_check, help="parse a specification file")
    p.add_argument("file")

    p = sub("gsos-check", cmd_gsos_check, help="validate the rule format")
    p.add_argument("file")
    p.add_argument("--tss")

    p = sub("extension-check", cmd_extension_check,
            help="validate a disjoint extension")
    p.add_argument("file")
    p.add_argument("--base", required=True)
    p.add_argument("--ext", required=True)

    p = sub("ruloids", cmd_ruloids, help="derive the ruloids of an open term")
    p.add_argument("term")
    p.add_argument("--spec", required=True)
    p.add_argument("--tss")

    p = sub("transitions", cmd_transitions,
            help="derive the transitions of a closed term")
    p.add_argument("term")
    p.add_argument("--spec", required=True)
    p.add_argument("--tss")

    p = sub("explore", cmd_explore, help="explore the reachable state space")
    p.add_argument("term")
    p.add_argument("--spec", required=True)
    p.add_argument("--tss")
    _add_bounds_flags(p)

    p = sub("check", cmd_check, help="check an equivalence between two terms")
    p.add_argument("notion", choices=NOTIONS)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--spec", required=True)
    p.add_argument("--tss")
    _add_bounds_flags(p)

    p = sub("fertility", cmd_fertility,
            help="search for initial-action witnesses per label subset")
    p.add_argument("--spec", required=True)
    p.add_argument("--tss")
    p.add_argument("--force", action="store_true",
                   help="override the label-count guard")
    _add_bounds_flags(p)

    p = sub("non-evolving", cmd_non_evolving,
            help="non-evolving argument indices per operator")
    p.add_argument("--spec", required=True)
    p.add_argument("--tss")

    p = sub("advise", cmd_advise,
            help="preservation report for equations under an extension")
    p.add_argument("--spec", required=True)
    p.add_argument("--tss", required=True, help="base TSS name")
    p.add_argument("--ext", required=True, help="extension TSS name")
    p.add_argument("--eqs", help="extra file of equation declarations")
    p.add_argument("--notion", default="ci", choices=("ci", "fh", "hp",
                                                      "pfh", "php"))
    _add_bounds_flags(p)

    p = sub("corpus", cmd_corpus, help="run a fixture corpus against its manifest")
    p.add_argument("dir")
    _add_bounds_flags(p)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        print("error: %s" % exc.code, file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
