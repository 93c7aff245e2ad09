"""Per-module spans for the traced run, installed at run time.

`install` wraps the public functions of the traced opensos modules and puts
the wrappers in place of the originals wherever a module refers to them: in
the package namespace, in every other opensos module (the calls from one
layer into another, such as `bisim`'s imported `transitions`, `explore` and
`ruloids`) and, except for `terms`, in the defining module itself, so calls
like `ci_bisim -> strong_bisim` show as nested spans.  No source file is
changed.  Spans are kept as aggregates per function: calls, inclusive time
(outermost activation only) and self time (the span minus the child spans
inside it).
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time

MODULES = ("specio", "terms", "ruloids", "bisim", "analysis", "equations", "cli")

# Field reads and sort keys: a span would cost more than the call it measures.
UNTRACED = {"terms.term_size", "terms.is_closed", "ruloids.succ_key"}

# Intra-module calls in `terms` are its own recursive helpers (var_occurrences
# alone makes millions of them); only calls from other modules are spans.
OUTSIDE_CALLS_ONLY = {"terms"}

VERDICT_FUNCS = {"bisim.strong_bisim", "bisim.ci_bisim", "bisim.fh_bisim",
                 "bisim.hp_bisim", "bisim.pfh_bisim", "bisim.php_bisim",
                 "bisim.check"}


class Stat:
    __slots__ = ("calls", "total", "self", "active", "hits", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.active = 0
        self.hits = 0
        self.extra: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list[list] = []  # [name, start, child seconds]
        self.enabled = True

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def enter(self, name: str, st: Stat) -> None:
        st.active += 1
        self.stack.append([name, time.perf_counter(), 0.0])

    def leave(self, st: Stat) -> None:
        name, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        st.active -= 1
        st.self += dur - child
        if st.active == 0:
            st.total += dur
        if self.stack:
            self.stack[-1][2] += dur

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name: str, fn):
        st = self.stat(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                if tracer.enabled:
                    st.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        yield from it
                        return
                    tracer.enter(name, st)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave(st)
                    yield item
            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            st.calls += 1
            caller = tracer.parent()
            tracer.enter(name, st)
            try:
                if hook is not None:
                    hook.before(st, caller, args)
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(st)
            if hook is not None:
                hook.after(st, caller, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper


class _MemoHit:
    """Counts calls whose argument term is already in the Tss cache."""

    def __init__(self, key: str):
        self.key = key

    def before(self, st, caller, args):
        term, tss = args[0], args[1]
        cache = tss._memo.get(self.key)
        if isinstance(cache, dict) and term in cache:
            st.hits += 1

    def after(self, st, caller, result):
        pass


class _Explore:
    def before(self, st, caller, args):
        pass

    def after(self, st, caller, lts):
        st.extra["states"] = st.extra.get("states", 0) + len(lts.states)
        if not lts.complete:
            st.extra["incomplete"] = st.extra.get("incomplete", 0) + 1


class _Strong:
    def before(self, st, caller, args):
        if caller == "bisim.ci_bisim":
            st.extra["in_ci"] = st.extra.get("in_ci", 0) + 1

    def after(self, st, caller, verdict):
        _count_inconclusive(st, caller, verdict)


class _Verdict:
    def before(self, st, caller, args):
        pass

    def after(self, st, caller, verdict):
        _count_inconclusive(st, caller, verdict)


def _count_inconclusive(st, caller, verdict) -> None:
    # only verdicts handed out of bisim count, not those bisim uses itself
    if caller not in VERDICT_FUNCS and getattr(verdict, "kind", None) == "inconclusive":
        st.extra["inconclusive"] = st.extra.get("inconclusive", 0) + 1


_HOOKS = {
    "ruloids.ruloids": _MemoHit("ruloids"),
    "ruloids.transitions": _MemoHit("transitions"),
    "ruloids.explore": _Explore(),
    "bisim.strong_bisim": _Strong(),
}
for _name in VERDICT_FUNCS - {"bisim.strong_bisim"}:
    _HOOKS[_name] = _Verdict()


def install() -> Tracer:
    """Wrap the traced modules' public functions; returns the tracer."""
    tracer = Tracer()
    modules = {m: importlib.import_module("opensos." + m) for m in MODULES}
    wrapped: dict[int, tuple[str, object]] = {}  # id(original) -> (home, wrapper)
    for mname, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            name = "%s.%s" % (mname, attr)
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in UNTRACED):
                continue
            wrapped[id(obj)] = (mname, tracer.wrap(name, obj))
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "opensos" or modname.startswith("opensos.")):
            continue
        here = modname.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is None:
                continue
            home, wrapper = entry
            if home == here and home in OUTSIDE_CALLS_ONLY:
                continue
            setattr(mod, attr, wrapper)
    return tracer


def _self(tracer: Tracer, *names: str) -> float:
    return sum(tracer.stats[n].self for n in names if n in tracer.stats)


def _total(tracer: Tracer, *names: str) -> float:
    return sum(tracer.stats[n].total for n in names if n in tracer.stats)


def _calls(tracer: Tracer, name: str) -> int:
    st = tracer.stats.get(name)
    return st.calls if st else 0


def _extra(tracer: Tracer, name: str, key: str) -> int:
    st = tracer.stats.get(name)
    return st.extra.get(key, 0) if st else 0


def _ratio(tracer: Tracer, name: str) -> float:
    st = tracer.stats.get(name)
    return st.hits / st.calls if st and st.calls else 0.0


def _module(tracer: Tracer, module: str) -> list[str]:
    return [n for n in tracer.stats if n.startswith(module + ".")]


# name -> (unit, function of the tracer); counts and seconds are per round
PER_LAYER = {
    "specio.parse_s": ("s", lambda t: _total(t, "specio.parse", "specio.parse_term")),
    "terms.enumerate_s": ("s", lambda t: _total(
        t, "terms.enumerate_closed_terms", "terms.enumerate_open_terms")),
    "terms.apply_subst_calls": ("count", lambda t: _calls(t, "terms.apply_subst")),
    "terms.apply_subst_s": ("s", lambda t: _total(t, "terms.apply_subst")),
    "ruloids.ruloids_calls": ("count", lambda t: _calls(t, "ruloids.ruloids")),
    "ruloids.ruloids_self_s": ("s", lambda t: _self(t, "ruloids.ruloids")),
    "ruloids.ruloids_hit_ratio": ("ratio", lambda t: _ratio(t, "ruloids.ruloids")),
    "ruloids.transitions_calls": ("count", lambda t: _calls(t, "ruloids.transitions")),
    "ruloids.transitions_self_s": ("s", lambda t: _self(t, "ruloids.transitions")),
    "ruloids.transitions_hit_ratio": ("ratio", lambda t: _ratio(t, "ruloids.transitions")),
    "ruloids.explore_calls": ("count", lambda t: _calls(t, "ruloids.explore")),
    "ruloids.explore_self_s": ("s", lambda t: _self(t, "ruloids.explore")),
    "ruloids.explore_states": ("count", lambda t: _extra(t, "ruloids.explore", "states")),
    "ruloids.explore_incomplete": ("count", lambda t: _extra(t, "ruloids.explore", "incomplete")),
    "bisim.strong_calls": ("count", lambda t: _calls(t, "bisim.strong_bisim")),
    "bisim.strong_self_s": ("s", lambda t: _self(t, "bisim.strong_bisim")),
    "bisim.ci_subst": ("count", lambda t: _extra(t, "bisim.strong_bisim", "in_ci")),
    "bisim.ci_self_s": ("s", lambda t: _self(t, "bisim.ci_bisim")),
    "bisim.fh_self_s": ("s", lambda t: _self(t, "bisim.fh_bisim", "bisim.pfh_bisim")),
    "bisim.hp_self_s": ("s", lambda t: _self(t, "bisim.hp_bisim", "bisim.php_bisim")),
    "bisim.inconclusive": ("count", lambda t: sum(
        _extra(t, n, "inconclusive") for n in VERDICT_FUNCS)),
    "analysis.self_s": ("s", lambda t: _self(t, *_module(t, "analysis"))),
    "analysis.fertility_s": ("s", lambda t: _total(t, "analysis.initial_fertility")),
    "equations.advisor_calls": ("count", lambda t: _calls(t, "equations.preservation_advisor")),
    "equations.advisor_self_s": ("s", lambda t: _self(t, "equations.preservation_advisor")),
    "cli.corpus_s": ("s", lambda t: _total(t, "cli.cmd_corpus")),
}

RATIOS = {name for name, (unit, _) in PER_LAYER.items() if unit == "ratio"}


def per_layer(tracer: Tracer, rounds: int) -> dict:
    out = {}
    for name, (unit, fn) in PER_LAYER.items():
        value = fn(tracer)
        if name not in RATIOS:
            value = value / rounds
        out[name] = {"value": value, "unit": unit}
    return out


def dump(tracer: Tracer) -> dict:
    """Raw per-function aggregates, for the trace output file."""
    return {name: {"calls": st.calls, "total_s": st.total, "self_s": st.self,
                   "hits": st.hits, **st.extra}
            for name, st in sorted(tracer.stats.items())}
