import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from opensos.cli import main

from conftest import CORPUS, ROOT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


EX1 = str(CORPUS / "ex1.sos")
EX3 = str(CORPUS / "ex3.sos")
EX5 = str(CORPUS / "ex5.sos")


def test_parse_check_ok_and_json(capsys):
    code, out, _ = run(capsys, "parse-check", EX1, "--json")
    assert code == 0
    doc = json.loads(out)
    assert [t["name"] for t in doc["tss"]] == ["Ccs", "CcsExt"]


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.sos"
    bad.write_text('tss T { labels: a; rule "r": |- f(x) -a-> x; }')
    code, _, err = run(capsys, "parse-check", str(bad))
    assert code == 2
    assert "f" in err and "1:" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "parse-check", "nowhere.sos")
    assert code == 2


def test_gsos_check_violation_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.sos"
    bad.write_text('tss T { labels: a; op f/2; '
                   'rule "r": |- f(x, x) -a-> x; }')
    code, out, _ = run(capsys, "gsos-check", str(bad))
    assert code == 1
    assert "repeated source variable" in out


def test_a_rule_outside_the_format_is_refused(tmp_path, capsys):
    spec = tmp_path / "all.sos"
    spec.write_text('tss T { labels: a; op c/0; op d/0; '
                    'rule "loop": |- c -a-> c; rule "all": |- x -a-> d; }')
    refusal = ("error: rule 'all': conclusion source must be an operator "
               "application\n")
    for argv in (["check", "strong", "c", "d"], ["check", "fh", "x", "d"],
                 ["transitions", "d"], ["explore", "d"]):
        code, out, err = run(capsys, *argv, "--spec", str(spec))
        assert (code, out, err) == (2, "", refusal), argv
    code, out, _ = run(capsys, "gsos-check", str(spec))
    assert (code, out) == (1, "violations\nT: rule 'all': conclusion source "
                              "must be an operator application\n")


def test_an_arity_conflict_names_its_place(tmp_path, capsys):
    bad = tmp_path / "bad.sos"
    bad.write_text("tss B {\n  labels: a;\n  op f/1;\n}\n\n"
                   "tss E extends B {\n  labels: a;\n  op g/0;\n  op f/2;\n}\n")
    code, out, err = run(capsys, "parse-check", str(bad))
    assert (code, out, err) == (2, "", "error: %s: 9:6: operator 'f' "
                                "redeclared with arity 2 (was 1)\n" % bad)


def test_a_document_without_a_tss_is_an_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.sos"
    empty.write_text("# nothing declared\n")
    code, out, err = run(capsys, "non-evolving", "--spec", str(empty))
    assert (code, out, err) == (2, "", "error: document declares no TSS\n")


def test_an_extension_must_extend_its_base(capsys):
    for argv in (["extension-check", EX1, "--base", "CcsExt", "--ext", "Ccs"],
                 ["robust-extension", "--spec", EX1, "--tss", "CcsExt",
                  "--ext", "Ccs"],
                 ["advise", "--spec", EX1, "--tss", "CcsExt", "--ext", "Ccs",
                  "--notion", "fh"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (
            2, "", "error: Ccs does not extend CcsExt\n"), argv


def test_extension_check_exit_codes(capsys):
    code, _, _ = run(capsys, "extension-check", EX3, "--base", "F",
                     "--ext", "FB")
    assert code == 0


def test_check_exit_codes(capsys):
    assert run(capsys, "check", "fh", "plus(x, plus(y, z))",
               "plus(plus(x, y), z)", "--spec", EX1, "--tss", "Ccs")[0] == 0
    assert run(capsys, "check", "fh", "f(x)", "x",
               "--spec", EX3, "--tss", "FB")[0] == 1
    assert run(capsys, "check", "ci", "plus(x, y)", "zero",
               "--spec", EX5, "--tss", "Choice0", "--term-size", "2")[0] == 3


def test_open_terms_under_strong_are_an_input_error(capsys):
    code, out, err = run(capsys, "check", "strong", "x", "y", "--spec", EX1,
                         "--tss", "Ccs")
    assert code == 2
    assert out == ""
    assert err == ("error: strong bisimilarity needs closed terms, "
                   "got x and y\n")


EXPLORE_DEMO = """\
3 state(s), 3 transition(s), complete
plus(pre_a(zero), pre_a(pre_a(zero))) -a-> pre_a(zero)
plus(pre_a(zero), pre_a(pre_a(zero))) -a-> zero
pre_a(zero) -a-> zero
"""


def test_explore_lists_a_complete_lts(capsys):
    term = "plus(pre_a(zero), pre_a(pre_a(zero)))"
    code, out, _ = run(capsys, "explore", term, "--spec", EX1, "--tss", "Ccs")
    assert code == 0
    assert out == EXPLORE_DEMO
    code, out, _ = run(capsys, "explore", term, "--spec", EX1, "--tss", "Ccs",
                       "--json")
    assert code == 0
    assert json.loads(out) == {
        "complete": True,
        "root": term,
        "states": [term, "pre_a(zero)", "zero"],
        "transitions": [
            {"label": "a", "source": term, "target": "pre_a(zero)"},
            {"label": "a", "source": term, "target": "zero"},
            {"label": "a", "source": "pre_a(zero)", "target": "zero"},
        ],
    }


def test_explore_stops_at_the_cap_and_names_it(tmp_path, capsys):
    spec = tmp_path / "grow.sos"
    spec.write_text('tss T { labels: a; op c/0; op s/1; '
                    'rule "grow": |- c -a-> s(c); '
                    'rule "step": x -a-> x2 |- s(x) -a-> s(x2); }')
    code, out, _ = run(capsys, "explore", "c", "--spec", str(spec),
                       "--state-cap", "3")
    assert code == 3
    assert out == ("3 state(s), 2 transition(s), truncated at state cap 3\n"
                   "c -a-> s(c)\n"
                   "s(c) -a-> s(s(c))\n")
    code, out, _ = run(capsys, "explore", "c", "--spec", str(spec),
                       "--state-cap", "3", "--json")
    payload = json.loads(out)
    assert payload["complete"] is False
    assert payload["cap"] == "state cap 3"
    assert payload["states"] == ["c", "s(c)", "s(s(c))"]
    assert {e["target"] for e in payload["transitions"]} <= set(payload["states"])


def test_a_closed_pipe_keeps_the_exit_code(tmp_path, monkeypatch):
    # `opensos explore c0 ... | head -1`: the reader closes the pipe after
    # the first line, and the truncated exploration still exits with 3
    spec = tmp_path / "item3.sos"
    spec.write_text('tss T { labels: a; op c0/0; op g0/1; '
                    'rule "r0": |- c0 -a-> g0(c0); '
                    'rule "r2": |- g0(x0) -a-> g0(g0(x0)); '
                    'rule "r3": x0 -a-> y0 |- g0(x0) -a-> y0; }')

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["explore", "c0", "--spec", str(spec), "--tss", "T"])
    sys.stdout.close()  # the null device that replaced the pipe
    assert code == 3


def test_check_witness_json(capsys):
    code, out, _ = run(capsys, "check", "ci", "plus(x, y)", "zero",
                       "--spec", EX5, "--tss", "ChoiceA",
                       "--term-size", "2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fails"
    assert "sigma" in payload["witness"]


def test_bad_term_exits_2(capsys):
    code, _, err = run(capsys, "check", "fh", "nope(x)", "x",
                       "--spec", EX3, "--tss", "F")
    assert code == 2
    assert err == "error: term 'nope(x)': 1:1: undeclared operator 'nope'\n"


def test_ruloids_and_transitions_output(capsys):
    code, out, _ = run(capsys, "ruloids", "f(x)", "--spec", EX3, "--tss", "F")
    assert code == 0
    assert out.strip() == "x -a-> h0 |- f(x) -a-> h0"
    code, out, _ = run(capsys, "transitions", "plus(zero, pre_a(zero))",
                       "--spec", EX1, "--tss", "Ccs")
    assert code == 0
    assert "plus(zero, pre_a(zero)) -a-> zero" in out


def test_fertility_and_non_evolving(capsys):
    code, out, _ = run(capsys, "fertility", "--spec",
                       str(CORPUS / "ex6.sos"), "--tss", "Rep",
                       "--term-size", "4")
    assert code == 3
    assert "unrealized" in out
    code, out, _ = run(capsys, "non-evolving", "--spec", EX1, "--tss", "Ccs",
                       "--json")
    assert code == 0
    assert json.loads(out)["indices"]["plus"] == []


def test_advise_exit_reflects_broken_axioms(capsys):
    code, out, _ = run(capsys, "advise", "--spec", EX3, "--tss", "F",
                       "--ext", "FB", "--notion", "fh", "--term-size", "2")
    assert code == 1
    assert "broken" in out


def test_advise_says_when_a_broken_axiom_fails_on_the_base(capsys):
    code, out, _ = run(capsys, "advise", "--spec",
                       str(CORPUS / "sec43b.sos"), "--tss", "Res",
                       "--ext", "Par", "--notion", "fh")
    assert code == 1
    assert "fuse: broken (fails on the base already)\n" in out
    assert "hide: guaranteed-preserved" in out
    # an axiom the extension breaks carries no such note
    code, out, _ = run(capsys, "advise", "--spec", EX3, "--tss", "F",
                       "--ext", "FB", "--notion", "fh", "--term-size", "2")
    assert out == "forward: broken\n"


def test_advise_reads_equations_from_eqs(tmp_path, capsys):
    spec = tmp_path / "f.sos"
    spec.write_text((CORPUS / "ex3.sos").read_text().replace(
        'eq "forward": f(x) = x @ F;', ""))
    argv = ["advise", "--spec", str(spec), "--tss", "F", "--ext", "FB",
            "--notion", "fh", "--term-size", "2"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (
        2, "", "error: no equations pinned to F or FB\n")
    eqs = tmp_path / "eqs.sos"
    eqs.write_text('eq "forward": f(x) = x @ F;\n')
    code, out, err = run(capsys, *argv, "--eqs", str(eqs))
    assert (code, out, err) == (1, "forward: broken\n", "")


def test_advise_refuses_an_equation_over_an_extension_operator(tmp_path,
                                                               capsys):
    eqs = tmp_path / "eqs.sos"
    eqs.write_text('eq "tauext": plus(pre_tau(x), zero) = pre_tau(x) '
                   '@ CcsExt;\n')
    code, out, err = run(capsys, "advise", "--spec", EX1, "--eqs", str(eqs),
                         "--tss", "Ccs", "--ext", "CcsExt", "--notion", "fh")
    assert (code, out) == (2, "")
    assert err == ("error: equation tauext is not over base Ccs: "
                   "undeclared operator 'pre_tau'\n")


def test_env_bounds_override(capsys, monkeypatch):
    monkeypatch.setenv("OPENSOS_BOUNDS", "term_size=2,depth=6")
    # fh and hp do not hold on this pair, so ci reaches the sweep
    code, out, _ = run(capsys, "check", "ci", "plus(x, y)", "zero",
                       "--spec", EX5, "--tss", "Choice0")
    assert code == 3
    assert "term size 2" in out


def test_env_bounds_invalid_entry(capsys, monkeypatch):
    monkeypatch.setenv("OPENSOS_BOUNDS", "bogus=3")
    code, _, err = run(capsys, "check", "ci", "x", "x", "--spec", EX1,
                       "--tss", "Ccs")
    assert code == 2
    assert err == "error: invalid OPENSOS_BOUNDS entry 'bogus=3'\n"
    # a subcommand without bound flags does not read the environment
    for argv in (["parse-check", EX1], ["gsos-check", EX1],
                 ["non-evolving", "--spec", EX1]):
        assert run(capsys, *argv)[0::2] == (0, ""), argv


def test_nonpositive_bound_is_an_input_error(capsys):
    code, _, err = run(capsys, "check", "ci", "x", "x", "--spec", EX1,
                       "--tss", "Ccs", "--term-size", "0")
    assert code == 2
    assert err == "error: bound term_size must be a positive integer, got 0\n"


def test_corpus_runner_passes_shipped_fixtures(capsys):
    code, out, _ = run(capsys, "corpus", str(CORPUS))
    assert code == 0
    assert "0 failed" in out


def test_corpus_json_deterministic(capsys):
    _, first, _ = run(capsys, "corpus", str(CORPUS), "--json")
    _, second, _ = run(capsys, "corpus", str(CORPUS), "--json")
    assert first == second


def test_empty_corpus_directory(tmp_path, capsys):
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    assert code == 0
    assert "0 fixture(s)" in out


def test_a_missing_corpus_directory_is_an_input_error(tmp_path, capsys):
    missing = str(tmp_path / "nowhere")
    code, out, err = run(capsys, "corpus", missing)
    assert (code, out, err) == (2, "", "error: no such directory %r\n" % missing)


def test_inverted_expectation_is_named(tmp_path, capsys):
    shutil.copy(CORPUS / "ex3.sos", tmp_path / "ex3.sos")
    manifest = {"fixtures": [
        {"name": "inverted", "spec": "ex3.sos", "command": "check",
         "notion": "fh", "lhs": "f(x)", "rhs": "x", "tss": "F",
         "expect": "fails"},
    ]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert "inverted" in out and "DIVERGED" in out


def test_a_directory_given_as_spec_is_an_input_error(capsys):
    code, out, err = run(capsys, "advise", "--spec", str(CORPUS), "--tss",
                         "Ccs", "--ext", "CcsExt")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Is a directory" in err


def test_a_spec_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.sos"
    bad.write_bytes('# café\n'.encode("latin-1")
                    + (CORPUS / "ex1.sos").read_bytes())
    for argv in (["parse-check", str(bad)],
                 ["check", "fh", "zero", "zero", "--spec", str(bad)],
                 ["advise", "--spec", str(bad), "--tss", "Ccs",
                  "--ext", "CcsExt"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: %s: not UTF-8 text" % bad), argv


def test_robust_extension_exit_codes(capsys):
    code, out, _ = run(capsys, "robust-extension", "--spec", EX5, "--tss",
                       "Choice0", "--ext", "ChoiceA", "--json")
    assert code == 1
    assert json.loads(out) == {
        "analysis": "robust-extension", "tss": ["Choice0", "ChoiceA"],
        "verdict": "not-robust",
        "details": ["the extension concludes base premise label 'a'"]}
    code, out, _ = run(capsys, "robust-extension", "--spec",
                       str(CORPUS / "sec43a.sos"), "--tss", "Pref",
                       "--ext", "PrefChoice")
    assert (code, out) == (0, "robust\n")


def _shell_argv(fx: dict) -> list[str]:
    """The subcommand a manifest entry names, as typed in a shell."""
    spec = str(CORPUS / fx["spec"])
    flags = ["--json"] + [
        "--%s=%s" % (key.replace("_", "-"), value)
        for key, value in fx.get("bounds", {}).items()]
    command = fx["command"]
    if command == "check":
        return [command, fx["notion"], fx["lhs"], fx["rhs"], "--spec", spec,
                "--tss", fx["tss"]] + flags
    if command == "gsos-check":
        return [command, spec, "--tss", fx["tss"]] + flags
    if command == "extension-check":
        return [command, spec, "--base", fx["base"], "--ext", fx["ext"]] + flags
    if command == "fertility":
        return [command, "--spec", spec, "--tss", fx["tss"]] + flags
    assert command == "robust-extension"
    return [command, "--spec", spec, "--tss", fx["base"],
            "--ext", fx["ext"]] + flags


def test_every_fixture_replays_from_the_shell(capsys):
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    exits = {"holds": 0, "ok": 0, "disjoint": 0, "fertile": 0, "robust": 0,
             "fails": 1, "violations": 1, "not-disjoint": 1, "not-robust": 1,
             "inconclusive": 3, "unknown-at-bound": 3}
    for fx in manifest["fixtures"]:
        code, out, err = run(capsys, *_shell_argv(fx))
        assert (code, err) == (exits[fx["expect"]], ""), fx["name"]
        assert json.loads(out)["verdict"] == fx["expect"], fx["name"]


def test_a_fixture_runs_only_a_corpus_command_as_given(tmp_path, capsys):
    labels = ", ".join("l%d" % i for i in range(17))
    (tmp_path / "many.sos").write_text(
        "tss Many { labels: %s; op z/0; }" % labels)
    shutil.copy(CORPUS / "ex3.sos", tmp_path / "ex3.sos")
    fixtures = [
        {"name": "a", "spec": "ex3.sos", "command": "advise", "tss": "F",
         "ext": "FB", "expect": "ok"},
        {"name": "b", "spec": "many.sos", "command": "fertility",
         "tss": "Many", "force": "yes", "expect": "fertile"},
        {"name": "c", "spec": "ex3.sos", "command": "check", "notion": "fh",
         "lhs": "nope(x)", "rhs": "x", "tss": "F", "expect": "holds"}]
    (tmp_path / "manifest.json").write_text(
        json.dumps({"fixtures": fixtures}))
    code, out, err = run(capsys, "corpus", str(tmp_path), "--json")
    assert (code, err) == (1, "")
    assert [r["actual"] for r in json.loads(out)["fixtures"]] == [
        "error: unknown corpus command 'advise'",
        "error: 17 labels means 131072 subsets; pass force to override",
        "error: term 'nope(x)': 1:1: undeclared operator 'nope'"]


def test_a_malformed_manifest_is_an_input_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"fixtures": [')
    code, out, err = run(capsys, "corpus", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s: not valid JSON" % manifest)
    for shape in ([], {"fixtures": 3}, {"fixtures": [3]},
                  {"fixtures": [{"spec": EX1}]},
                  {"fixtures": [{"name": "a", "spec": 3}]},
                  {"fixtures": [{"name": "a", "bounds": []}]}):
        manifest.write_text(json.dumps(shape))
        code, out, err = run(capsys, "corpus", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: %s: expected" % manifest), shape
    # a fixture whose bounds are not positive integers is that fixture's
    # error; the others still run
    fixture = {"spec": EX1, "command": "gsos-check", "tss": "Ccs",
               "expect": "ok"}
    bounds = {"a": {"pair_cap": "x"}, "b": {"pair_cap": 0},
              "c": {"pair_cap": 7}, "d": {"paircap": 3}}
    manifest.write_text(json.dumps({"fixtures": [
        dict(fixture, name=name, bounds=b) for name, b in bounds.items()]}))
    code, out, err = run(capsys, "corpus", str(tmp_path), "--json")
    assert (code, err) == (1, "")
    assert [r["actual"] for r in json.loads(out)["fixtures"]] == [
        "error: bound pair_cap must be a positive integer, got 'x'",
        "error: bound pair_cap must be a positive integer, got 0",
        "ok", "error: unknown bound 'paircap'"]


def test_a_missing_name_is_named_plainly(tmp_path, capsys):
    for argv in (["check", "fh", "zero", "zero", "--spec", EX1,
                  "--tss", "Nope"],
                 ["extension-check", EX1, "--base", "Nope", "--ext", "CcsExt"],
                 ["extension-check", EX1, "--base", "Ccs", "--ext", "Nope"],
                 ["advise", "--spec", EX1, "--tss", "Ccs", "--ext", "Nope"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: no TSS named 'Nope'\n"), argv
    # in corpus rows too; a fixture without a field its command reads
    # names the fixture and the field
    fixture = {"spec": EX1, "command": "gsos-check", "expect": "ok"}
    (tmp_path / "manifest.json").write_text(json.dumps({"fixtures": [
        dict(fixture, name="a", tss="Nope"),
        dict(fixture, name="b"),
        dict(fixture, name="c", command="extension-check", base="Ccs")]}))
    code, out, err = run(capsys, "corpus", str(tmp_path), "--json")
    assert (code, err) == (1, "")
    assert [r["actual"] for r in json.loads(out)["fixtures"]] == [
        "error: no TSS named 'Nope'", "error: fixture 'b' has no field 'tss'",
        "error: fixture 'c' has no field 'ext'"]


BRANCHING_Z = ('tss T { labels: a; op c0/0; op g0/0; op g1/2; op z/0; '
               'rule "r0": |- c0 -a-> g1(g0, g0); rule "r1": |- c0 -a-> g0; '
               'rule "r2": |- g0 -a-> g1(g0, c0); '
               'rule "r3": |- g0 -a-> g1(g1(c0, g0), g1(c0, c0)); '
               'rule "r4": x0 -a-> y0, x1 -a-> y1 |- '
               'g1(x0, x1) -a-> g1(y0, y1); '
               'rule "r5": x0 -a-> y0 |- g1(x0, x1) -a-> g0; }')
ITEM3 = ('tss T { labels: a; op c0/0; op g0/1; '
         'rule "r0": |- c0 -a-> g0(c0); '
         'rule "r2": |- g0(x0) -a-> g0(g0(x0)); '
         'rule "r3": x0 -a-> y0 |- g0(x0) -a-> y0; }')


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # terms hash by identity and strings by a per-process seed, so only a
    # fresh interpreter shows a set iterated where order matters
    (tmp_path / "branching.sos").write_text(BRANCHING_Z)
    (tmp_path / "item3.sos").write_text(ITEM3)
    commands = [
        # the branching spec with a dead constant added, so pairs can fail:
        # a witness out of a truncated LTS
        ["check", "strong", "g1(g0, z)", "g1(z, g0)", "--json",
         "--spec", str(tmp_path / "branching.sos"), "--state-cap", "40"],
        ["explore", "c0", "--json", "--spec", str(tmp_path / "item3.sos"),
         "--state-cap", "7"],
        ["check", "ci", "plus(x, y)", "zero", "--json", "--spec", EX5,
         "--tss", "ChoiceA", "--term-size", "2"],
        ["corpus", str(CORPUS), "--json"],
    ]
    script = ("from opensos.cli import main\n"
              "for argv in %r:\n    print('exit', main(argv))\n" % commands)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))
    outs = []
    for seed in ("0", "1"):
        done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                              env=dict(env, PYTHONHASHSEED=seed),
                              capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, ""), seed
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert [line for line in outs[0].splitlines()
            if line.startswith("exit")] == ["exit 1", "exit 3", "exit 1",
                                            "exit 0"]
