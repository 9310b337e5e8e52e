import argparse
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import elps
from elps import cli, engine, harness, objective, splitting
from elps.cli import main
from elps.harness import SEMANTICS_COLUMNS


@pytest.fixture()
def fx(corpus_dir):
    return lambda name: str(corpus_dir / f"{name}.elp")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_exit_codes_and_output(capsys, fx):
    code, out, _ = run(capsys, "solve", fx("ce1b"), "--semantics", "g11")
    assert code == 0
    assert out.strip() == "[[a,c]]"
    code, out, _ = run(capsys, "solve", fx("ce1b"), "--semantics", "g91")
    assert code == 1
    assert out.strip() == ""


def test_solve_college_world_view(capsys, fx):
    code, out, _ = run(capsys, "solve", fx("college"), "--semantics", "g91")
    assert code == 0
    assert out.strip() == (
        "[[eligible(mike),high(mike),interview(mike)],[fair(mike),interview(mike)]]"
    )


def test_solve_json_schema(capsys, fx):
    code, out, _ = run(capsys, "solve", fx("ce1a"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["semantics"] == "g91"
    assert payload["world_views"] == [[["a"], ["b"]]]


def test_solve_deterministic_output(capsys, fx):
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "solve", fx("college3"), "--semantics", "c19", "--json")
        outputs.add(out)
    assert len(outputs) == 1


def test_solve_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.elp"
    bad.write_text("a :- K.\n", encoding="utf-8")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "error:" in err


def test_solve_unknown_file_exit_2(capsys):
    code, _, err = run(capsys, "solve", "no-such-file.elp")
    assert code == 2


def test_solve_directory_exit_2(capsys, tmp_path):
    """A path that cannot be read as a file is an error, not "no world view"."""
    code, out, err = run(capsys, "solve", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_negative_max_atoms_flag_exit_2(capsys, fx):
    code, out, err = run(capsys, "solve", fx("ab"), "--max-atoms", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --max-atoms must not be negative, got -1\n"


@pytest.mark.parametrize(
    "argv, atoms",
    [
        (["solve", "pi1"], 4),
        (["split", "ce1b", "--split", "U=a,b"], 2),
        (["conformant", "lamps", "--goal", "light", "--plan", "toggle(l1)"], 6),
    ],
    ids=["solve", "split", "conformant"],
)
def test_max_atoms_reaches_every_subcommand(capsys, fx, argv, atoms):
    """The cap below a program's atom count refuses it, and the default cap
    is back once the command has returned."""
    command, name, *rest = argv
    code, out, err = run(capsys, command, fx(name), *rest, "--max-atoms", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {atoms} atoms exceed the exhaustive-search cap of 1\n"
    assert objective.MAX_ATOMS == 20


def test_max_atoms_at_the_atom_count_solves_and_is_restored(capsys, fx):
    capped = run(capsys, "solve", fx("pi1"), "--max-atoms", "4")
    assert objective.MAX_ATOMS == 20
    assert capped == run(capsys, "solve", fx("pi1")) and capped[0] == 0


@pytest.mark.parametrize("command", ["solve", "split", "conformant"])
def test_a_command_runs_in_one_run_memo_opened_after_its_cap(monkeypatch, command):
    """`main` opens the command's run memo once `--max-atoms` is set, and
    closes it when the command returns."""
    seen = []

    def cmd(args):
        seen.append((engine._memo.get(), objective.MAX_ATOMS))
        return 0, {}, []

    monkeypatch.setattr(cli, f"cmd_{command}", cmd)
    extra = ["--goal", "g"] if command == "conformant" else []
    assert main([command, "program.elp", "--max-atoms", "5", *extra]) == 0
    assert seen == [({}, 5)]
    assert engine._memo.get() is None


def test_max_atoms_bounds_f15_as_it_bounds_g91(capsys, fx):
    """F15 takes its candidates from the stable models of the G91 guess
    loop, so the atom cap of those searches bounds it as it bounds g91."""
    for semantics in ("f15", "g91"):
        code, out, err = run(capsys, "solve", fx("ab"), "--semantics", semantics, "--max-atoms", "0")
        assert (code, out, err) == (2, "", "error: 2 atoms exceed the exhaustive-search cap of 0\n"), semantics


def test_eliminate_m_flag(capsys, tmp_path):
    path = tmp_path / "m.elp"
    path.write_text("a :- M a.\n", encoding="utf-8")
    code, _, err = run(capsys, "solve", str(path), "--semantics", "k15")
    assert code == 2 and "K-literals" in err
    code, out, _ = run(capsys, "solve", str(path), "--semantics", "k15", "--eliminate-m")
    assert code == 0
    assert out.strip() == "[[a]]"


def test_explain_unfounded_certificate(capsys, fx):
    code, out, _ = run(capsys, "solve", fx("ka"), "--semantics", "c19", "--explain-unfounded", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["world_views"] == [[[]]]
    certs = payload["unfounded_certificates"]
    assert certs == [{"world_view": [["a"]], "pairs": [{"X": ["a"], "I": ["a"]}]}]



def test_explain_unfounded_text(capsys, fx):
    code, out, err = run(capsys, "solve", fx("ka"), "--semantics", "c19", "--explain-unfounded")
    assert (code, err) == (0, "")
    assert out == "[[]]\nunfounded [[a]]:\n  X=[a] I=[a]\n"

FACTS13 = " ".join(f"a{i}." for i in range(13)) + "\n"
FACTS13_WV = sorted(f"a{i}" for i in range(13))
CHAIN13 = "a0.\n" + "".join(f"a{i + 1} :- a{i}.\n" for i in range(12))
FOUNDEDNESS_CAP = "13 atoms exceed the foundedness cap of 12"


def test_explain_unfounded_over_the_cap_still_solves(capsys, tmp_path):
    path = tmp_path / "facts13.elp"
    path.write_text(FACTS13, encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path), "--explain-unfounded")
    assert code == 0
    assert out == "[[" + ",".join(FACTS13_WV) + "]]\n"
    assert err == f"unfounded certificates skipped: {FOUNDEDNESS_CAP}\n"
    # C19 checks foundedness per component: 13 facts are 13 one-atom components
    code, out, err = run(capsys, "solve", str(path), "--explain-unfounded", "--semantics", "c19")
    assert code == 0
    assert out == "[[" + ",".join(FACTS13_WV) + "]]\n"
    assert err == f"unfounded certificates skipped: {FOUNDEDNESS_CAP}\n"
    # a 13-atom chain is one component, so C19 needs foundedness over all 13 atoms
    chain = tmp_path / "chain13.elp"
    chain.write_text(CHAIN13, encoding="utf-8")
    code, out, err = run(capsys, "solve", str(chain), "--explain-unfounded", "--semantics", "c19")
    assert (code, out, err) == (2, "", f"error: {FOUNDEDNESS_CAP}\n")


def test_explain_unfounded_solves_g91_by_components(capsys, tmp_path):
    # 16 cores are past the whole-program guess cap; the certificates then
    # stop at the foundedness cap over all 16 atoms, not at the guess cap
    path = tmp_path / "blocks8.elp"
    path.write_text("".join(f"a{i} :- not K b{i}. b{i} :- not K a{i}.\n" for i in range(8)), encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path), "--explain-unfounded", "--semantics", "c19")
    assert code == 0
    assert len(out.splitlines()) == 256
    assert err == "unfounded certificates skipped: 16 atoms exceed the foundedness cap of 12\n"


COLLEGE_OUT = "[[eligible(mike),high(mike),interview(mike)],[fair(mike),interview(mike)]]\n"


@pytest.mark.parametrize("semantics", ["g91", "c19"])
def test_explain_unfounded_reuses_the_g91_views(capsys, fx, guess_loops, semantics):
    """The certificates read the G91 views of the solve: under g91 its own,
    under c19 the G91 base of each of college's 2 components."""
    code, out, err = run(capsys, "solve", fx("college"), "--semantics", semantics, "--explain-unfounded")
    assert (code, out, err) == (0, COLLEGE_OUT, "")
    assert sum(guess_loops.values()) == 2


def test_explain_unfounded_over_the_cap_json(capsys, tmp_path):
    path = tmp_path / "facts13.elp"
    path.write_text(FACTS13, encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path), "--explain-unfounded", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["world_views"] == [[FACTS13_WV]]
    assert payload["unfounded_certificates"] is None
    assert payload["unfounded_certificates_skipped"] == FOUNDEDNESS_CAP
    assert err == f"unfounded certificates skipped: {FOUNDEDNESS_CAP}\n"


def test_trace_eht(capsys, fx):
    code, out, _ = run(capsys, "solve", fx("ab"), "--semantics", "f15", "--trace-eht", "--json")
    assert code == 0
    payload = json.loads(out)
    equilibria = [t["world_view"] for t in payload["eht_traces"] if t["equilibrium"]]
    assert [["a"], ["b"]] in equilibria
    rejected = [t for t in payload["eht_traces"] if not t["equilibrium"]]
    assert any(t["world_view"] == [["a", "b"]] for t in rejected)
    assert all("countermodel" in t for t in rejected)



def test_trace_eht_text(capsys, fx):
    code, out, err = run(capsys, "solve", fx("ab"), "--semantics", "f15", "--trace-eht")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "[[a],[b]]",
        "equilibrium: [[a]]",
        "equilibrium: [[a],[b]]",
        "equilibrium: [[b]]",
        "not equilibrium: [[a,b]] countermodel {[a,b]:[a]}",
        "not equilibrium: [[a],[a,b]] countermodel {[a]:[a],[a,b]:[a]}",
        "not equilibrium: [[a,b],[b]] countermodel {[a,b]:[a],[b]:[b]}",
        "not equilibrium: [[a],[a,b],[b]] countermodel {[a]:[a],[a,b]:[a],[b]:[b]}",
    ]

GOLDEN = Path(__file__).parent / "golden"
COLLEGE_U = "U=high(mike),fair(mike),eligible(mike),minority(mike),-eligible(mike),-fair(mike),-high(mike)"


@pytest.mark.parametrize(
    "golden, argv",
    [
        (
            f"solve_{name}_f15_trace_eht.json",
            ["solve", f"{name}.elp", "--semantics", "f15", "--trace-eht", "--json"],
        )
        for name in ("ab", "ka", "ce1a")
    ]
    + [("split_college_enumerate.json", ["split", "college.elp", "--enumerate-splits", "--json"])]
    + [("properties_seed7_count3.json", ["properties", "--json", "--seed", "7", "--count", "3"])]
    # the fixtures where f15 departs from g91
    + [
        (
            f"solve_{name}_f15_trace_eht.json",
            ["solve", f"{name}.elp", "--semantics", "f15", "--trace-eht", "--json"],
        )
        for name in ("ce1b", "ce2")
    ]
    # the text output: the checkmark table and the witness lines
    + [("properties_seed7_count3.txt", ["properties", "--seed", "7", "--count", "3"])]
    # a split with a MATCH, as text and as JSON
    + [
        (f"split_college_g91.{ext}", ["split", "college.elp", "--split", COLLEGE_U, "--semantics", "g91", *flag])
        for ext, flag in (("txt", []), ("json", ["--json"]))
    ],
)
def test_cli_output_matches_golden(capsys, monkeypatch, corpus_dir, golden, argv):
    # run from the corpus directory so the "file" field is the bare name
    monkeypatch.chdir(corpus_dir)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("ext, flag", [("txt", []), ("json", ["--json"])], ids=["txt", "json"])
def test_split_mismatch_matches_golden(capsys, monkeypatch, corpus_dir, ext, flag):
    monkeypatch.chdir(corpus_dir)
    code, out, err = run(capsys, "split", "ce1b.elp", "--split", "U=a,b", "--semantics", "g11", *flag)
    assert (code, err) == (1, "")
    assert out == (GOLDEN / f"split_ce1b_g11.{ext}").read_text(encoding="utf-8")


def test_trace_eht_over_the_cap_still_solves(capsys, fx):
    code, out, err = run(capsys, "solve", fx("pi1"), "--trace-eht")
    assert code == 0
    assert out.strip() == "[[a,d],[b,c],[b,d]]"
    assert err == "eht trace skipped: 4 atoms exceed the EHT cap of 3\n"


def test_trace_eht_over_the_cap_json(capsys, fx):
    code, out, err = run(capsys, "solve", fx("pi1"), "--trace-eht", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["world_views"] == [[["a", "d"], ["b", "c"], ["b", "d"]]]
    assert payload["eht_traces"] is None
    assert payload["eht_trace_skipped"] == "4 atoms exceed the EHT cap of 3"
    assert err == "eht trace skipped: 4 atoms exceed the EHT cap of 3\n"


def test_trace_eht_over_the_cap_f15_refuses(capsys, fx):
    code, out, err = run(capsys, "solve", fx("pi1"), "--semantics", "f15", "--trace-eht")
    assert code == 2
    assert out == ""
    assert err == "error: 4 atoms exceed the EHT cap of 3\n"


def test_split_college_match(capsys, fx):
    code, out, _ = run(
        capsys,
        "split",
        fx("college"),
        "--split",
        "U=high(mike),fair(mike),eligible(mike),minority(mike),"
        "-eligible(mike),-fair(mike),-high(mike)",
        "--semantics",
        "g91",
    )
    assert code == 0
    assert "MATCH" in out
    assert "interview(mike) :- not ⊥, not ⊥." in out


def test_split_builds_the_solutions_once(capsys, fx, monkeypatch):
    """`split` prints the solutions and checks them: one build serves both."""
    calls = []
    real = splitting.epistemic_solutions

    def epistemic_solutions(*args):
        calls.append(args)
        return real(*args)

    for module in (cli, splitting):
        monkeypatch.setattr(module, "epistemic_solutions", epistemic_solutions)
    code, out, _ = run(capsys, "split", fx("ce1b"), "--split", "U=a,b")
    assert code == 0 and out.endswith("MATCH\n")
    assert len(calls) == 1


def test_split_flags_mismatch(capsys, fx):
    code, out, _ = run(capsys, "split", fx("ce1b"), "--split", "U=a,b", "--semantics", "g11")
    assert code == 1
    assert "MISMATCH" in out


def test_split_invalid_set_names_rule(capsys, tmp_path):
    path = tmp_path / "bad_split.elp"
    path.write_text("p | q. s :- p, K q.\n", encoding="utf-8")
    code, _, err = run(capsys, "split", str(path), "--split", "U=p,q")
    assert code == 2
    assert "s :- p, K q." in err


def test_split_refuses_atoms_the_program_does_not_mention(capsys, tmp_path):
    path = tmp_path / "typo.elp"
    path.write_text("a | b. c :- K a.\n", encoding="utf-8")
    code, out, err = run(capsys, "split", str(path), "--split", "U=a,zz,b,yy")
    assert (code, out, err) == (2, "", "error: --split names atoms the program does not mention: yy,zz\n")
    # an empty U names no atom, and splits off nothing
    code, out, _ = run(capsys, "split", str(path), "--split", "U=")
    assert code == 0 and out.startswith("U = {}\n") and out.endswith("MATCH\n")


def test_split_reads_atoms_with_several_arguments(capsys, tmp_path):
    path = tmp_path / "args.elp"
    path.write_text("q(a,b). s :- K q(a,b).\n", encoding="utf-8")
    code, out, _ = run(capsys, "split", str(path), "--split", "U=q(a,b)", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["U"] == ["q(a,b)"] and payload["match"]
    assert payload["bottom"] == ["q(a,b)."] and payload["top"] == ["s :- K q(a,b)."]


def test_split_enumerate(capsys, fx):
    code, out, _ = run(capsys, "split", fx("ce1a"), "--enumerate-splits")
    assert code == 0
    assert out.strip() == "{a,b}"


def test_properties_json(capsys):
    code, out, _ = run(capsys, "properties", "--count", "2", "--seed", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"]["epistemic_splitting"]["g91"]["verdict"] == "holds"
    assert payload["rows"]["epistemic_splitting"]["k15"]["verdict"] == "violated"
    assert all(f["ok"] for f in payload["fixtures"])


def test_properties_semantics_default_is_every_column(capsys):
    with pytest.raises(SystemExit):
        main(["properties", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    columns = ",".join(s.value for s in SEMANTICS_COLUMNS)
    assert f"(default {columns})" in help_text and "(default g91)" not in help_text


def test_properties_counts_a_repeated_semantics_once(capsys):
    code, out, _ = run(capsys, "properties", "--semantics", "g91,g91", "--count", "1", "--json")
    assert code == 0
    assert json.loads(out)["rows"]["supra_s5"]["g91"]["checks"] == 9  # 8 fixtures, 1 drawn
    assert run(capsys, "properties", "--semantics", "g91", "--count", "1", "--json") == (0, out, "")


def test_properties_negative_count_exit_2(capsys):
    code, out, err = run(capsys, "properties", "--semantics", "g91", "--count", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --count must not be negative, got -1\n"


def test_properties_rejects_eliminate_m(capsys):
    # properties loads no program, so there is nothing to rewrite
    with pytest.raises(SystemExit) as exc:
        main(["properties", "--eliminate-m", "--semantics", "g91", "--count", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eliminate-m" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--max-atoms", "9"], ["--corpus", "DIR"]])
def test_properties_rejects_max_atoms_and_corpus(capsys, option):
    """The matrix replays the bundled corpus against frozen world views, so
    neither another corpus nor an atom cap could change its answer."""
    with pytest.raises(SystemExit) as exc:
        main(["properties", *option, "--count", "0"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["split", "ce1b"], "provide --split U=a,b,... or --enumerate-splits"),
        (["conformant", "lamps", "--goal", "light"], "provide --plan a,b (repeatable) or --generate --actions ..."),
        (["conformant", "lamps", "--goal", "light", "--generate"], "--generate requires --actions"),
        (["split", "ce1b", "--enumerate-splits", "--split", "U=a"], "--enumerate-splits takes no --split"),
        (["conformant", "lamps", "--goal", "light", "--generate", "--plan", "x"], "--generate takes no --plan"),
        (["conformant", "lamps", "--goal", "light", "--plan", "x", "--actions", "y"], "--plan takes no --actions"),
    ],
    ids=[
        "split-missing",
        "conformant-missing",
        "generate-missing",
        "enumerate-with-split",
        "generate-with-plan",
        "plan-with-actions",
    ],
)
def test_usage_errors_print_one_line_and_exit_2(capsys, fx, argv, message):
    command, name, *rest = argv
    assert run(capsys, command, fx(name), *rest) == (2, "", f"error: {message}\n")


def test_properties_text_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "properties", "--count", "2", "--seed", "7")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_properties_json_does_not_depend_on_string_hashing():
    """The matrix sample is keyed by the shape's repr, so the same seed
    prints the same bytes whatever the interpreter's hash seed."""
    src = str(Path(elps.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "elps", "properties", "--json", "--seed", "7", "--count", "3"]
    outputs = {
        subprocess.run(
            argv,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in range(3)
    }
    assert outputs == {(GOLDEN / "properties_seed7_count3.json").read_text(encoding="utf-8")}


def test_conformant_check(capsys, fx):
    code, out, _ = run(
        capsys, "conformant", fx("lamps"), "--goal", "light",
        "--plan", "toggle(l1)", "--plan", "toggle(l2)",
    )
    assert code == 1  # one plan fails
    assert "plan {toggle(l1)}: CONFORMANT" in out
    assert "plan {toggle(l2)}: not conformant" in out


def test_conformant_generate(capsys, fx):
    code, out, _ = run(
        capsys, "conformant", fx("lamps"), "--goal", "light",
        "--generate", "--actions", "toggle(l1),toggle(l2)", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["plans"] == [["toggle(l1)"]]
    assert payload["world_views"] == [
        [
            ["-plugged(l2)", "light", "plugged(l1)", "toggle(l1)"],
            ["light", "plugged(l1)", "plugged(l2)", "toggle(l1)"],
        ]
    ]



@pytest.mark.parametrize(
    "actions, expected, exit_code",
    [
        (
            "toggle(l1),toggle(l2)",
            "plan {toggle(l1)}: [[-plugged(l2),light,plugged(l1),toggle(l1)],"
            "[light,plugged(l1),plugged(l2),toggle(l1)]]\n",
            0,
        ),
        ("toggle(l2)", "no conformant plan\n", 1),
    ],
)
def test_conformant_generate_text(capsys, fx, actions, expected, exit_code):
    code, out, _ = run(capsys, "conformant", fx("lamps"), "--goal", "light", "--generate", "--actions", actions)
    assert (code, out) == (exit_code, expected)


def test_conformant_plan_takes_no_split_prefix(capsys, fx):
    """`U=` names a splitting set, so only `--split` strips it."""
    code, out, err = run(capsys, "conformant", fx("lamps"), "--goal", "light", "--plan", "U=toggle(l1)")
    assert (code, out, err) == (2, "", "error: line 1, column 2: unexpected character '='\n")


def test_conformant_plan_of_atoms_with_several_arguments(capsys, tmp_path):
    path = tmp_path / "args.elp"
    path.write_text("g :- q(a,b), r.\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "conformant", str(path), "--goal", "g", "--plan", "q(a,b),r", "--plan", "q(a,b)", "--json"
    )
    plans = json.loads(out)["plans"]
    assert code == 1
    assert [(p["plan"], p["conformant"]) for p in plans] == [(["q(a,b)", "r"], True), (["q(a,b)"], False)]


def test_conformant_warns_for_non_splitting_semantics(capsys, fx):
    code, _, err = run(
        capsys, "conformant", fx("lamps"), "--goal", "light",
        "--plan", "toggle(l1)", "--semantics", "k15",
    )
    assert "warning" in err


def test_unknown_semantics_rejected(capsys, fx):
    code, _, err = run(capsys, "solve", fx("ab"), "--semantics", "nope")
    assert code == 2
    assert "unknown semantics" in err


def test_split_placement_flag_changes_verdict(capsys, fx):
    # bottom placement keeps the subjective constraint with the bottom and the
    # composition trivially matches; top placement exposes the K15 mismatch
    code, out, _ = run(
        capsys, "split", fx("ce2"), "--split", "U=a,b",
        "--placement", "bottom", "--semantics", "k15",
    )
    assert code == 0 and "MATCH" in out
    code, out, _ = run(
        capsys, "split", fx("ce2"), "--split", "U=a,b",
        "--placement", "top", "--semantics", "k15",
    )
    assert code == 1 and "MISMATCH" in out


def test_properties_aborts_on_tampered_corpus(capsys, monkeypatch, tmp_path, corpus_dir):
    for path in corpus_dir.glob("*.elp"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "ab.elp").write_text("a.\n", encoding="utf-8")
    monkeypatch.setattr(harness, "fixtures_dir", lambda: tmp_path)
    code, out, err = run(capsys, "properties", "--count", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: fixture expectations failed:\nab/")
    assert err.count("fixture expectations failed") == 1
    assert "expected" in err


def test_solve_accepts_m_under_g91(capsys, tmp_path):
    path = tmp_path / "m.elp"
    path.write_text("a :- M a.\n", encoding="utf-8")
    code, out, _ = run(capsys, "solve", str(path), "--semantics", "g91")
    assert code == 0
    assert out.splitlines() == ["[[]]", "[[a]]"]


def test_solve_mixed_argument_grounding(capsys, tmp_path):
    path = tmp_path / "mixed.elp"
    path.write_text("p(X, c) :- q(X). q(d).\n", encoding="utf-8")
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert "p(d,c)" in out and "q(d)" in out


def test_help_screens(capsys):
    for argv in (["--help"], ["solve", "--help"], ["split", "--help"],
                 ["properties", "--help"], ["conformant", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


def test_readme_synopsis_names_every_option():
    """Each long option of a subcommand appears in that subcommand's lines
    of the README's CLI synopsis."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    synopsis = text.split("## CLI", 1)[1].split("```")[1]
    lines: dict[str, str] = {}
    command = None
    for line in synopsis.splitlines():
        if line.startswith("elps "):
            command = line.split()[1]
        if command:
            lines[command] = lines.get(command, "") + line + "\n"
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(lines) == set(subparsers.choices)
    for command, parser in subparsers.choices.items():
        options = {o for a in parser._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        missing = sorted(o for o in options if o not in lines[command])
        assert not missing, (command, missing)
        # and every option the synopsis names exists, so a removed one cannot linger
        named = set(re.findall(r"--[a-z][a-z-]*", lines[command]))
        assert named <= options, (command, sorted(named - options))


SOLVE_GOLDEN = GOLDEN / "solve_fixtures.json"
FIXTURE_NAMES = ("ab", "ce1a", "ce1b", "ce2", "college", "college3", "ka", "lamps", "pi1")


def solve_runs() -> list[list[str]]:
    """argv of every `elps solve` run the golden records, after the fixture
    path: each fixture under each semantics, plain and as JSON, and with
    unfounded certificates under the two semantics that read them."""
    runs = [
        ["--semantics", column.value, *flags]
        for column in SEMANTICS_COLUMNS
        for flags in ([], ["--json"])
    ]
    runs += [["--semantics", sem, "--explain-unfounded", "--json"] for sem in ("g91", "c19")]
    return [[f"{name}.elp", *argv] for name in FIXTURE_NAMES for argv in runs]


def solve_outputs(corpus_dir: Path) -> dict[str, list]:
    """{argv: [exit code, stdout, stderr]}.  Each run is given the fixture's
    full path, which the output then names by the bare file name."""
    prefix = f"{corpus_dir}/"
    outputs = {}
    for argv in solve_runs():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["solve", prefix + argv[0], *argv[1:]])
        outputs[" ".join(argv)] = [code, out.getvalue().replace(prefix, ""), err.getvalue().replace(prefix, "")]
    return outputs


def test_solve_matches_golden(corpus_dir):
    assert solve_outputs(corpus_dir) == json.loads(SOLVE_GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    # rewrite the solve golden: PYTHONPATH=src python tests/test_cli.py
    from elps.harness import fixtures_dir

    outputs = solve_outputs(fixtures_dir())
    SOLVE_GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
