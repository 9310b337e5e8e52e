import json
from pathlib import Path

import pytest

from elps.cli import main


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


def test_max_atoms_env_overrides(capsys, fx, monkeypatch):
    monkeypatch.setenv("ELP_MAX_ATOMS", "2")
    code, _, err = run(capsys, "solve", fx("pi1"))
    assert code == 2
    assert "cap" in err


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


def test_trace_eht(capsys, fx):
    code, out, _ = run(capsys, "solve", fx("ab"), "--semantics", "f15", "--trace-eht", "--json")
    assert code == 0
    payload = json.loads(out)
    equilibria = [t["world_view"] for t in payload["eht_traces"] if t["equilibrium"]]
    assert [["a"], ["b"]] in equilibria
    rejected = [t for t in payload["eht_traces"] if not t["equilibrium"]]
    assert any(t["world_view"] == [["a", "b"]] for t in rejected)
    assert all("countermodel" in t for t in rejected)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, argv",
    [
        (
            f"solve_{name}_f15_trace_eht.json",
            ["solve", f"{name}.elp", "--semantics", "f15", "--trace-eht", "--json"],
        )
        for name in ("ab", "ka", "ce1a")
    ]
    + [("split_college_enumerate.json", ["split", "college.elp", "--enumerate-splits", "--json"])],
)
def test_cli_output_matches_golden(capsys, monkeypatch, corpus_dir, golden, argv):
    # run from the corpus directory so the "file" field is the bare name
    monkeypatch.chdir(corpus_dir)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


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


def test_properties_text_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "properties", "--count", "2", "--seed", "7")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


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


def test_properties_aborts_on_tampered_corpus(capsys, tmp_path, corpus_dir):
    for path in corpus_dir.glob("*.elp"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "ab.elp").write_text("a.\n", encoding="utf-8")
    code, _, err = run(capsys, "properties", "--count", "1", "--corpus", str(tmp_path))
    assert code == 2
    assert "fixture expectations failed" in err
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
