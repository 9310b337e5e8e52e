"""Self-tests of the benchmark's references, generator and tracer.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import elps
import spans
import workloads as W
from elps.objective import stable_models_ref

ROOT = Path(__file__).resolve().parents[2]


def lucas(k):
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("k", range(3, 10))
def test_closed_form_counts(k):
    assert len(W.colouring_models(k, "p")) == 2**k + 2 * (-1) ** k
    assert len(W.independent_set_models(k, "p")) == lucas(k)


def _solve_ref(rules):
    program = elps.load_program("\n".join(rules) + "\n")
    return frozenset(frozenset(str(a) for a in m) for m in stable_models_ref(program))


@pytest.mark.parametrize("k", [3, 4])
def test_independent_sets_against_reference_enumerator(k):
    prefix = "p_"
    assert _solve_ref(W.independent_set_program(k, prefix)) == frozenset(
        W.independent_set_models(k, prefix)
    )


def test_colouring_against_reference_enumerator():
    # 3k atoms, so the smallest cycle C_3 already has 9
    prefix = "p_"
    assert _solve_ref(W.colouring_program(3, prefix)) == frozenset(W.colouring_models(3, prefix))


@pytest.mark.parametrize("semantics", ["g91", "c19"])
def test_ring_closed_form_against_brute_force(semantics):
    prefix = "p_"
    program = elps.load_program("\n".join(W.ring_program(3, prefix)) + "\n")
    found = elps.brute_force_world_views(program, elps.SemanticsId(semantics))
    assert W.canonical(found) == W.ring_world_views(3, prefix)


def _small_unions(n):
    rng = random.Random(7)
    for i in range(n):
        sizes = rng.choice([(1, 2), (2, 1), (1, 1, 1)])
        names = iter("abc")
        yield [
            (W.random_block(rng, size, rng.randint(1, 2)), [next(names) for _ in range(size)])
            for size in sizes
        ]


@pytest.mark.parametrize("semantics", W.SOLVER_SEMANTICS)
def test_product_rule_against_brute_force(semantics):
    oracle = W.BlockOracle()
    for blocks in _small_unions(40):
        text = "\n".join(r for rules, names in blocks for r in W.render_block(rules, names)) + "\n"
        whole = elps.brute_force_world_views(elps.load_program(text), elps.SemanticsId(semantics))
        assert W.canonical(whole) == oracle.union_answer(blocks, semantics), text


@pytest.mark.parametrize("shape", W.UNION_SHAPES)
def test_unions_stay_inside_the_stated_sizes(shape):
    rng = random.Random(3)
    for i in range(50):
        blocks = W.random_union(rng, shape, f"u{i}_")
        atoms = sum(len(names) for _, names in blocks)
        cores = sum(len(W.block_cores(rules)) for rules, _ in blocks)
        assert 3 <= len(blocks) <= 4 and 6 <= atoms <= 9 and 5 <= cores <= 9
        assert [(len(n), len(W.block_cores(r))) for r, n in blocks] == list(shape)


DIGEST_SNIPPET = """
import hashlib, sys
sys.path[:0] = ["perfbench", "src"]
import workloads as W
h = hashlib.sha256()
for name, make in W.WORKLOADS.items():
    cycles = make(5)
    for _ in range(3):
        for op in next(cycles):
            if isinstance(op, W.MatrixOp):
                h.update(str(op.matrix_seed).encode())
                continue
            h.update(op.text.encode() + op.semantics.encode())
            answer = sorted(sorted(sorted(i) for i in view) for view in op.reference())
            h.update(repr(answer).encode())
print(h.hexdigest())
"""


def test_same_seed_gives_identical_inputs_and_references_across_interpreters():
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", DIGEST_SNIPPET], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True,
        )
        digests.add(done.stdout.strip())
    assert len(digests) == 1


@pytest.mark.parametrize("workload", ["asp_connected", "epistemic_blocks", "epistemic_ring"])
def test_every_operation_has_fresh_atom_names(workload):
    cycles = W.WORKLOADS[workload](9)
    seen = set()
    for _ in range(4):
        for op in next(cycles):
            names = set(re.findall(r"\b[a-z][A-Za-z0-9_]*\b", op.text)) - {"not"}
            assert names and not names & seen
            seen |= names


def test_different_seeds_give_different_programs():
    first = next(W.epistemic_blocks(1))[0].text
    second = next(W.epistemic_blocks(2))[0].text
    assert first != second


def test_tracer_rebinds_every_importer_and_restores():
    import elps.harness  # noqa: F401
    from elps import objective, semantics

    original = objective.stable_models
    tracer = spans.Tracer()
    with tracer:
        assert semantics.stable_models is not original
        assert objective.stable_models is semantics.stable_models
        program = elps.load_program("a :- not K b.\nb :- not K a.\n")
        elps.compute_world_views(program, elps.SemanticsId.C19)
    assert semantics.stable_models is original and objective.stable_models is original
    stats = tracer.aggregate()
    assert stats["engine.compute_world_views"]["calls"] == 1
    assert stats["semantics.semantics_reduct"]["calls"] == 4  # 2 cores, 4 guesses
    for entry in stats.values():
        assert 0 <= entry["self_s"] <= entry["total_s"] + 1e-9
    metrics = spans.layer_metrics(tracer)
    assert metrics["engine.compute_world_views.c19.total_s"] > 0
    assert metrics["foundedness.is_founded.calls"] >= 1


def test_matrix_runs_make_a_fixed_number_of_builds():
    import run

    assert W.op_budget("property_matrix", 25) == 13
    assert W.op_budget("epistemic_ring", 25) is None
    outcomes = []
    for seconds in (0.0, 60.0):
        records, *_ = run.timed_phase(W.property_matrix(7), seconds, budget=2)
        assert len(records) == 2
        outcomes.append(run.check(records)[:3])
    assert outcomes[0] == outcomes[1]
