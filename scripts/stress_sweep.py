#!/usr/bin/env python3
"""Randomized cross-semantics stress sweep.

Checks, over seeded random programs:
  - C19 ⊆ G91 and S17 ⊆ K15; supra-S5 for every returned world view,
  - epistemic splitting and subjective constraint monotonicity hold for
    G91 and C19 on every valid splitting set / random constraint,
  - F15 selection stays inside the equilibrium models; the EHT total models
    are exactly the candidate world views that are S5 models, in
    enumeration order, and every countermodel is a non-total h with
    h(I) ⊆ I at each point; the equilibria found among the per-signature
    stable points are those of the total models, at 3 atoms and on a few
    4-atom programs under the raised EHT cap,
  - guess-based world views match the brute-force oracle, also under G91 and
    C19 on programs whose rules carry 2-3 subjective literals (where many
    guesses share one reduct) and on programs where every K core has its M
    twin (where the loop skips each guess with `K l` true and `M l` false),
    and foundedness matches its brute-force search on K-only programs and on
    programs with M literals,
  - G91 and C19 solved component by component agree with the direct
    whole-program guess loop, which shares no code with splitting: on
    stratified programs, which have at most one world view, and on unions of
    3-5 random blocks (8-12 atoms) that read each other through subjective
    literals, beyond the reach of the brute-force oracle,
  - the ring `a_i :- not K not a_i, not K a_{i+1}.` for k = 4..7, in a
    shuffled rule order, has under G91 and C19 exactly the singleton views
    [I] for I an independent set of the cycle C_k (its closed form).

Any violation raises with the offending program attached.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from elps.config import DEFAULT_LIMITS, SolverLimits
from elps.eht import equilibrium_eht_models, f15_world_views, total_model_countermodels
from elps.engine import REGISTRY, brute_force_world_views, compute_world_views
from elps.errors import UnsupportedMLiteral
from elps.foundedness import is_founded, is_founded_brute
from elps.generators import (
    GeneratorShape,
    random_block_union,
    random_epistemic_program,
    random_stratified_program,
    random_subjective_constraint,
)
from elps.modal import WorldView, candidate_world_views, is_s5_model
from elps.objective import classical_satisfies
from elps.semantics import SemanticsId, s17_world_views, subjective_cores, world_views
from elps.splitting import (
    check_constraint_monotonicity,
    check_epistemic_splitting,
    enumerate_epistemic_splitting_sets,
    stratify,
)
from elps.syntax import Atom, Program, Rule, SubjLit, atom_key, eliminate_m, parse_program, subsets


def check(ok: bool, program, *context) -> None:
    """Raise with the offending program; unlike `assert`, `python -O` keeps it."""
    if not ok:
        raise RuntimeError(f"stress sweep violation {context}:\n{program}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=987654)
    parser.add_argument("--trials", type=int, default=200, help="programs per phase")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    t0 = time.time()
    stats = dict.fromkeys(("mixed", "splitting", "scm", "f15", "oracle", "twins", "stratified", "split", "ring"), 0)

    shape4 = GeneratorShape(n_atoms=4, max_rules=5, subjective_prob=0.5, m_prob=0.25)
    for _ in range(args.trials):
        program = random_epistemic_program(rng, shape4)
        stats["mixed"] += 1
        g91 = world_views(program, SemanticsId.G91)
        check(compute_world_views(program, SemanticsId.C19) <= g91, program, "C19 within G91")
        for wv in g91:
            check(is_s5_model(wv, program), program, "supra-S5", str(wv))
        try:
            s17_in_k15 = s17_world_views(program) <= world_views(program, SemanticsId.K15)
        except UnsupportedMLiteral:
            rewritten = eliminate_m(program)
            s17_in_k15 = s17_world_views(rewritten) <= world_views(rewritten, SemanticsId.K15)
        check(s17_in_k15, program, "S17 within K15")
        for u in enumerate_epistemic_splitting_sets(program):
            for semantics in (SemanticsId.G91, SemanticsId.C19):
                report = check_epistemic_splitting(program, u, semantics)
                check(report.holds, program, "epistemic splitting", report.U, semantics.value)
                stats["splitting"] += 1
        constraint = random_subjective_constraint(rng, program, shape4)
        for semantics in (SemanticsId.G91, SemanticsId.C19):
            report = check_constraint_monotonicity(program, constraint, semantics)
            check(report.holds, program, "monotonicity", str(constraint), semantics.value)
            stats["scm"] += 1

    shape3 = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5, m_prob=0.3)
    for _ in range(args.trials):
        program = random_epistemic_program(rng, shape3)
        stats["f15"] += 1
        total = total_model_countermodels(program)
        atoms = sorted(program.atoms, key=atom_key)
        s5 = [wv for wv in candidate_world_views(subsets(atoms)) if is_s5_model(wv, program)]
        check([wv for wv, _ in total] == s5, program, "EHT total models are the S5 models")
        for wv, h in total:
            if h is not None:
                sub = set(h) == wv.interps and all(h[i] <= i for i in wv.interps)
                check(sub and any(h[i] != i for i in wv.interps), program, "countermodel", str(wv))
        equilibria = {wv for wv, h in total if h is None}
        check(equilibrium_eht_models(program) == equilibria, program, "equilibria of the total models")
        check(f15_world_views(program) <= equilibria, program, "F15 within equilibria")

    # where the rules with no subjective literal pass all 16 points, a 4-atom
    # program can have 2^16 - 1 total models, 10 s or more to decide; these
    # let at most 12 points pass
    limits4 = SolverLimits(f15_max_atoms=4)
    shape_f4 = GeneratorShape(n_atoms=4, max_rules=6, subjective_prob=0.5, m_prob=0.25, constraint_prob=0.3)
    for _ in range(max(1, args.trials // 10)):
        while True:
            program = random_epistemic_program(rng, shape_f4)
            objective = Program.of(r for r in program.rules if not r.body_sub)
            passing = sum(classical_satisfies(i, objective) for i in subsets(program.atoms))
            if len(program.atoms) == 4 and passing <= 12:
                break
        stats["f15"] += 1
        equilibria = {wv for wv, h in total_model_countermodels(program, limits4) if h is None}
        same = equilibrium_eht_models(program, limits4) == equilibria
        check(same, program, "equilibria of the total models at 4 atoms")

    shape_k = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5)
    for _ in range(args.trials):
        program = random_epistemic_program(rng, shape_k)
        stats["oracle"] += 1
        for semantics in (SemanticsId.G91, SemanticsId.G11, SemanticsId.K15):
            same = world_views(program, semantics) == brute_force_world_views(program, semantics)
            check(same, program, "oracle", semantics.value)
        for wv in world_views(program, SemanticsId.G91):
            same = is_founded(program, wv) == is_founded_brute(program, wv)
            check(same, program, "foundedness oracle", str(wv))

    # 2-3 subjective literals per rule: many guesses keep the same rules,
    # so the G91 loop searches once for many guesses
    shape_many = GeneratorShape(
        n_atoms=3, max_rules=3, max_body=3, subjective_prob=0.5, m_prob=0.2, min_subjective=2
    )
    for _ in range(args.trials):
        program = random_epistemic_program(rng, shape_many)
        stats["oracle"] += 1
        for semantics in (SemanticsId.G91, SemanticsId.C19):
            same = compute_world_views(program, semantics) == brute_force_world_views(program, semantics)
            check(same, program, "oracle, 2-3 subjective literals per rule", semantics.value)

    # the fixpoint reads `M a`, `not M` and `K not a` through masks
    shape_m = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5, m_prob=0.3)
    for _ in range(args.trials):
        program = random_epistemic_program(rng, shape_m)
        stats["oracle"] += 1
        for wv in world_views(program, SemanticsId.G91):
            same = is_founded(program, wv) == is_founded_brute(program, wv)
            check(same, program, "foundedness oracle with M", str(wv))

    # the references never split: the registry's whole-program solvers
    direct = {semantics: REGISTRY[semantics].direct for semantics in (SemanticsId.G91, SemanticsId.C19)}

    # each K core gets its M twin, `M l` or `not M l` added to a random rule,
    # so the loop skips every guess that makes a `K l` true and its `M l` false
    shape_t = GeneratorShape(n_atoms=3, max_rules=4, subjective_prob=0.5, m_prob=0.3)
    for _ in range(args.trials):
        while True:
            program = random_epistemic_program(rng, shape_t)
            if any(core.modality == "K" for core in subjective_cores(program)):
                break
        rules = list(program.rules)
        for core in subjective_cores(program):
            if core.modality == "K":
                i = rng.randrange(len(rules))
                twin = SubjLit("M", core.inner, neg=rng.random() < 0.5)
                rules[i] = Rule(rules[i].head, (*rules[i].body, twin))
        program = Program.of(rules)
        stats["twins"] += 1
        for semantics, solve in direct.items():
            expected = brute_force_world_views(program, semantics)
            same = solve(program, DEFAULT_LIMITS) == expected
            check(same, program, "oracle, K cores with M twins", semantics.value)
            same = compute_world_views(program, semantics) == expected
            check(same, program, "oracle, K cores with M twins, by components", semantics.value)

    shape_s = GeneratorShape(n_atoms=6, max_rules=6, subjective_prob=0.5, m_prob=0.25)
    for _ in range(args.trials):
        program = random_stratified_program(rng, shape_s, n_layers=3)
        stats["stratified"] += 1
        stratify(program)
        for semantics, solve in direct.items():
            views = compute_world_views(program, semantics)
            check(len(views) <= 1, program, "stratified uniqueness", semantics.value)
            same = views == solve(program, DEFAULT_LIMITS)
            check(same, program, "stratified: components vs direct loop", semantics.value)

    shape_b = GeneratorShape(max_rules=3, max_body=2, subjective_prob=0.5, m_prob=0.15, constraint_prob=0.2)
    for _ in range(args.trials):
        while True:  # at most 7 cores keep the direct loop within seconds
            sizes = [rng.randint(2, 3) for _ in range(rng.randint(3, 5))]
            if 8 <= sum(sizes) <= 12:
                program = random_block_union(rng, shape_b, sizes, cross_prob=0.5)
                if len(subjective_cores(program)) <= 7:
                    break
        stats["split"] += 1
        for semantics, solve in direct.items():
            same = compute_world_views(program, semantics) == solve(program, DEFAULT_LIMITS)
            check(same, program, "components vs direct loop", semantics.value)

    # 2k cores in one component: 4^k guesses, 2^k distinct G91 reducts
    for k in range(4, 8):
        rules = [f"a{i} :- not K not a{i}, not K a{(i + 1) % k}." for i in range(k)]
        rng.shuffle(rules)
        program = parse_program(" ".join(rules))
        independent = [
            s for s in range(1 << k) if not any(s >> i & 1 and s >> (i + 1) % k & 1 for i in range(k))
        ]
        expected = {WorldView.of([[Atom(f"a{i}") for i in range(k) if s >> i & 1]]) for s in independent}
        limits = SolverLimits(max_guesses=1 << (2 * k))
        stats["ring"] += 1
        for semantics in (SemanticsId.G91, SemanticsId.C19):
            same = compute_world_views(program, semantics, limits) == expected
            check(same, program, "ring closed form", k, semantics.value)

    print(f"stress sweep clean: {stats} in {time.time() - t0:.1f}s (seed={args.seed})")


if __name__ == "__main__":
    main()
