"""Command-line front end.

Subcommands:
  solve       world views of a program under one semantics
  split       epistemic splitting decomposition and composed solutions
  properties  fixture expectations + randomized property matrix
  conformant  conformant-plan checking / generate-define-test over world views

Exit codes for solve: 0 (some world view), 1 (none), 2 (error).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import objective
from .eht import total_model_countermodels
from .engine import REGISTRY, compute_world_views, solve_memo
from .errors import CapacityError, ElpError
from .foundedness import unfounded_certificate
from .harness import PROPERTY_ROWS, SEMANTICS_COLUMNS, build_property_matrix
from .modal import world_views_to_json, wv_key
from .planning import generate_conformant_world_views, is_conformant_plan, plan_of_world_view
from .semantics import SemanticsId
from .splitting import (
    combine,
    enumerate_epistemic_splitting_sets,
    epistemic_solutions,
    epistemic_split,
    equation_report,
    top_simplification,
)
from .syntax import Program, eliminate_m, interp_key, load_program, parse_atom


def _load(path: str, args) -> Program:
    program = load_program(Path(path).read_text(encoding="utf-8"))
    return eliminate_m(program) if args.eliminate_m else program


def _parse_atom_set(text: str):
    """Atoms separated by commas outside parentheses, as in `U=q(a,b),r`."""
    parts = re.split(r",(?![^()]*\))", text.removeprefix("U="))
    return frozenset(parse_atom(part.strip()) for part in parts if part.strip())


def _eht_traces(candidates) -> list[dict]:
    """Equilibria first (sorted), then the candidates rejected by a smaller
    "here" model, with the countermodel, in enumeration order."""
    traces = [
        {"world_view": wv.as_lists(), "equilibrium": True}
        for wv in sorted((wv for wv, h in candidates if h is None), key=wv_key)
    ]
    for wv, h in candidates:
        if h is not None:
            traces.append(
                {
                    "world_view": wv.as_lists(),
                    "equilibrium": False,
                    "countermodel": {
                        "[" + ",".join(interp_key(i)) + "]": list(interp_key(here))
                        for i, here in sorted(h.items(), key=lambda kv: interp_key(kv[0]))
                    },
                }
            )
    return traces


def _unless_capped(payload: dict, key: str, skipped_key: str, label: str, compute) -> None:
    """`payload[key] = compute()`, unless a cap puts it out of reach: then the
    world views still stand, stderr gets `<label> skipped: <msg>`,
    `payload[key]` is None and `payload[skipped_key]` the message."""
    try:
        payload[key] = compute()
    except CapacityError as exc:
        print(f"{label} skipped: {exc}", file=sys.stderr)
        payload[key] = None
        payload[skipped_key] = str(exc)


def cmd_solve(args) -> int:
    semantics = SemanticsId.from_string(args.semantics)
    program = _load(args.file, args)
    wvs = sorted(compute_world_views(program, semantics), key=wv_key)
    payload = {
        "file": args.file,
        "semantics": semantics.value,
        "world_views": world_views_to_json(wvs),
    }
    if args.explain_unfounded:
        # the certificates read the G91 views, which C19 and G91 have solved
        # in the command's run memo
        _unless_capped(
            payload,
            "unfounded_certificates",
            "unfounded_certificates_skipped",
            "unfounded certificates",
            lambda: [
                {"world_view": wv.as_lists(), "pairs": pairs}
                for wv in sorted(compute_world_views(program, SemanticsId.G91), key=wv_key)
                if (pairs := unfounded_certificate(program, wv))
            ],
        )
    if args.trace_eht:
        _unless_capped(
            payload,
            "eht_traces",
            "eht_trace_skipped",
            "eht trace",
            lambda: _eht_traces(total_model_countermodels(program)),
        )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for wv in wvs:
            print(wv)
        if args.explain_unfounded:
            for cert in payload["unfounded_certificates"] or []:
                print(f"unfounded {cert['world_view']}:")
                for pair in cert["pairs"]:
                    print(f"  X={pair['X']} I={pair['I']}")
        if args.trace_eht:
            for trace in payload["eht_traces"] or []:
                if trace["equilibrium"]:
                    print(f"equilibrium: {trace['world_view']}")
                else:
                    print(f"not equilibrium: {trace['world_view']} countermodel {trace['countermodel']}")
    return 0 if wvs else 1


def cmd_split(args) -> int:
    semantics = SemanticsId.from_string(args.semantics)
    program = _load(args.file, args)
    if args.enumerate_splits:
        sets = sorted(
            enumerate_epistemic_splitting_sets(program),
            key=lambda u: (len(u), interp_key(u)),
        )
        if args.json:
            print(json.dumps([list(interp_key(u)) for u in sets]))
        else:
            for u in sets:
                print("{" + ",".join(interp_key(u)) + "}")
        return 0
    if not args.split:
        raise ValueError("provide --split U=a,b,... or --enumerate-splits")
    U = _parse_atom_set(args.split)
    unknown = ",".join(interp_key(U - program.atoms))
    if unknown:
        raise ValueError(f"--split names atoms the program does not mention: {unknown}")
    split = epistemic_split(program, U, args.placement)
    solutions = epistemic_solutions(program, U, semantics, args.placement)
    direct = compute_world_views(program, semantics)
    report = equation_report(
        "epistemic_splitting", semantics, program, direct, (combine(*pair) for pair in solutions), U=U
    )
    payload = {
        "file": args.file,
        "semantics": semantics.value,
        "U": list(interp_key(U)),
        "bottom": [str(r) for r in split.bottom.rules],
        "top": [str(r) for r in split.top.rules],
        "solutions": [
            {
                "wv_bottom": wv_b.as_lists(),
                "top_simplified": [str(r) for r in top_simplification(split, wv_b).rules],
                "wv_top": wv_t.as_lists(),
                "combined": combine(wv_b, wv_t).as_lists(),
            }
            for wv_b, wv_t in sorted(solutions, key=lambda pair: (wv_key(pair[0]), wv_key(pair[1])))
        ],
        "combined": report.rhs,
        "direct": report.lhs,
        "match": report.holds,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"U = {{{','.join(interp_key(U))}}}")
        print("bottom:")
        for r in split.bottom.rules:
            print(f"  {r}")
        print("top:")
        for r in split.top.rules:
            print(f"  {r}")
        for s in payload["solutions"]:
            print(f"wv_bottom {s['wv_bottom']}")
            for r in s["top_simplified"]:
                print(f"  E: {r}")
            print(f"  wv_top {s['wv_top']} -> combined {s['combined']}")
        print(f"combined world views: {payload['combined']}")
        print(f"direct world views:   {payload['direct']}")
        print("MATCH" if report.holds else "MISMATCH: composed solutions differ from the direct world views")
    return 0 if report.holds else 1


def cmd_properties(args) -> int:
    semantics_list = [SemanticsId.from_string(s) for s in args.semantics.split(",")]
    matrix = build_property_matrix(semantics_list=semantics_list, seed=args.seed, count=args.count)
    if args.json:
        print(json.dumps(matrix.to_json(), indent=2, sort_keys=True))
    else:
        print(matrix.render())
        print()
        for (prop, sem), cell in sorted(matrix.cells.items()):
            if prop not in PROPERTY_ROWS:
                continue  # the foundness column has no witness lines
            for violation in cell.violations:
                print(f"witness [{prop} / {sem}]:")
                for line in violation.program.splitlines():
                    print(f"    {line}")
                if violation.U:
                    print(f"    U = {violation.U}")
                print(f"    lhs={violation.lhs} rhs={violation.rhs}")
    return 0


def cmd_conformant(args) -> int:
    semantics = SemanticsId.from_string(args.semantics)
    if not REGISTRY[semantics].splitting:
        print(
            f"warning: {semantics} does not satisfy epistemic splitting; "
            "conformant encodings may behave non-modularly",
            file=sys.stderr,
        )
    program = _load(args.file, args)
    goal = parse_atom(args.goal)
    payload = {"file": args.file, "semantics": semantics.value, "goal": str(goal)}
    if args.generate:
        if not args.actions:
            raise ValueError("--generate requires --actions")
        actions = _parse_atom_set(args.actions)
        surviving = sorted(
            generate_conformant_world_views(program, actions, goal, semantics), key=wv_key
        )
        payload["mode"] = "generate"
        payload["world_views"] = world_views_to_json(surviving)
        payload["plans"] = [list(interp_key(plan_of_world_view(wv, actions))) for wv in surviving]
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for wv, plan in zip(surviving, payload["plans"]):
                print(f"plan {{{','.join(plan)}}}: {wv}")
            if not surviving:
                print("no conformant plan")
        return 0 if surviving else 1
    if not args.plan:
        raise ValueError("provide --plan a,b (repeatable) or --generate --actions ...")
    verdicts = []
    for plan_text in args.plan:
        plan = _parse_atom_set(plan_text)
        ok, wvs = is_conformant_plan(program, plan, goal, semantics)
        verdicts.append(
            {
                "plan": list(interp_key(plan)),
                "conformant": ok,
                "world_views": world_views_to_json(wvs),
            }
        )
    payload["mode"] = "check"
    payload["plans"] = verdicts
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for v in verdicts:
            status = "CONFORMANT" if v["conformant"] else "not conformant"
            print(f"plan {{{','.join(v['plan'])}}}: {status}")
    return 0 if all(v["conformant"] for v in verdicts) else 1


def _add_common(
    parser: argparse.ArgumentParser, semantics="g91", names="g91|g11|k15|s17|f15|c19", program=True
):
    """The options of every subcommand.  With `program`, also the program
    file, its rewriting and the atom cap of its stable-model searches, for
    the subcommands that `_load` one."""
    if program:
        parser.add_argument("file")
        parser.add_argument("--eliminate-m", action="store_true", help="rewrite M-literals into K-literals")
    parser.add_argument("--semantics", default=semantics, help=f"{names} (default {semantics})")
    if program:
        parser.add_argument("--max-atoms", type=int, default=None, help="exhaustive-search cap")
    parser.add_argument("--json", action="store_true", help="JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elps", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute world views")
    _add_common(p)
    p.add_argument("--explain-unfounded", action="store_true", help="print unfounded-set certificates")
    p.add_argument("--trace-eht", action="store_true", help="print equilibrium countermodels")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("split", help="epistemic splitting decomposition")
    _add_common(p)
    p.add_argument("--split", help="U=a,b,... the splitting set")
    p.add_argument("--placement", choices=["bottom", "top"], default="bottom",
                   help="where subjective constraints on U go")
    p.add_argument("--enumerate-splits", action="store_true", help="list all proper splitting sets")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("properties", help="fixture suite + property matrix")
    columns = ",".join(s.value for s in SEMANTICS_COLUMNS)
    _add_common(p, columns, "comma-separated matrix columns, repeats dropped", program=False)
    p.add_argument("--seed", type=int, default=2025)
    p.add_argument("--count", type=int, default=20, help="random programs per matrix cell")
    p.set_defaults(func=cmd_properties)

    p = sub.add_parser("conformant", help="conformant planning over world views")
    _add_common(p)
    p.add_argument("--goal", required=True, help="goal atom")
    p.add_argument("--plan", action="append", default=[], help="action set a,b (repeatable)")
    p.add_argument("--generate", action="store_true", help="generate-define-test mode")
    p.add_argument("--actions", default=None, help="action atoms for --generate")
    p.set_defaults(func=cmd_conformant)
    return parser


def main(argv=None) -> int:
    """Run one command in one run memo (`engine.solve_memo`).  `--max-atoms`
    sets `objective.MAX_ATOMS` for the command before the memo opens, and the
    old cap is back when it returns.  An `ElpError`, `ValueError` or `OSError`
    is printed as `error: ...` with exit code 2."""
    args = build_parser().parse_args(argv)
    cap = getattr(args, "max_atoms", None)
    previous_cap = objective.MAX_ATOMS
    try:
        if cap is not None:
            if cap < 0:
                raise ValueError(f"--max-atoms must not be negative, got {cap}")
            objective.MAX_ATOMS = cap
        with solve_memo():
            return args.func(args)
    except (ElpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        objective.MAX_ATOMS = previous_cap


if __name__ == "__main__":
    sys.exit(main())
