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
from .harness import SEMANTICS_COLUMNS, build_property_matrix
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
    """Atoms separated by commas outside parentheses, as in `q(a,b),r`."""
    parts = re.split(r",(?![^()]*\))", text)
    return frozenset(parse_atom(part.strip()) for part in parts if part.strip())


def _show(value) -> str:
    """Compact JSON without quotes (atom names have none): a world view's
    `as_lists()` shows as the world view prints."""
    return json.dumps(value, separators=(",", ":")).replace('"', "")


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


def cmd_solve(args):
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
    lines = [str(wv) for wv in wvs]
    for cert in payload.get("unfounded_certificates") or []:
        lines.append(f"unfounded {_show(cert['world_view'])}:")
        lines += [f"  X={_show(pair['X'])} I={_show(pair['I'])}" for pair in cert["pairs"]]
    for trace in payload.get("eht_traces") or []:
        if trace["equilibrium"]:
            lines.append(f"equilibrium: {_show(trace['world_view'])}")
        else:
            shown = f"{_show(trace['world_view'])} countermodel {_show(trace['countermodel'])}"
            lines.append(f"not equilibrium: {shown}")
    return (0 if wvs else 1), payload, lines


def cmd_split(args):
    semantics = SemanticsId.from_string(args.semantics)
    program = _load(args.file, args)
    if args.enumerate_splits:
        if args.split:
            raise ValueError("--enumerate-splits takes no --split")
        sets = [list(interp_key(u)) for u in enumerate_epistemic_splitting_sets(program)]
        sets.sort(key=lambda u: (len(u), u))
        return 0, sets, ["{" + ",".join(u) + "}" for u in sets]
    if not args.split:
        raise ValueError("provide --split U=a,b,... or --enumerate-splits")
    U = _parse_atom_set(args.split.removeprefix("U="))
    unknown = ",".join(interp_key(U - program.atoms))
    if unknown:
        raise ValueError(f"--split names atoms the program does not mention: {unknown}")
    split = epistemic_split(program, U, args.placement)
    solutions = epistemic_solutions(program, U, semantics, args.placement)
    direct = compute_world_views(program, semantics)
    report = equation_report(
        "epistemic_splitting", semantics, program, direct, (combine(*pair) for pair in solutions), U=U
    )
    shown = report.to_json()
    payload = {
        "file": args.file,
        "semantics": semantics.value,
        "U": shown["U"],
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
        "combined": shown["rhs"],
        "direct": shown["lhs"],
        "match": report.holds,
    }
    lines = ["U = {" + ",".join(shown["U"]) + "}", "bottom:", *(f"  {r}" for r in payload["bottom"])]
    lines += ["top:", *(f"  {r}" for r in payload["top"])]
    for s in payload["solutions"]:
        lines += [f"wv_bottom {_show(s['wv_bottom'])}", *(f"  E: {r}" for r in s["top_simplified"])]
        lines.append(f"  wv_top {_show(s['wv_top'])} -> combined {_show(s['combined'])}")
    lines += [f"combined world views: {_show(shown['rhs'])}", f"direct world views:   {_show(shown['lhs'])}"]
    lines.append("MATCH" if report.holds else "MISMATCH: composed solutions differ from the direct world views")
    return (0 if report.holds else 1), payload, lines


def cmd_properties(args):
    semantics_list = [SemanticsId.from_string(s) for s in args.semantics.split(",")]
    matrix = build_property_matrix(semantics_list, seed=args.seed, count=args.count)
    payload = matrix.to_json()
    lines = [matrix.render(), ""]
    for prop, row in sorted(payload["rows"].items()):
        for sem, cell in sorted(row.items()):
            for violation in cell["violations"]:
                lines.append(f"witness [{prop} / {sem}]:")
                lines += [f"    {line}" for line in violation["program"].splitlines()]
                if violation["U"]:
                    lines.append("    U = {" + ",".join(violation["U"]) + "}")
                lines.append(f"    lhs={_show(violation['lhs'])} rhs={_show(violation['rhs'])}")
    return 0, payload, lines


def cmd_conformant(args):
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
        if args.plan:
            raise ValueError("--generate takes no --plan")
        if not args.actions:
            raise ValueError("--generate requires --actions")
        actions = _parse_atom_set(args.actions)
        surviving = sorted(
            generate_conformant_world_views(program, actions, goal, semantics), key=wv_key
        )
        plans = [list(interp_key(plan_of_world_view(wv, actions))) for wv in surviving]
        payload.update(mode="generate", world_views=world_views_to_json(surviving), plans=plans)
        lines = [f"plan {{{','.join(plan)}}}: {wv}" for wv, plan in zip(surviving, plans)]
        return (0, payload, lines) if surviving else (1, payload, ["no conformant plan"])
    if not args.plan:
        raise ValueError("provide --plan a,b (repeatable) or --generate --actions ...")
    if args.actions:
        raise ValueError("--plan takes no --actions")
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
    payload.update(mode="check", plans=verdicts)
    lines = [
        f"plan {{{','.join(v['plan'])}}}: {'CONFORMANT' if v['conformant'] else 'not conformant'}"
        for v in verdicts
    ]
    return (0 if all(v["conformant"] for v in verdicts) else 1), payload, lines


def _add_common(
    parser: argparse.ArgumentParser,
    semantics="g91",
    names="|".join(s.value for s in SemanticsId),
    program=True,
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
    """Run one command in one run memo (`engine.solve_memo`) and print what it
    returns: its payload as JSON under `--json`, else its text lines.  This
    is the one writer to stdout.  `--max-atoms` sets `objective.MAX_ATOMS`
    for the command before the memo opens, and the old cap is back when it
    returns.  An `ElpError`, `ValueError` or `OSError`, also one raised while
    printing, is printed as `error: ...` with exit code 2."""
    args = build_parser().parse_args(argv)
    cap = getattr(args, "max_atoms", None)
    previous_cap = objective.MAX_ATOMS
    try:
        if cap is not None:
            if cap < 0:
                raise ValueError(f"--max-atoms must not be negative, got {cap}")
            objective.MAX_ATOMS = cap
        with solve_memo():
            code, payload, lines = args.func(args)
        if args.json:
            # the list of splitting sets is printed on one line
            indent = None if getattr(args, "enumerate_splits", False) else 2
            print(json.dumps(payload, indent=indent, sort_keys=True))
        elif lines:
            print("\n".join(lines))
        return code
    except (ElpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        objective.MAX_ATOMS = previous_cap


if __name__ == "__main__":
    sys.exit(main())
