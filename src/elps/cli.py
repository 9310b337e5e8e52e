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
import sys
from pathlib import Path

from .config import resolve_limits
from .eht import total_model_countermodels
from .engine import REGISTRY, compute_world_views
from .errors import CapacityError, ElpError
from .foundedness import is_founded, unfounded_certificate
from .harness import FixtureMismatch, build_property_matrix
from .modal import world_views_to_json, wv_key
from .planning import generate_conformant_world_views, is_conformant_plan, plan_of_world_view
from .semantics import SemanticsId, world_views
from .splitting import (
    enumerate_epistemic_splitting_sets,
    epistemic_split,
    epistemic_solutions,
    top_simplification,
)
from .syntax import Program, eliminate_m, interp_key, load_program, parse_atom


def _load(path: str, args) -> Program:
    program = load_program(Path(path).read_text(encoding="utf-8"))
    if getattr(args, "eliminate_m", False):
        program = eliminate_m(program)
    return program


def _parse_atom_set(text: str):
    text = text.removeprefix("U=")
    return frozenset(parse_atom(part.strip()) for part in text.split(",") if part.strip())


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


def cmd_solve(args) -> int:
    limits = resolve_limits(args.max_atoms)
    semantics = SemanticsId.from_string(args.semantics)
    program = _load(args.file, args)
    wvs = sorted(compute_world_views(program, semantics, limits), key=wv_key)
    payload = {
        "file": args.file,
        "semantics": semantics.value,
        "world_views": world_views_to_json(wvs),
    }
    if args.explain_unfounded:
        certificates = []
        for wv in sorted(world_views(program, SemanticsId.G91, limits), key=wv_key):
            if not is_founded(program, wv, limits):
                certificates.append(
                    {"world_view": wv.as_lists(), "pairs": unfounded_certificate(program, wv, limits)}
                )
        payload["unfounded_certificates"] = certificates
    if args.trace_eht:
        try:
            candidates = total_model_countermodels(program, limits)
        except CapacityError as exc:
            # the world views above stand; only the trace is out of reach
            print(f"eht trace skipped: {exc}", file=sys.stderr)
            payload["eht_traces"] = None
            payload["eht_trace_skipped"] = str(exc)
        else:
            payload["eht_traces"] = _eht_traces(candidates)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for wv in wvs:
            print(wv)
        if args.explain_unfounded:
            for cert in payload.get("unfounded_certificates", []):
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
    limits = resolve_limits(args.max_atoms)
    semantics = SemanticsId.from_string(args.semantics)
    program = _load(args.file, args)
    if args.enumerate_splits:
        sets = sorted(
            enumerate_epistemic_splitting_sets(program, limits),
            key=lambda u: (len(u), tuple(sorted(map(str, u)))),
        )
        if args.json:
            print(json.dumps([sorted(map(str, u)) for u in sets]))
        else:
            for u in sets:
                print("{" + ",".join(sorted(map(str, u))) + "}")
        return 0
    if not args.split:
        print("error: provide --split U=a,b,... or --enumerate-splits", file=sys.stderr)
        return 2
    U = _parse_atom_set(args.split)
    split = epistemic_split(program, U, args.placement)
    solutions = sorted(
        epistemic_solutions(program, U, semantics, args.placement, limits),
        key=lambda s: (wv_key(s.wv_b), wv_key(s.wv_t)),
    )
    combined = sorted({s.combined for s in solutions}, key=wv_key)
    direct = sorted(compute_world_views(program, semantics, limits), key=wv_key)
    match = {wv_key(w) for w in combined} == {wv_key(w) for w in direct}
    payload = {
        "file": args.file,
        "semantics": semantics.value,
        "U": sorted(map(str, U)),
        "bottom": [str(r) for r in split.bottom.rules],
        "top": [str(r) for r in split.top.rules],
        "solutions": [
            {
                "wv_bottom": s.wv_b.as_lists(),
                "top_simplified": [str(r) for r in top_simplification(split, s.wv_b).rules],
                "wv_top": s.wv_t.as_lists(),
                "combined": s.combined.as_lists(),
            }
            for s in solutions
        ],
        "combined": world_views_to_json(combined),
        "direct": world_views_to_json(direct),
        "match": match,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"U = {{{','.join(sorted(map(str, U)))}}}")
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
        print("MATCH" if match else "MISMATCH: composed solutions differ from the direct world views")
    return 0 if match else 1


def cmd_properties(args) -> int:
    limits = resolve_limits(args.max_atoms)
    semantics_list = [SemanticsId.from_string(s) for s in args.semantics.split(",")]
    corpus_dir = Path(args.corpus) if args.corpus else None
    try:
        matrix = build_property_matrix(
            semantics_list=semantics_list,
            seed=args.seed,
            count=args.count,
            limits=limits,
            corpus_dir=corpus_dir,
        )
    except FixtureMismatch as exc:
        print(f"fixture expectations failed:\n{exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = matrix.to_json()
        payload["fixtures"] = [
            {
                "fixture": r.fixture,
                "semantics": r.semantics,
                "ok": r.ok,
                "provenance": r.provenance,
            }
            for r in matrix.fixtures
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(matrix.render())
        print()
        for (prop, sem), cell in sorted(matrix.cells.items()):
            for violation in cell.violations:
                print(f"witness [{prop} / {sem}]:")
                for line in violation.program.splitlines():
                    print(f"    {line}")
                if violation.U:
                    print(f"    U = {violation.U}")
                print(f"    lhs={violation.lhs} rhs={violation.rhs}")
    return 0


def cmd_conformant(args) -> int:
    limits = resolve_limits(args.max_atoms)
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
            print("error: --generate requires --actions", file=sys.stderr)
            return 2
        actions = _parse_atom_set(args.actions)
        surviving = sorted(
            generate_conformant_world_views(program, actions, goal, semantics, limits), key=wv_key
        )
        payload["mode"] = "generate"
        payload["world_views"] = world_views_to_json(surviving)
        payload["plans"] = [
            sorted(map(str, plan_of_world_view(wv, actions))) for wv in surviving
        ]
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for wv, plan in zip(surviving, payload["plans"]):
                print(f"plan {{{','.join(plan)}}}: {wv}")
            if not surviving:
                print("no conformant plan")
        return 0 if surviving else 1
    if not args.plan:
        print("error: provide --plan a,b (repeatable) or --generate --actions ...", file=sys.stderr)
        return 2
    verdicts = []
    for plan_text in args.plan:
        plan = _parse_atom_set(plan_text)
        ok, wvs = is_conformant_plan(program, plan, goal, semantics, limits)
        verdicts.append(
            {
                "plan": sorted(map(str, plan)),
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


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--semantics", default="g91", help="g91|g11|k15|s17|f15|c19 (default g91)")
    parser.add_argument("--max-atoms", type=int, default=None, help="exhaustive-search cap")
    parser.add_argument("--eliminate-m", action="store_true", help="rewrite M-literals into K-literals")
    parser.add_argument("--json", action="store_true", help="JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elps", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute world views")
    p.add_argument("file")
    _add_common(p)
    p.add_argument("--explain-unfounded", action="store_true", help="print unfounded-set certificates")
    p.add_argument("--trace-eht", action="store_true", help="print equilibrium countermodels")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("split", help="epistemic splitting decomposition")
    p.add_argument("file")
    _add_common(p)
    p.add_argument("--split", help="U=a,b,... the splitting set")
    p.add_argument("--placement", choices=["bottom", "top"], default="bottom",
                   help="where subjective constraints on U go")
    p.add_argument("--enumerate-splits", action="store_true", help="list all proper splitting sets")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("properties", help="fixture suite + property matrix")
    _add_common(p)
    p.add_argument("--corpus", default=None, help="fixture directory (default: bundled corpus)")
    p.add_argument("--seed", type=int, default=2025)
    p.add_argument("--count", type=int, default=20, help="random programs per matrix cell")
    p.set_defaults(func=cmd_properties, semantics="g91,g11,f15,k15,s17,c19")

    p = sub.add_parser("conformant", help="conformant planning over world views")
    p.add_argument("file")
    _add_common(p)
    p.add_argument("--goal", required=True, help="goal atom")
    p.add_argument("--plan", action="append", default=[], help="action set a,b (repeatable)")
    p.add_argument("--generate", action="store_true", help="generate-define-test mode")
    p.add_argument("--actions", default=None, help="action atoms for --generate")
    p.set_defaults(func=cmd_conformant)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ElpError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
