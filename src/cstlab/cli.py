"""Command-line interface.

Exit codes: 0 success (all checks PASS), 1 verification failure or, with
--fail-on-discrepancy, a fuzz hit, 2 usage error, 3 input/parse error.
Verification output uses the line grammar
``<name>: expected=<int> actual=<int> status=<PASS|FAIL>``.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import bench, falsify
from .falsify import MODELS
from .model import Instance, Interval, ParseError, check_hole_count, parse_instance
from .oracle import SizeLimitError, depth_seq
from .render import FORMATS, InvalidTreeError, parse_tree_file, render_tree

__all__ = ["main"]


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstlab",
        description="Optimal comparison-search-tree laboratory: flawed DPs, "
        "exact oracles, paper-value verification, and fuzzing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance with one algorithm")
    solve.add_argument("--model", choices=tuple(MODELS), required=True)
    solve.add_argument(
        "--alg", choices=(*(m.dp for m in MODELS.values()), "exact"), required=True
    )
    solve.add_argument("--instance", required=True, metavar="FILE")
    solve.add_argument("--interval", nargs=2, type=int, metavar=("I", "J"))
    solve.add_argument("--holes", type=int, default=0, metavar="H")
    solve.add_argument("--holeset", metavar="L1,L2,...")
    solve.add_argument("--render", choices=FORMATS, dest="render_fmt")
    solve.add_argument("--out", metavar="FILE")

    verify = sub.add_parser("verify-paper", help="reproduce the published numbers")
    verify.add_argument(
        "--section",
        choices=("figures", "thm1", "thm2", "depth", "all"),
        default="all",
    )
    verify.add_argument("--seed", type=int, default=1)

    fuzz = sub.add_parser("fuzz", help="random discrepancy search")
    fuzz.add_argument("--model", choices=tuple(MODELS), required=True)
    fuzz.add_argument("--n-min", type=int, default=2)
    fuzz.add_argument("--n-max", type=int, default=8)
    fuzz.add_argument("--wmax", type=int, default=16)
    fuzz.add_argument("--trials", type=int, default=100)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--holes-max", type=int, default=None)
    fuzz.add_argument("--fail-on-discrepancy", action="store_true")

    bound = sub.add_parser("bound", help="lower bounds for an instance")
    bound.add_argument("--placement", action="store_true")
    bound.add_argument("--instance", required=True, metavar="FILE")

    dseq = sub.add_parser("depth-seq", help="print the d/e depth sequences")
    dseq.add_argument("m", type=int)

    render = sub.add_parser("render", help="render a tree file")
    render.add_argument("--instance", required=True, metavar="FILE")
    render.add_argument("--tree", required=True, metavar="FILE")
    render.add_argument("--format", choices=FORMATS, required=True)

    return parser


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _read_instance(path: str) -> Instance:
    return parse_instance(_read_text(path))


def _parse_holeset(text: str, inst: Instance) -> tuple[int, ...]:
    keys = []
    for label in text.split(","):
        label = label.strip()
        try:
            keys.append(inst.index(label))
        except KeyError:
            raise UsageError(f"unknown key label {label!r} in --holeset") from None
    return tuple(sorted(set(keys)))


def _emit_tree(tree, fmt: str, inst: Instance, out: Optional[str]) -> None:
    text = render_tree(tree, fmt, inst)
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {out}: {exc}") from None


def _cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    interval = (
        Interval(args.interval[0], args.interval[1])
        if args.interval
        else inst.full_interval()
    )
    try:
        interval.validate_for(inst.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if interval.empty:
        raise UsageError("interval must be nonempty")

    model = MODELS[args.model]
    if args.alg not in (model.dp, "exact"):
        other = next(name for name, m in MODELS.items() if m.dp == args.alg)
        raise UsageError(f"--alg {args.alg} requires --model {other}")
    if args.out and not args.render_fmt:
        raise UsageError("--out requires --render")
    holeset = None
    if args.holeset is not None:
        if args.alg != "exact":
            raise UsageError("--holeset applies only to --alg exact")
        holeset = _parse_holeset(args.holeset, inst)

    h = args.holes
    if holeset is None:
        try:
            check_hole_count(h, interval, model.table.min_queries)
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    if args.alg == model.dp:
        result = model.table.solve(inst, interval, h)
        cost, weight, tree = result.cost, result.weight, result.tree
        holes_used = result.holes_in(interval)
    else:
        oracle = model.oracle(inst)
        if holeset is not None:
            try:
                cost, tree = oracle.opt(interval, holeset)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            holes_used = holeset
        else:
            cost, tree, holes_used = oracle.opt_star(interval, h)
        weight = inst.range_weight(interval.i, interval.j) - sum(
            inst.weight(k) for k in holes_used
        )

    print(
        f"model={args.model} alg={args.alg} interval=[{interval.i},{interval.j}] "
        f"holes={len(holes_used)}"
    )
    print(f"cost={cost}")
    print(f"weight={weight}")
    print("holes_used=" + ",".join(inst.label(k) for k in holes_used))
    if args.render_fmt:
        if tree is None:
            raise UsageError("nothing to render: the solution is the empty tree")
        _emit_tree(tree, args.render_fmt, inst, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.section == "figures":
        report = bench.verify_figures()
    elif args.section == "thm1":
        report = bench.verify_theorem1()
    elif args.section == "thm2":
        report = bench.verify_theorem2()
    elif args.section == "depth":
        report = bench.verify_depth_lemma(seed=args.seed)
    else:
        report = bench.verify_all(seed=args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_fuzz(args) -> int:
    try:
        cfg = falsify.CampaignConfig(
            model=args.model,
            n_min=args.n_min,
            n_max=args.n_max,
            wmax=args.wmax,
            trials=args.trials,
            base_seed=args.seed,
            holes_max=args.holes_max,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = falsify.campaign(cfg)
    for line in report.summary_lines():
        print(line)
    for refusal in report.oracle_refusals:
        print(f"# {refusal}", file=sys.stderr)
    if args.fail_on_discrepancy and report.discrepancies:
        return 1
    return 0


def _cmd_bound(args) -> int:
    if not args.placement:
        raise UsageError("bound requires --placement")
    inst = _read_instance(args.instance)
    from .oracle import placement_lower_bound

    print(f"placement_bound={placement_lower_bound(inst)}")
    return 0


def _cmd_depth_seq(args) -> int:
    if args.m < 1:
        raise UsageError("m must be >= 1")
    seqs = depth_seq(args.m)
    for m in range(1, args.m + 1):
        print(f"d[{m}]={seqs.d_at(m)}")
    for m in range(1, args.m + 1):
        print(f"e[{m}]={seqs.e_at(m)}")
    return 0


def _cmd_render(args) -> int:
    inst = _read_instance(args.instance)
    text = _read_text(args.tree)
    # The tree-file parser and the renderers recurse once per tree level.
    try:
        _, tree = parse_tree_file(text, inst)
        sys.stdout.write(render_tree(tree, args.format, inst))
    except InvalidTreeError as exc:
        raise ParseError(f"invalid tree: {exc}") from None
    except RecursionError:
        raise ParseError("tree too deep to parse or render") from None
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "verify-paper": _cmd_verify,
    "fuzz": _cmd_fuzz,
    "bound": _cmd_bound,
    "depth-seq": _cmd_depth_seq,
    "render": _cmd_render,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
