"""Command-line front end.

Subcommands: parse, compose, sort, stretch, check, census, count-sortable,
verify, render.  Exit code 0 on success, 1 on a domain error such as a
parse failure, an order mismatch or a brute-force scan over SCAN_CAP
items, 2 on a verification failure, 130 on Ctrl-C (what was printed
before it stays printed).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import factorial
from typing import Callable, Iterator, Sequence

from .analysis import VerificationError, _bell, _census_row, _census_table, count_t_stack_sortable, is_sss_direct
from .core import _bits, compose, format_diagram, parse_diagram, to_dot
from .sorting import TraceEvent, _structural_failure, sort_diagram, sort_diagram_traced
from .stretch import SetComposition, is_stretch_of_identity, stretch_map
from .verification import run_checks

__all__ = ["run", "main"]


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _format_block(block: tuple[int, int]) -> str:
    t, b = block
    return "{" + ",".join([*map(str, _bits(t)), *(f"{i}'" for i in _bits(b))]) + "}"


def _trace_lines(trace: Sequence[TraceEvent]) -> Iterator[str]:
    """One line per split step: B's bottoms, then the factors L, M1..Mk, R; each block's text is built once."""
    texts: dict[int, str] = {}  # by id: the events keep the blocks alive, and a mask-pair key is rehashed per lookup

    def column(label: str, blocks: tuple[tuple[int, int], ...]) -> str:
        return f"{label}=[{','.join([texts.get(id(b)) or texts.setdefault(id(b), _format_block(b)) for b in blocks])}]"

    for event in trace:
        chosen = "{" + ",".join(f"{i}'" for i in _bits(event.block[1])) + "}"
        middles = [column(f"M{j}", blocks) for j, blocks in enumerate(event.middles, 1)]
        yield " ".join([f"B={chosen}", column("L", event.left), *middles, column("R", event.right)])


# A brute-force scan of more items than this fails at once.  10! = 3,628,800
# permutations (count-sortable --n 10) take about 27 s and Bell(12) = 4,213,597
# diagrams (census --check at order 6) about 85 s on one core; 11! and
# Bell(14) would take about 5 minutes and 1.5 hours.
SCAN_CAP = 5_000_000


def _cap_scan(name: str, size: Callable[[int], int], n: int, what: str) -> None:
    """Fail before a scan of size(n) items over SCAN_CAP; past n = 100 every scan is, and size(n) is not computed."""
    if n > 100 or size(n) > SCAN_CAP:
        count = "" if n > 100 else f" = {size(n)}"
        raise ValueError(f"the scan of {name}{count} {what} is over the cap of {SCAN_CAP}")


def _parse_order_range(text: str) -> range:
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError:
        raise ValueError(f"bad order range {text!r}") from None
    if lo > hi:
        raise ValueError("empty order range")
    if lo < 0:
        raise ValueError("orders must be nonnegative")
    return range(lo, hi + 1)


def _cmd_parse(args: argparse.Namespace) -> int:
    print(format_diagram(parse_diagram(args.diagram, args.order)))
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    d1 = parse_diagram(args.first, args.order)
    d2 = parse_diagram(args.second, args.order)
    product, middle = compose(d1, d2)
    print(format_diagram(product))
    print(f"l={middle}")
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    diagram = parse_diagram(args.diagram, args.order)
    if args.trace:
        result, trace = sort_diagram_traced(diagram)
        for line in _trace_lines(trace):
            print(line)
    else:
        result = sort_diagram(diagram)
    print(format_diagram(result))
    return 0


def _cmd_stretch(args: argparse.Namespace) -> int:
    alpha = SetComposition.parse(args.alpha)
    diagram = parse_diagram(args.diagram, args.order)
    print(format_diagram(stretch_map(alpha, args.k, diagram)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    diagram = parse_diagram(args.diagram, args.order)
    direct = is_sss_direct(diagram)
    failure = _structural_failure(diagram)
    structural = failure is None
    print(f"propagating_blocks={diagram.propagation_number()}")
    print(f"stretch_of_identity={str(is_stretch_of_identity(diagram)).lower()}")
    print(f"sortable_direct={str(direct).lower()}")
    print(f"sortable_structural={str(structural).lower()}")
    print(f"structural_failure={failure or 'none'}")
    if direct != structural:
        raise VerificationError(f"predicates disagree on {format_diagram(diagram)}")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    orders = _parse_order_range(args.n)
    if args.check:
        _cap_scan(f"Bell({2 * orders[-1]})", lambda n: _bell(2 * n), orders[-1], "diagrams")
    print("# sortable counts are computed, not from paper", file=sys.stderr)
    count = _census_table()  # one fill for the whole range
    for n in orders:
        row = _census_row(n, count, check=args.check, jobs=args.jobs)
        millis = round(row.elapsed * 1000)
        if args.json:
            fields = row._asdict()
            del fields["elapsed"]
            print(json.dumps({**fields, "millis": millis}))
        else:
            print(f"{row.n}\t{row.total}\t{row.sortable}\t{millis}")
    return 0


def _cmd_count_sortable(args: argparse.Namespace) -> int:
    if args.n > 0:
        _cap_scan(f"{args.n}!", factorial, args.n, "permutations")
    print(count_t_stack_sortable(args.n, args.t))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(deep=args.deep, seed=args.seed)
    failed = 0
    for res in results:
        if res.ok:
            print(f"ok   {res.name}: {res.detail} ({res.seconds:.2f}s)")
        else:
            failed += 1
            print(f"FAIL {res.name}: {res.detail} ({res.seconds:.2f}s)")
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    print(to_dot(parse_diagram(args.diagram, args.order)), end="")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="diagramsort", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def with_diagram(p: _Parser) -> None:
        p.add_argument("--order", type=int, required=True, help="diagram order n")
        p.add_argument("diagram", help="diagram text, e.g. \"{1,4|2,3,4',5'}\"")

    p = sub.add_parser("parse", help="canonicalize a diagram and print its text form")
    with_diagram(p)
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("compose", help="monoid product of two diagrams plus the middle count")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("sort", help="stack-sorting image of a diagram")
    with_diagram(p)
    p.add_argument("--trace", action="store_true", help="print one line per split step")
    p.set_defaults(handler=_cmd_sort)

    p = sub.add_parser("stretch", help="apply a stretch morphism to a diagram")
    p.add_argument("--alpha", required=True, help='set composition, e.g. "1,2|3|5,6,7|4"')
    p.add_argument("--k", type=int, required=True, help="target order")
    with_diagram(p)
    p.set_defaults(handler=_cmd_stretch)

    p = sub.add_parser("check", help="sortability predicates for one diagram")
    with_diagram(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("census", help="count stretch-stack-sortable diagrams per order")
    p.add_argument("--n", default="1..4", help="order or range, e.g. 4 or 1..4")
    p.add_argument(
        "--check",
        action="store_true",
        help="also sort all Bell(2n) diagrams, checking both predicates on each and the counts",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the --check scan")
    p.add_argument("--json", action="store_true", help="one JSON object per row instead of TSV")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("count-sortable", help="count t-stack-sortable permutations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(handler=_cmd_count_sortable)

    p = sub.add_parser("verify", help="run the whole invariant suite")
    p.add_argument(
        "--deep", action="store_true", help="predicate sweep to order 5, census counters to 6"
    )
    p.add_argument("--seed", type=int, default=2024, help="seed for the sampled properties")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("render", help="emit Graphviz DOT for a diagram")
    with_diagram(p)
    p.set_defaults(handler=_cmd_render)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point returning the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except OverflowError:  # an order too large to shift by: CPython names only its digit count
        print("error: order too large", file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as exc:  # a size too large to allocate raises MemoryError, no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
