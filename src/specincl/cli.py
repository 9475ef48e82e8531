"""Command-line front end.

Subcommands: ``include`` computes inclusion sets and writes report JSON,
region CSV, and SVG figures; ``converge`` runs Hausdorff convergence
studies; ``verify`` runs the randomized containment suite.

Exit codes: 0 success, 2 usage/config error, 3 numeric failure.  All
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import inclusion as inc
from . import pseudospec as ps
from .corpus import build_corpus, verify_containment
from .errors import SpecinclError
from .ingest import check_dense_shape, load_matrix, read_ascii
from .matrixcore import make_view, resolve_partition
from .toeplitz import (
    SLACK_CELLS,
    convergence_study,
    jordan,
    jordan_symbol,
    laplacian,
    laplacian_symbol,
    spec_from_json,
)
from .viz import render_svg


class UsageError(Exception):
    pass


def _parse_complex(text: str) -> complex:
    t = text.strip().replace("i", "j")
    if t in ("j", "+j"):
        t = "1j"
    if t == "-j":
        t = "-1j"
    try:
        return complex(t)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex number {text!r}") from exc


def _parse_number(text: str, kind, option: str):
    try:
        value = kind(text)
        if not math.isfinite(value):
            raise UsageError(f"{option} expects finite values, got {text!r}")
    except ValueError:
        raise UsageError(f"{option} expects {kind.__name__} values, "
                         f"got {text!r}") from None
    except OverflowError:  # an int beyond the float range
        raise UsageError(f"{option} value {text!r} is out of range") from None
    return value


def _parse_eps_list(text: str) -> list[float]:
    vals = [_parse_number(x, float, "--eps") for x in text.split(",")
            if x.strip()]
    if not vals or any(v < 0 for v in vals):
        raise UsageError(f"eps list must be nonnegative, got {text!r}")
    return vals


def _parse_grid(text, A, pad, default_nodes=256):
    if text in (None, "auto"):
        return ps.default_grid(A, pad=pad, nx=default_nodes, ny=default_nodes)
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) == 2:
        nx, ny = (_parse_number(x, int, "--grid") for x in parts)
        check_dense_shape((ny, nx), "--grid")
        return ps.default_grid(A, pad=pad, nx=nx, ny=ny)
    if len(parts) == 6:
        kinds = (float,) * 4 + (int,) * 2
        values = [_parse_number(x, kind, "--grid")
                  for x, kind in zip(parts, kinds)]
        check_dense_shape((values[5], values[4]), "--grid")
        return ps.GridSpec(*values)
    raise UsageError("grid must be 'auto', 'nx,ny', or "
                     "'re_min,re_max,im_min,im_max,nx,ny'")


def _jobs_default(value) -> int:
    if value is None:
        return ps.usable_cpus()
    if value < 1:
        raise UsageError(f"--jobs must be at least 1, got {value}")
    return value


def _load_input(args) -> np.ndarray:
    if args.builtin and args.input:
        raise UsageError("give either --input or --builtin, not both")
    if args.builtin:
        if not args.M:
            raise UsageError("--builtin needs --M")
        check_dense_shape((args.M, args.M), "--M")
        # argparse admits only the two builtins
        return jordan(args.M) if args.builtin == "jordan" else laplacian(args.M)
    if args.input:
        if not Path(args.input).is_file():
            raise UsageError(f"input file not found: {args.input}")
        return load_matrix(args.input)
    raise UsageError("an input matrix is required (--input or --builtin)")


def cmd_include(args) -> int:
    jobs = _jobs_default(args.jobs)
    A = _load_input(args)
    view = make_view(A, resolve_partition(args.partition, A))
    N = view.block_count

    methods = ([args.method] if args.method != "all"
               else ["tau", "tau1", "pi"])
    needs_n = any(m in ("tau", "pi", "tau1") for m in methods)
    if needs_n:
        if args.n is None:
            raise UsageError("--n is required for tau/pi/tau1 methods")
        if not (1 <= args.n <= N - 1):
            raise UsageError(f"--n must be in 1..{N - 1} for this partition")
    t = None
    if "pi" in methods:
        if args.t is None:
            raise UsageError("--t is required for the pi method")
        t = _parse_complex(args.t)
        if not view.partition.uniform:
            raise UsageError("pi method needs a uniform partition")
    eps_list = _parse_eps_list(args.eps)
    # each eps names its output files by its :g form
    stems: dict[str, float] = {}
    for eps in eps_list:
        stem = f"eps{eps:g}"
        if stem in stems:
            raise UsageError(f"--eps values {stems[stem]!r} and {eps!r} "
                             f"share the file stem {stem}")
        stems[stem] = eps

    # one shared grid covering the worst inclusion level over the plan
    pad = max(inc.grid_pad(view, m, args.n, max(eps_list)) for m in methods)
    grid = _parse_grid(args.grid, A, pad)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lams = ps.eig(A) if A.shape[0] <= 2000 else None

    # one sweep serves every family method at every eps
    plan = inc.method_reports(view, methods, eps_list, n=args.n, t=t,
                              grid=grid, jobs=jobs)
    for method, reports in zip(methods, plan):
        for eps, report in zip(eps_list, reports):
            stem = f"{method}_n{args.n or 0}_eps{eps:g}"
            (out_dir / f"{stem}.json").write_text(report.to_json() + "\n",
                                                  encoding="ascii")
            ps.region_to_csv(report.region, out_dir / f"{stem}.csv")
            svg = render_svg(report.region, eigenvalues=lams,
                             title=f"{method}  n={args.n}  eps={eps:g}",
                             timestamp=not args.no_timestamp)
            (out_dir / f"{stem}.svg").write_text(svg, encoding="ascii")
            print(f"wrote {out_dir / stem}.{{json,csv,svg}}")
    return 0


def cmd_converge(args) -> int:
    if args.builtin == "jordan":
        symbol = jordan_symbol()
    elif args.builtin == "laplacian":
        symbol = laplacian_symbol()
    elif args.symbol:
        if not Path(args.symbol).is_file():
            raise UsageError(f"symbol file not found: {args.symbol}")
        symbol = spec_from_json(read_ascii(args.symbol))
    else:
        raise UsageError("a symbol is required (--builtin or --symbol)")
    schedule = []
    for row in args.schedule.split(","):
        row = row.strip()
        if not row:
            continue
        parts = row.split(":")
        if len(parts) != 3:
            raise UsageError(f"schedule rows are M:n:w, got {row!r}")
        schedule.append(tuple(_parse_number(x, int, "--schedule")
                              for x in parts))
    if not schedule:
        raise UsageError("empty schedule")
    for M, _, _ in schedule:
        check_dense_shape((M, M), "--schedule")
    check_dense_shape((args.grid_nodes, args.grid_nodes), "--grid-nodes")
    eps = _parse_number(args.eps, float, "--eps")

    result = convergence_study(symbol, eps, schedule,
                               grid_nodes=args.grid_nodes,
                               jobs=_jobs_default(args.jobs))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "convergence.csv"
    csv_path.write_text(result.to_csv(), encoding="ascii")
    verdict = "held" if result.monotone_within_slack else "violated"
    print(f"wrote {csv_path}")
    print(f"decrease-within-slack ({SLACK_CELLS} cells): {verdict}; "
          f"final d_H = {result.rows[-1].d_h:.6g}")
    return 0


def cmd_verify(args) -> int:
    eps_list = _parse_eps_list(args.eps)
    # each eps makes its own records, so an eps given twice repeats them
    for i, eps in enumerate(eps_list):
        for other in eps_list[:i]:
            if other == eps:
                raise UsageError(f"--eps values {other!r} and {eps!r} are "
                                 "equal")
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    if not 2 <= args.order_min <= args.order_max:
        raise UsageError("orders need 2 <= --order-min <= --order-max, got "
                         f"{args.order_min} and {args.order_max}")
    check_dense_shape((args.order_max, args.order_max), "--order-max")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    if args.max_n is not None and args.max_n < 1:
        raise UsageError(f"--max-n must be at least 1, got {args.max_n}")
    items = build_corpus(seed=args.seed, count=args.count,
                         orders=(args.order_min, args.order_max))
    scale = 0.5 if args.adversarial else 1.0
    records = verify_containment(items, eps_values=tuple(eps_list),
                                 penalty_scale=scale, max_n=args.max_n)
    violations = [r for r in records if not r.contained]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "verify_report.json"
    doc = {
        "seed": args.seed,
        "count": args.count,
        "orders": [args.order_min, args.order_max],
        "eps": eps_list,
        "penalty_scale": scale,
        "checks": len(records),
        "violations": len(violations),
        "records": [
            {**vars(r), "t": None if r.t is None else [r.t.real, r.t.imag]}
            for r in records
        ],
    }
    report_path.write_text(json.dumps(doc, sort_keys=True) + "\n",
                           encoding="ascii")
    print(f"wrote {report_path}")
    print(f"{len(records)} checks, {len(violations)} violations")
    return 0 if not violations else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specincl",
        description="Spectral/pseudospectral inclusion sets for finite matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inc = sub.add_parser("include", help="compute inclusion sets")
    p_inc.add_argument("--input", help="matrix file (.mtx/.mm/.csv)")
    p_inc.add_argument("--builtin", choices=["jordan", "laplacian"])
    p_inc.add_argument("--M", type=int, help="order for --builtin")
    p_inc.add_argument("--partition", default="uniform:1",
                       help="size list, uniform:m, or auto-band")
    p_inc.add_argument("--method", default="all",
                       choices=["tau", "pi", "tau1", "gersh", "block-gersh",
                                "all"])
    p_inc.add_argument("--n", type=int)
    p_inc.add_argument("--t", help="unit-modulus complex, pi method only")
    p_inc.add_argument("--eps", default="0", help="comma-separated levels")
    p_inc.add_argument("--grid", default="auto")
    p_inc.add_argument("--jobs", type=int)
    p_inc.add_argument("--out-dir", default="out")
    p_inc.add_argument("--no-timestamp", action="store_true")
    p_inc.set_defaults(func=cmd_include)

    p_con = sub.add_parser("converge", help="Hausdorff convergence study")
    p_con.add_argument("--builtin", choices=["jordan", "laplacian"])
    p_con.add_argument("--symbol", help="ToeplitzSpec JSON file")
    p_con.add_argument("--eps", default="0.1")
    p_con.add_argument("--schedule", default="",
                       help="comma-separated M:n:w rows")
    p_con.add_argument("--grid-nodes", type=int, default=256)
    p_con.add_argument("--jobs", type=int)
    p_con.add_argument("--out-dir", default="out")
    p_con.set_defaults(func=cmd_converge)

    p_ver = sub.add_parser("verify", help="containment property suite")
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--count", type=int, default=12)
    p_ver.add_argument("--order-min", type=int, default=6)
    p_ver.add_argument("--order-max", type=int, default=16)
    p_ver.add_argument("--eps", default="0,0.1")
    p_ver.add_argument("--max-n", type=int, default=None)
    p_ver.add_argument("--adversarial", action="store_true",
                       help="halve penalties (negative control)")
    p_ver.add_argument("--out-dir", default="out")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, SpecinclError) as exc:
        print(f"specincl: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a size below the index limit of ``ingest.check_dense_shape`` can
        # still fail to allocate
        detail = " ".join(str(exc).split())
        print(f"specincl: the run does not fit in memory"
              f"{f' ({detail})' if detail else ''}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        print(f"specincl: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
