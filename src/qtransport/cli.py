"""Command-line front end.

Loads a network file or builds a named family, runs identity checkers from
the verify module, and exports transport data in a canonical text or JSON
rendering.  Exit codes: 0 all checks passed, 1 a check failed, 2 bad
arguments or unreadable input, 3 a cyclic network without max_cycle_uses.

Level and reflection series are built on first read, so each checker reads
as far into them as its window goes; only the window is sized here.

Output is deterministic for a fixed command line; checker timings are
stripped from reports so that identical runs are byte-identical.
"""

import argparse
import json
import sys

from . import verify
from .affine import levels_T, loop_generators, reflection_series
from .ncmat import NotInvertibleInSupportedClass
from .network import (
    TruncationRequired,
    block_split,
    build_chain,
    build_composite_example,
    build_triangle,
    f_rp,
    hat_blocks,
    load_network,
    transport_matrix,
)

CHECK_NAMES = [
    "rmatrix",
    "rtt",
    "blocks",
    "affine",
    "loop",
    "subalgebra",
    "groupoid",
    "reflection",
    "reflection-affine",
    "disc-reflection",
    "appendix",
    "frp",
    "all",
]


def _parse_ints(text, count=None):
    try:
        vals = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")
    if count is not None and len(vals) != count:
        raise ValueError(f"expected {count} comma-separated integers, got {text!r}")
    return vals


def _size(args, name, default, least):
    """The value of --name, or default when it is absent; below least is refused.

    A smaller size would crash, fail an identity that holds, or leave a
    checker an empty window that passes without checking anything.
    """
    value = getattr(args, name)
    if value is None:
        return default
    if value < least:
        raise ValueError(f"--{name} must be at least {least}, got {value}")
    return value


class _Source:
    """The resolved input: a transport matrix plus an optional block split."""

    def __init__(self, matrix, split):
        self.matrix = matrix
        self.split = split
        self._blocks = None

    def blocks(self):
        if self._blocks is None:
            if self.split is None:
                raise ValueError(
                    "this check needs a block split; pass --split n1,m,n2"
                )
            if isinstance(self.split, tuple):
                self._blocks = block_split(self.matrix, *self.split)
            else:
                self._blocks = self.split  # prebuilt blocks (composite)
        return self._blocks


def _resolve_source(args):
    if args.input and args.builder:
        raise ValueError("pass either --input or --builder, not both")
    split = _parse_ints(args.split, 3) if args.split else None
    if args.input:
        net = load_network(args.input)
        return _Source(transport_matrix(net), split)
    if args.builder == "triangle":
        n = int(args.n) if args.n else 2
        m = transport_matrix(build_triangle(n))  # 2n x n
        return _Source(m, split or ((1, n - 1, n + 1) if n > 1 else None))
    if args.builder == "chain":
        n1, n2 = _parse_ints(args.n, 2) if args.n else (1, 1)
        m = transport_matrix(build_chain(n1, n2, bridge=args.bridge))
        return _Source(m, split or (n1, 1, n2))
    if args.builder == "hat":
        b = hat_blocks(args.r if args.r is not None else 2)
        return _Source(b.matrix, split or b)
    if args.builder == "composite":
        b = build_composite_example()
        return _Source(b.matrix, split or b)
    raise ValueError("no input: pass --input FILE or --builder NAME")


def _frp_report(rmax, pmax):
    import time

    t0 = time.perf_counter()
    residuals = []
    table = []
    for r in range(1, rmax + 1):
        row = []
        for p in range(1, pmax + 1):
            vals = {mode: f_rp(r, p, mode=mode) for mode in ("matrix", "recursion", "closed")}
            if len(set(vals.values())) != 1:
                residuals.append({
                    "index": f"({r},{p})",
                    "value": ", ".join(f"{m}={v}" for m, v in sorted(vals.items())),
                })
            row.append(vals["matrix"])
        table.append(row)
    rep = verify.CheckReport(
        name="frp",
        parameters={"r": rmax, "p": pmax},
        passed=not residuals,
        residuals=residuals,
        timing_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return rep, table


def _frp_table_lines(table):
    lines = [f"f^r_p (rows r=1..{len(table)}, columns p=1..{len(table[0])})"]
    for r, row in enumerate(table, start=1):
        lines.append(f"r={r}: " + " ".join(str(v) for v in row))
    return lines


def _run_checks(args):
    """Returns (reports, skips, extra_lines)."""
    kind = args.kind
    if kind == "rmatrix":
        return [verify.check_rmatrix(_size(args, "k", 2, 1))], [], []
    if kind == "frp":
        rep, table = _frp_report(_size(args, "r", 8, 1), _size(args, "p", 8, 1))
        return [rep], [], _frp_table_lines(table)

    src = _resolve_source(args)
    if kind == "rtt":
        return [verify.check_rtt(src.matrix)], [], []
    if kind == "disc-reflection":
        return [verify.check_disc_reflection(src.matrix)], [], []
    if kind == "blocks":
        return [verify.check_blocks(src.blocks())], [], []
    if kind == "groupoid":
        return [verify.check_groupoid(src.blocks())], [], []
    if kind == "appendix":
        return [verify.check_appendix(src.blocks())], [], []
    if kind == "affine":
        kmax = _size(args, "kmax", 2, 0)
        pmax = _size(args, "pmax", kmax, 0)
        return [verify.check_affine(levels_T(src.blocks()), kmax, pmax)], [], []
    if kind == "loop":
        order = _size(args, "order", 2, 1)
        t = loop_generators(src.blocks())
        return [verify.check_loop(t, -order, order - 1)], [], []
    if kind == "subalgebra":
        return [verify.check_subalgebra(loop_generators(src.blocks()))], [], []
    if kind == "reflection":
        a = reflection_series(loop_generators(src.blocks()))
        return [verify.check_reflection_constant(a.get(1))], [], []
    if kind == "reflection-affine":
        order = _size(args, "order", 1, 0)
        a = reflection_series(loop_generators(src.blocks()))
        return [verify.check_reflection_affine(a, order)], [], []
    if kind == "all":
        return _run_all(src, args)
    raise ValueError(f"unknown check {kind!r}")


def _run_all(src, args):
    """The identity suite: every relation the input is expected to satisfy.

    The groupoid condition and the disc reflection both presume extra
    structure (a loopback-consistent network, a mirrored sink split), so
    they are property probes rather than identities; run them explicitly.
    """
    order = _size(args, "order", 2, 1)
    kmax = _size(args, "kmax", 2, 0)
    pmax = _size(args, "pmax", kmax, 0)
    reports = [verify.check_rtt(src.matrix)]
    if src.split is None:
        return reports, [("block checks", "no --split given")], []
    blocks = src.blocks()
    reports.append(verify.check_blocks(blocks))
    reports.append(verify.check_affine(levels_T(blocks), kmax, pmax))
    try:
        blocks.M12_inverse  # every negative level reads it
    except NotInvertibleInSupportedClass:
        return reports, [("loop family", "M12 is not invertible here")], []
    t = loop_generators(blocks)
    reports.append(verify.check_aux_inverse(blocks))
    reports.append(verify.check_loop(t, -order, order - 1))
    reports.append(verify.check_subalgebra(t))
    reports.append(verify.check_appendix(blocks))
    reports.append(verify.check_reflection_affine(reflection_series(t), 1))
    return reports, [], []


def _report_lines(reports, skips):
    lines = []
    for rep in reports:
        params = " ".join(f"{k}={v}" for k, v in sorted(rep.parameters.items()))
        status = "PASS" if rep.passed else "FAIL"
        lines.append(f"{status} {rep.name}" + (f" [{params}]" if params else ""))
        for rec in rep.residuals:
            lines.append(f"  residual {rec['index']} = {rec['value']}")
    for name, reason in skips:
        lines.append(f"SKIP {name} ({reason})")
    return lines


def _write_out(text, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args):
    reports, skips, extra = _run_checks(args)
    if args.as_json:
        doc = {
            "reports": [
                {k: v for k, v in rep.to_json().items() if k != "timing_ms"}
                for rep in reports
            ],
            "skipped": [{"name": n, "reason": r} for n, r in skips],
        }
        _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args)
    else:
        lines = extra + _report_lines(reports, skips)
        _write_out("\n".join(lines) + "\n", args)
    return 0 if all(rep.passed for rep in reports) else 1


def _matrix_lines(m, header):
    lines = [header]
    for i in range(m.rows):
        for j in range(m.cols):
            lines.append(f"[{i},{j}] {m.entry(i, j).render()}")
    return lines


def _matrix_grid(m):
    return [[m.entry(i, j).render() for j in range(m.cols)] for i in range(m.rows)]


def cmd_export(args):
    src = _resolve_source(args)
    what = args.what
    if what == "transport":
        m = src.matrix
        if args.as_json:
            doc = {
                "what": "transport",
                "rows": m.rows,
                "cols": m.cols,
                "entries": _matrix_grid(m),
            }
            _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args)
        else:
            lines = _matrix_lines(m, f"transport {m.rows}x{m.cols}")
            _write_out("\n".join(lines) + "\n", args)
        return 0
    order = _size(args, "order", 2 if what == "levels" else 1, 0)
    if what == "levels":
        t = levels_T(src.blocks())
        labeled = [(f"T_{k}", t.get(k)) for k in range(order + 1)]
    else:
        a = reflection_series(loop_generators(src.blocks()))
        labeled = [(f"A^({k})", a.get(k + 1)) for k in range(order + 1)]
    if args.as_json:
        doc = {
            "what": what,
            "order": order,
            "levels": {label: _matrix_grid(m) for label, m in labeled},
        }
        _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args)
    else:
        lines = []
        for label, m in labeled:
            lines += _matrix_lines(m, f"{label} {m.rows}x{m.cols}")
        _write_out("\n".join(lines) + "\n", args)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qtransport",
        description="exact identity checks for quantum transport matrices",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="network JSON file")
    common.add_argument(
        "--builder",
        choices=["triangle", "chain", "composite", "hat"],
        help="named family instead of a file (hat and composite are "
        "classical/generic block systems, not planar networks)",
    )
    common.add_argument("--n", help="builder size: N for triangle, N1,N2 for chain")
    common.add_argument("--bridge", action="store_true", help="chain: add the parallel route")
    common.add_argument("--r", type=int, help="hat size / frp table row bound")
    common.add_argument("--k", type=int, help="rmatrix size")
    common.add_argument("--p", type=int, help="frp table column bound")
    common.add_argument("--split", help="block split n1,m,n2 of the transport matrix")
    common.add_argument("--kmax", type=int, help="affine: largest first level")
    common.add_argument("--pmax", type=int, help="affine: largest second level")
    common.add_argument("--order", type=int, help="series depth for loop/reflection/export")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--json", dest="as_json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", parents=[common], help="run identity checkers")
    p_check.add_argument("kind", choices=CHECK_NAMES)
    p_check.set_defaults(func=cmd_check)
    p_export = sub.add_parser("export", parents=[common], help="export transport data")
    p_export.add_argument("what", choices=["transport", "levels", "reflection"])
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except TruncationRequired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
