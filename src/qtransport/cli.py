"""Command-line front end.

Loads a network file or builds a named family, runs identity checkers from
the verify module, and exports transport data in a canonical text or JSON
rendering.  Exit codes: 0 all checks passed, 1 a check failed, 2 bad
arguments or unreadable input, a network with a directed cycle among them.

Each check kind is one entry of CHECKS; `check all` runs its suite through
the same entries.  Series are built on first read, so only windows are sized.

Output is deterministic for a fixed command line.
"""

import argparse
import gc
import json
import os
import sys
from functools import cached_property

from . import verify
from .affine import levels_T, loop_generators, reflection_series
from .ncmat import NotInvertibleInSupportedClass
from .network import (
    block_split,
    build_chain,
    build_composite_example,
    build_triangle,
    check_split,
    f_rp_closed,
    f_rp_recursion,
    hat_blocks,
    load_network,
    staircase_level,
    transport_matrix,
)


def _parse_ints(text, count):
    try:
        vals = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")
    if len(vals) != count:
        raise ValueError(f"expected {count} comma-separated integers, got {text!r}")
    return vals


# The largest sizes accepted.  On chain(2,2,bridge) each series window runs
# in under two seconds, and check rmatrix --k 32 in under three.  Past them
# the constants and an export's series grow to hundreds of megabytes, and a
# window's time grows steeply (check affine --kmax 64 takes about 20 s).
# check frp --r 24 --p 24 takes about 0.4 s, reading each row off one
# staircase block system.  The slowest command on hat(256) takes about
# 3 s, and inverting hat(r)'s M12 recurses r levels deep, so near r = 1000
# it passes Python's recursion limit.
MAX_K = 32
MAX_FRP = 24
MAX_HAT_R = 256
MAX_EXPORT_ORDER = 8
MAX_LOOP_ORDER = 32
MAX_LEVEL = 24
MAX_REFLECTION_ORDER = 8


# Command -> the sizes it reads, each flag -> (default, least, most).  A size
# below least would crash, fail an identity that holds, or leave a checker an
# empty window that passes without checking anything; one above most would
# not finish.  A default that names a flag is that flag's value.
LEVELS = {"kmax": (2, 0, MAX_LEVEL), "pmax": ("kmax", 0, MAX_LEVEL)}
SIZES = {
    "check rmatrix": {"k": (2, 1, MAX_K)},
    "check frp": {"r": (8, 1, MAX_FRP), "p": (8, 1, MAX_FRP)},
    "check affine": LEVELS,
    "check loop": {"order": (2, 1, MAX_LOOP_ORDER)},
    "check reflection-affine": {"order": (1, 0, MAX_REFLECTION_ORDER)},
    "check all": {"order": (2, 1, MAX_LOOP_ORDER), **LEVELS},
    "export levels": {"order": (2, 0, MAX_EXPORT_ORDER)},
    "export reflection": {"order": (1, 0, MAX_EXPORT_ORDER)},
}
SOURCELESS = ("check rmatrix", "check frp")
# Builder -> the flags it reads; hat reads --r as a size.
BUILDER_FLAGS = {"triangle": ("n",), "chain": ("n", "bridge"), "hat": ("r",)}
BUILDER_SIZES = {"hat": {"r": (2, 1, MAX_HAT_R)}}
# Every flag but --out and --json, which every command reads, in refusal order.
FLAGS = ("input", "builder", "split", "n", "bridge", "r", "k", "p", "kmax", "pmax", "order")


def _read_flags(args, command):
    """Refuse each flag that command does not read; check and set each size it reads.

    command is "check KIND" or "export WHAT".  A command with a source reads
    --input, --builder, --split and the flags of its builder.  Nothing is
    built or read before this returns.  An absent size is set to its default.
    """
    sizes, reads = SIZES.get(command, {}), ()
    if command not in SOURCELESS:
        if args.input is not None and args.builder:
            raise ValueError("pass either --input or --builder, not both")
        sizes = {**BUILDER_SIZES.get(args.builder, {}), **sizes}
        reads = ("input", "builder", "split", *BUILDER_FLAGS.get(args.builder, ()))
    for flag in FLAGS:
        if getattr(args, flag) is None or flag in reads or flag in sizes:
            continue
        builders = [b for b, flags in BUILDER_FLAGS.items() if flag in flags]
        if reads and builders:  # a builder flag of a command with a source
            raise ValueError(f"--{flag} needs --builder " + " or --builder ".join(builders))
        raise ValueError(f"{command} takes no --{flag}")
    for flag, (default, least, most) in sizes.items():
        value = getattr(args, flag)
        if value is None:
            value = getattr(args, default) if isinstance(default, str) else default
        elif value < least:
            raise ValueError(f"--{flag} must be at least {least}, got {value}")
        elif value > most:
            raise ValueError(f"--{flag} must be at most {most}, got {value}")
        setattr(args, flag, value)


class _Source:
    """The resolved input: a transport matrix plus an optional block split.

    The blocks and the series built from them are built once, on first read.
    """

    def __init__(self, matrix, split):
        self.matrix = matrix
        self.split = split

    @cached_property
    def blocks(self):
        if self.split is None:
            raise ValueError("this check needs a block split; pass --split n1,m,n2")
        return block_split(self.matrix, *self.split)

    @cached_property
    def loop(self):
        return loop_generators(self.blocks)

    @cached_property
    def reflection(self):
        return reflection_series(self.loop)


def _resolve_source(args):
    """The source the checked flags name; a --split that does not fit it is refused."""
    split = _parse_ints(args.split, 3) if args.split is not None else None
    if args.input is not None:
        m, default = transport_matrix(load_network(args.input)), None
    elif args.builder == "triangle":
        (n,) = _parse_ints(args.n, 1) if args.n is not None else (2,)
        m = transport_matrix(build_triangle(n))  # 2n x n
        default = (1, n - 1, n + 1) if n > 1 else None
    elif args.builder == "chain":
        n1, n2 = _parse_ints(args.n, 2) if args.n is not None else (1, 1)
        m, default = transport_matrix(build_chain(n1, n2, bridge=args.bridge)), (n1, 1, n2)
    elif args.builder == "hat":
        m, default = hat_blocks(args.r).matrix, (1, args.r, 1)
    elif args.builder == "composite":
        b = build_composite_example()
        m, default = b.matrix, (b.n1, b.m, b.n2)
    else:
        raise ValueError("no input: pass --input FILE or --builder NAME")
    if split is not None:
        check_split(m, *split)
    return _Source(m, split or default)


def _frp_report(rmax, pmax):
    """The f^r_p agreement report and the lines of its table.

    A row reads every p off one block system, so it inverts M12 once.
    """
    residuals = []
    lines = [f"f^r_p (rows r=1..{rmax}, columns p=1..{pmax})"]
    for r in range(1, rmax + 1):
        blocks = hat_blocks(r)
        row = []
        for p in range(1, pmax + 1):
            vals = {"closed": f_rp_closed(r, p), "recursion": f_rp_recursion(r, p)}
            vals["matrix"] = staircase_level(blocks, p)
            if len(set(vals.values())) != 1:
                value = ", ".join(f"{m}={v}" for m, v in sorted(vals.items()))
                residuals.append({"index": f"({r},{p})", "value": value})
            row.append(str(vals["matrix"]))
        lines.append(f"r={r}: " + " ".join(row))
    rep = verify.CheckReport(
        name="frp",
        parameters={"r": rmax, "p": pmax},
        passed=not residuals,
        residuals=residuals,
    )
    return rep, lines


# Check kind -> its report on a resolved source.  "aux-inverse" runs only
# inside "check all"; every other kind is also a `check` choice.
CHECKS = {
    "rtt": lambda src, args: verify.check_rtt(src.matrix),
    "blocks": lambda src, args: verify.check_blocks(src.blocks),
    "affine": lambda src, args: verify.check_affine(levels_T(src.blocks), args.kmax, args.pmax),
    "loop": lambda src, args: verify.check_loop(src.loop, -args.order, args.order - 1),
    "subalgebra": lambda src, args: verify.check_subalgebra(src.loop),
    "groupoid": lambda src, args: verify.check_groupoid(src.blocks),
    "reflection": lambda src, args: verify.check_reflection_constant(src.reflection.get(1)),
    "reflection-affine": lambda src, args: verify.check_reflection_affine(
        src.reflection, args.order
    ),
    "disc-reflection": lambda src, args: verify.check_disc_reflection(src.matrix),
    "appendix": lambda src, args: verify.check_appendix(src.blocks),
    "aux-inverse": lambda src, args: verify.check_aux_inverse(src.blocks),
}


# The suite of `check all` in report order.  From aux-inverse on, the loop
# family reads M12^-1; reflection-affine runs at window 1 whatever --order.
SUITE = ("rtt", "blocks", "affine", "aux-inverse", "loop", "subalgebra", "appendix",
         "reflection-affine")
# The share a forked child runs beside the rest: affine and reflection-affine
# cost about as much as the other six together (loop, the slowest, included).
FORKED = ("affine", "reflection-affine")


def _suite_check(kind, src, args):
    if kind == "reflection-affine":
        return verify.check_reflection_affine(src.reflection, 1)
    return CHECKS[kind](src, args)


def _run_all(src, args):
    """The identity suite: every relation the input is expected to satisfy.

    The groupoid condition and the disc reflection both presume extra
    structure (a loopback-consistent network, a mirrored sink split), so
    they are property probes rather than identities; run them explicitly.
    With a split, FORKED runs in a child process beside the rest (see
    _run_split); reports, skips and errors are those of running SUITE in
    order, which skips the loop family where M12 is not invertible.
    """
    if src.split is None:
        return [CHECKS["rtt"](src, args)], [("block checks", "no --split given")]
    try:
        src.blocks.M12_inverse  # every negative level reads it; both processes share it
    except Exception:
        pass  # a failed read is not cached: the first check that reads it raises it
    reports, error = _run_split(src, args)
    if isinstance(error, NotInvertibleInSupportedClass):
        return reports, [("loop family", "M12 is not invertible here")]
    if error is not None:
        raise error
    return reports, []


def _run_share(kinds, src, args, catch):
    """(reports by kind, (kind, exception) or None): kinds in order to the first error.

    Only exceptions of the type catch are kept; any other propagates.
    """
    reports = {}
    for kind in kinds:
        try:
            reports[kind] = _suite_check(kind, src, args)
        except catch as exc:
            return reports, (kind, exc)
    return reports, None


def _run_split(src, args):
    """(reports, error): SUITE to its first error, FORKED run in a forked child.

    The command starts no thread, so the fork copies a consistent state.
    The child sends its share's outcome, an interrupt included, back
    pickled over a pipe, writes nothing else and leaves through os._exit,
    so no inherited buffer or exit hook runs twice.  Each side stops at its
    first error; the one earliest in SUITE is returned with the reports
    before it, where a serial run stops.  A child that ends without a result
    is a RuntimeError.  The parent always reads the pipe and reaps the
    child, also when an interrupt stops its own share.  On one CPU the two
    shares take turns, at about 4.5% more wall time than a serial run.
    """
    import pickle

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            outcome = pickle.dumps(_run_share(FORKED, src, args, BaseException))
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(outcome)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        mine = _run_share([k for k in SUITE if k not in FORKED], src, args, Exception)
    finally:
        with os.fdopen(read_end, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(
            f"check all: the child running {', '.join(FORKED)} sent no result "
            f"(wait status {status})"
        )
    theirs = pickle.loads(data)
    errors = [error for _, error in (mine, theirs) if error is not None]
    kind, error = min(errors, key=lambda error: SUITE.index(error[0]), default=(None, None))
    done = {**mine[0], **theirs[0]}
    return [done[k] for k in SUITE[:SUITE.index(kind) if errors else None]], error


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


def _check_out(path):
    """Refuse an --out that cannot be opened for writing; leave the file as found."""
    if path is None:
        return
    try:
        open(path, "x").close()
    except FileExistsError:
        open(path, "a").close()
    else:
        os.remove(path)


def _emit(args, doc, text_lines):
    """Write doc as JSON under --json, else text_lines(); to --out or stdout."""
    if args.as_json:
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        text = "\n".join(text_lines())
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_check(args):
    _read_flags(args, f"check {args.kind}")
    _check_out(args.out)
    extra, skips = [], []
    if args.kind == "rmatrix":
        reports = [verify.check_rmatrix(args.k)]
    elif args.kind == "frp":
        rep, extra = _frp_report(args.r, args.p)
        reports = [rep]
    elif args.kind == "all":
        reports, skips = _run_all(_resolve_source(args), args)
    else:
        reports = [CHECKS[args.kind](_resolve_source(args), args)]
    runs = [rep.to_json() for rep in reports]
    doc = {"reports": runs, "skipped": [{"name": n, "reason": r} for n, r in skips]}
    _emit(args, doc, lambda: extra + _report_lines(reports, skips))
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_export(args):
    _read_flags(args, f"export {args.what}")
    _check_out(args.out)
    src = _resolve_source(args)
    what, order = args.what, args.order
    if what == "transport":
        labeled = [("transport", src.matrix)]
    elif what == "levels":
        t = levels_T(src.blocks)
        labeled = [(f"T_{k}", t.get(k)) for k in range(order + 1)]
    else:
        labeled = [(f"A^({k})", src.reflection.get(k + 1)) for k in range(order + 1)]
    # each matrix is rendered once; both output forms read that rendering
    grids = {
        label: [[m.entry(i, j).render() for j in range(m.cols)] for i in range(m.rows)]
        for label, m in labeled
    }
    if what == "transport":
        m = src.matrix
        doc = {"what": what, "rows": m.rows, "cols": m.cols, "entries": grids["transport"]}
    else:
        doc = {"what": what, "order": order, "levels": grids}

    def text_lines():
        for label, m in labeled:
            yield f"{label} {m.rows}x{m.cols}"
            for i, row in enumerate(grids[label]):
                yield from (f"[{i},{j}] {entry}" for j, entry in enumerate(row))

    _emit(args, doc, text_lines)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, no usage block; subparsers inherit it
        self.exit(2, f"error: {message}\n")


def _build_parser():
    parser = _Parser(
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
    common.add_argument(
        "--bridge", action="store_true", default=None, help="chain: add the parallel route"
    )
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
    kinds = [k for k in CHECKS if k != "aux-inverse"]
    p_check.add_argument("kind", choices=["rmatrix", *kinds, "frp", "all"])
    p_check.set_defaults(func=cmd_check)
    p_export = sub.add_parser("export", parents=[common], help="export transport data")
    p_export.add_argument("what", choices=["transport", "levels", "reflection"])
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    """Run one command and return its exit code.

    The cyclic garbage collector is off while the command runs: the torus
    products and residual cells a check allocates hold no reference cycles,
    so its passes over them would free nothing.  The collector is left as
    main found it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
