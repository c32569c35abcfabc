"""Hand-made mutants of the fast paths, and the runner that must kill them.

Each mutant names a file under src/qtransport, an exact snippet that occurs
once in src/, its replacement, and the test files expected to catch it.

    python3 tests/mutants.py [name-substring ...]

copies src/, tests/, perfbench/, pyproject.toml and README.md into a temporary
directory, runs every named test file once on the clean copy (each must
pass), then, one mutant at a time, applies the mutant and runs each of its
test files with ``-x``.  A
mutant survives when one of its test files still passes.  A test file that
pytest stops before any test fails (a collection error, exit 2) is NOT RUN,
which kills nothing either.  The runner prints a line per mutant and test
file and exits 1 if any mutant survives, is not run or is stale.  It is not
part of the tier-1 suite; tests/test_mutants.py checks there that every
snippet still occurs exactly once, so the list cannot rot when code moves.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qtransport"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/qtransport
    snippet: str
    replacement: str
    tests: tuple  # file names under tests/


MUTANTS = [
    # packed torus terms
    Mutant(
        "phase sign flipped in add_product",
        "qalg.py",
        "key = ta + tb - phase",
        "key = ta + tb + phase",
        ("test_qalg.py", "test_evaluate_oracle.py"),
    ),
    Mutant(
        "reversed product's phase not negated",
        "qalg.py",
        "key = ta + tb + phase",
        "key = ta + tb - phase",
        ("test_qalg.py", "test_ncmat.py", "test_evaluate_oracle.py", "test_cli_corpus.py"),
    ),
    Mutant(
        "max -> min for the span in QElem.__add__",
        "qalg.py",
        "return from_sums(form, out, max(self.span, other.span))",
        "return from_sums(form, out, min(self.span, other.span))",
        ("test_qalg.py",),
    ),
    Mutant(
        "span check dropped from add_product",
        "qalg.py",
        "        check_span(span)\n    shift, off, rows",
        "        pass\n    shift, off, rows",
        ("test_qalg.py",),
    ),
    Mutant(
        "decode offset off by one",
        "qalg.py",
        "c = code + self.offset\n",
        "c = code + self.offset + 1\n",
        ("test_qalg.py",),
    ),
    Mutant(
        "k shift dropped when scaling by a v-power",
        "ncmat.py",
        "g = [(k << shift, n) for k, n in g]",
        "g = [(k, n) for k, n in g]",
        ("test_ncmat.py", "test_evaluate_oracle.py"),
    ),
    Mutant(
        "k shift dropped in add_scaled",
        "qalg.py",
        "dk = k << shift",
        "dk = k",
        ("test_qalg.py",),
    ),
    Mutant(
        "sparse phase drops its last index",
        "qalg.py",
        "pick = itemgetter(*nz)",
        "pick = itemgetter(*nz[:-1])",
        ("test_qalg.py", "test_evaluate_oracle.py"),
    ),
    # QElem.render straight from packed codes
    Mutant(
        "digit offset 0x8000 -> 0x7fff in the rendered text",
        "qalg.py",
        "ord(ch) - 0x8000",
        "ord(ch) - 0x7fff",
        ("test_qalg.py", "test_golden_residuals.py"),
    ),
    Mutant(
        "monomials sorted by raw little-endian bytes",
        "qalg.py",
        "for run in sorted(mons)",
        'for run in sorted(mons, key=lambda r: r.encode("utf-16-le"))',
        ("test_qalg.py", "test_golden_residuals.py"),
    ),
    Mutant(
        "digit run sliced one digit too wide",
        "qalg.py",
        "run[i:i + _CHUNK]",
        "run[i:i + _CHUNK + 1]",
        ("test_qalg.py",),
    ),
    Mutant(
        "trailing comma left on the digits",
        "qalg.py",
        "for i in cuts])[:-1]}]",
        "for i in cuts])}]",
        ("test_qalg.py", "test_golden_residuals.py"),
    ),
    Mutant(
        "one row memo shared by all forms",
        "qalg.py",
        "self.rows = _Rows()",
        'self.rows = globals().setdefault("_shared_rows", _Rows())',
        ("test_qalg.py",),
    ),
    # matrix kernels
    Mutant(
        # _nonzero_rows serves the pair pass behind matmul and sandwich,
        # sheet_product and add_acted
        "matmul drops the last column of b",
        "ncmat.py",
        "for j, y in enumerate(row) if y.terms]",
        "for j, y in enumerate(row[:-1]) if y.terms]",
        ("test_ncmat.py", "test_evaluate_oracle.py"),
    ),
    Mutant(
        "matmul's form check skipped",
        "ncmat.py",
        "    if a.form != b.form:\n"
        '        raise ValueError("matrices live on different quantum tori")\n'
        "    cells = {}",
        "    if False:\n"
        '        raise ValueError("matrices live on different quantum tori")\n'
        "    cells = {}",
        ("test_refusals.py",),
    ),
    Mutant(
        "swap_sheets keeps the column order",
        "ncmat.py",
        "order = [l * cols2 + j for j in range(cols2) for l in range(cols1)]",
        "order = [l * cols2 + j for l in range(cols1) for j in range(cols2)]",
        ("test_ncmat.py", "test_evaluate_oracle.py"),
    ),
    # the routing primitive ncmat.add_acted
    Mutant(
        "left and right routing swapped",
        "ncmat.py",
        'elif side == "left":',
        'elif side == "right":',
        ("test_ncmat.py", "test_evaluate_oracle.py"),
    ),
    Mutant(
        "coefficient's sign dropped",
        "ncmat.py",
        "else ((0, coeff),)",
        "else ((0, abs(coeff)),)",
        ("test_ncmat.py", "test_evaluate_oracle.py"),
    ),
    Mutant(
        "no-constant branch writes the transposed cell",
        "ncmat.py",
        "(f, i, line, True)",
        "(f, i, line, False)",
        ("test_ncmat.py", "test_evaluate_oracle.py"),
    ),
    Mutant(
        "first-write copy ignores a -1 coefficient",
        "ncmat.py",
        "plain = dk0 == 0 and n0 == 1 and not rest",
        "plain = dk0 == 0 and abs(n0) == 1 and not rest",
        ("test_ncmat.py", "test_evaluate_oracle.py"),
    ),
    Mutant(
        "first write aliases the entry's terms",
        "ncmat.py",
        "cells[pos] = dict(x.terms)",
        "cells[pos] = x.terms",
        ("test_ncmat.py", "test_evaluate_oracle.py"),
    ),
    # the entry-pair passes of matmul, sandwich and entry_products
    Mutant(
        "pass keeps the last product's span",
        "ncmat.py",
        "span = max(span, add_product(sums, x, y))",
        "span = add_product(sums, x, y)",
        ("test_ncmat.py",),
    ),
    Mutant(
        "sandwich adds an entry product at the first v-power of C only",
        "ncmat.py",
        "add_scaled(sums, xy, g)",
        "add_scaled(sums, xy, g[:1])",
        ("test_ncmat.py", "test_evaluate_oracle.py"),
    ),
    Mutant(
        "reversed entry product stored under (id x, id y)",
        "ncmat.py",
        "out[iy, ix] = from_sums",
        "out[ix, iy] = from_sums",
        ("test_ncmat.py", "test_evaluate_oracle.py"),
    ),
    Mutant(
        "cross pair's y x left out of the table",
        "ncmat.py",
        "if x is y:",
        "if x is y or a is not b:",
        ("test_ncmat.py", "test_evaluate_oracle.py"),
    ),
    Mutant(
        "self-pair count without its diagonal",
        "ncmat.py",
        "(sum(tx) ** 2 + sum(t * t for t in tx)) // 2",
        "sum(tx) ** 2 // 2",
        ("test_ncmat.py", "test_verify.py", "test_cli.py"),
    ),
    # one entry-product table per unordered matrix pair in verify.evaluate
    Mutant(
        "table dropped one product early",
        "verify.py",
        "if not todo[pair]:",
        "if todo[pair] <= 1:",
        ("test_verify.py",),
    ),
    # one evaluate budget: term pairs plus product cells
    Mutant(
        "budget sum drops the product cells",
        "verify.py",
        "if pairs + cells > BUDGET:",
        "if pairs > BUDGET:",
        ("test_cli.py",),
    ),
    Mutant(
        "budget sum drops the term pairs",
        "verify.py",
        "if pairs + cells > BUDGET:",
        "if cells > BUDGET:",
        ("test_cli.py",),
    ),
    # a word with an all-zero matrix is dropped before evaluate counts or builds it
    Mutant(
        "a word is dropped when its matrix merely has a zero entry",
        "verify.py",
        "if not (core[0][1].is_zero() or core[-1][1].is_zero())",
        "if not any(e.is_zero() for _, m in (core[0], core[-1]) for row in m.data for e in row)",
        ("test_evaluate_oracle.py", "test_verify.py"),
    ),
    Mutant(
        "zero-factor words kept",
        "verify.py",
        "if not (core[0][1].is_zero() or core[-1][1].is_zero())",
        "if True",
        ("test_cli.py", "test_row_audit.py"),
    ),
    Mutant(
        "residual shape with rows and cols swapped",
        "verify.py",
        "(x.rows * y.rows, x.cols * y.cols, x.form)",
        "(x.cols * y.cols, x.rows * y.rows, x.form)",
        ("test_verify.py", "test_evaluate_oracle.py", "test_row_audit.py"),
    ),
    Mutant(
        "sandwich pairs row r of a",
        "ncmat.py",
        "a_cols = _nonzero_rows(transpose_q(a))",
        "a_cols = _nonzero_rows(a)",
        ("test_ncmat.py", "test_evaluate_oracle.py"),
    ),
    # the R* self-exchange row derived from the R row
    Mutant(
        "repeated row reports a zero residual",
        "verify.py",
        "hit = hit if mat is last else _first_nonzero(mat)",
        "hit = None if mat is last else _first_nonzero(mat)",
        ("test_evaluate_oracle.py", "test_cli_corpus.py"),
    ),
    Mutant(
        "repeated row takes the first row's residual",
        "verify.py",
        "out.append((label, out[-1][1] if terms is None",
        "out.append((label, out[0][1] if terms is None",
        ("test_evaluate_oracle.py",),
    ),
    Mutant(
        "window rows reported in evaluation order",
        "verify.py",
        "return [found[i] for i in range(len(rows))]",
        "return list(found.values())",
        ("test_verify.py", "test_cli_corpus.py"),
    ),
    Mutant(
        "skein check skipped before deriving R*",
        "verify.py",
        "    _skein(m.rows)\n    _skein(m.cols)\n",
        "",
        ("test_verify.py",),
    ),
    # the negative controls of the sourceless checks
    Mutant(
        "a failing R-matrix identity is not reported",
        "verify.py",
        "in sorted(mat.entries.items()):\n            if not val.is_zero():",
        "in sorted(mat.entries.items()):\n            if False:",
        ("test_cli.py",),
    ),
    Mutant(
        "an frp disagreement is not reported",
        "cli.py",
        "if len(set(vals.values())) != 1:",
        "if False:",
        ("test_cli.py",),
    ),
    # the crossing table of a drawing
    Mutant(
        "reversed dart not negated",
        "geometry.py",
        "crossing[(v, u)] = [-x for x in vec]",
        "crossing[(v, u)] = vec",
        ("test_geometry.py", "test_network.py"),
    ),
    Mutant(
        "spoke left out of A(b)",
        "geometry.py",
        "self.arc[b] = [x + y for x, y in zip(a, crossing[(u, b)])]",
        "self.arc[b] = list(a)",
        ("test_geometry.py", "test_network.py"),
    ),
    Mutant(
        # bisect_right on the integer grid
        "lower x bound drops a marker at a segment's start x",
        "geometry.py",
        "order[bisect_left(xs, lo):bisect_left(xs, hi)]",
        "order[bisect_left(xs, lo + 1):bisect_left(xs, hi)]",
        ("test_geometry.py", "test_network.py", "test_cli.py", "test_evaluate_oracle.py"),
    ),
    # the planarity of a drawing
    Mutant(
        "the sweep drops an edge from its active list one step early",
        "geometry.py",
        "active = [box for box in active if box[1] >= x_lo]",
        "active = [box for box in active if box[1] > x_lo]",
        ("test_geometry.py",),
    ),
    Mutant(
        "an end lying on another edge allowed",
        "geometry.py",
        "return o1 * o2 <= 0 and o3 * o4 <= 0",
        "return o1 * o2 < 0 and o3 * o4 < 0",
        ("test_geometry.py",),
    ),
    Mutant(
        "collinear segments never meet",
        "geometry.py",
        "return max(min(a, b), min(c, d)) <= min(max(a, b), max(c, d))",
        "return False",
        ("test_refusals.py",),
    ),
    Mutant(
        "spokes left out of the sweep",
        "geometry.py",
        "segments, boxes, active, met = self.edges + self.spokes, [], [], []",
        "segments, boxes, active, met = self.edges, [], [], []",
        ("test_geometry.py", "test_cli_corpus.py"),
    ),
    Mutant(
        "an edge along its own vertex's spoke allowed",
        "geometry.py",
        "return _dir_cmp(*((ex - x, ey - y) for ex, ey in ends)) == 0",
        "return False",
        ("test_geometry.py",),
    ),
    Mutant(
        "faces walked before the split/merge rule",
        "geometry.py",
        '"""Twice the face skew form, from the per-endpoint edge rule."""\n',
        '"""Twice the face skew form, from the per-endpoint edge rule."""\n'
        "        self.faces()\n",
        ("test_cli_corpus.py",),
    ),
    Mutant(
        "faces not matched with the marker list",
        "geometry.py",
        "if len(face_marker) != len(self.markers):",
        "if False:",
        ("test_cli_corpus.py",),
    ),
    Mutant(
        "same-ray neighbours allowed",
        "geometry.py",
        'self._refuse_pair(rays, "overlap")',
        "pass",
        ("test_geometry.py", "test_cli.py", "test_cli_corpus.py"),
    ),
    # a drawn network completed in Network.__init__
    Mutant(
        "stored skew form not compared with the drawing",
        "network.py",
        "elif tuple(tuple(r) for r in e_mat) != form.E:",
        "elif False:",
        ("test_cli.py", "test_network.py"),
    ),
    Mutant(
        "stored exponents not compared with the drawing",
        "network.py",
        "e.exponent is not None and tuple(e.exponent) != vec",
        "False",
        ("test_cli.py", "test_network.py"),
    ),
    Mutant(
        "a drawn network with a stored form skips derivation",
        "network.py",
        "        if geometry is not None:\n            e_mat, exps",
        "        if geometry is not None and form is None:\n            e_mat, exps",
        ("test_network.py", "test_cli_corpus.py"),
    ),
    Mutant(
        "derived exponents not filled in",
        "network.py",
        "Edge(e.frm, e.to, vec) for e, vec in zip(self.edges, exps)",
        "e for e, vec in zip(self.edges, exps)",
        ("test_network.py", "test_cli.py", "test_evaluate_oracle.py"),
    ),
    Mutant(
        "walk bounds checked for drawn acyclic networks only",
        "network.py",
        "        _refuse_walk(self.longest_path, self.path_count)",
        "        if geometry is not None:\n            _refuse_walk(self.longest_path, self.path_count)",
        ("test_network.py",),
    ),
    Mutant(
        "a directed cycle is not refused",
        "network.py",
        "        if walk is None:",
        "        if False:",
        ("test_network.py", "test_cli.py"),
    ),
    Mutant(
        "build_chain skips its depth refusal",
        "network.py",
        "    _refuse_walk(n1 + max(n2, 2) + 3 if bridge else n1 + n2 + 2, None)",
        "    pass",
        ("test_network.py",),
    ),
    # the path count of the topological pass
    Mutant(
        "paths into a vertex counted once per edge",
        "network.py",
        "paths[w] += paths[v]",
        "paths[w] += 1",
        ("test_network.py", "test_cli.py"),
    ),
    # the command line
    Mutant(
        "collector not re-enabled after a command",
        "cli.py",
        "            gc.enable()",
        "            pass",
        ("test_cli.py",),
    ),
    Mutant(
        "check all: the child's reports placed after the parent's",
        "cli.py",
        "[done[k] for k in SUITE[:SUITE.index(kind) if errors else None]]",
        "list(done.values())[:SUITE.index(kind) if errors else None]",
        ("test_check_all.py",),
    ),
    Mutant(
        "check all: the child's exception dropped",
        "cli.py",
        "for _, error in (mine, theirs) if error",
        "for _, error in (mine,) if error",
        ("test_check_all.py",),
    ),
    Mutant(
        "check all: the parent's later error raised ahead of the child's",
        "cli.py",
        "min(errors, key=lambda error: SUITE.index(error[0]), default=(None, None))",
        "(errors or [(None, None)])[0]",
        ("test_check_all.py",),
    ),
    Mutant(
        "check all: an unreachable M12 raised instead of skipped",
        "cli.py",
        "if isinstance(error, NotInvertibleInSupportedClass):",
        "if False:",
        ("test_check_all.py", "test_cli.py"),
    ),
    Mutant(
        "--bridge read with any builder",
        "cli.py",
        '"split", "n", "bridge", "r",',
        '"split", "n", "r",',
        ("test_cli.py", "test_cli_corpus.py"),
    ),
    Mutant(
        "an unread size flag accepted",
        "cli.py",
        '"r", "k", "p", "kmax", "pmax", "order")',
        '"r")',
        ("test_cli.py", "test_cli_corpus.py"),
    ),
    Mutant(
        "--pmax not defaulting to --kmax",
        "cli.py",
        '"pmax": ("kmax", 0, MAX_LEVEL)',
        '"pmax": (2, 0, MAX_LEVEL)',
        ("test_cli.py",),
    ),
    Mutant(
        "hat's --r bound skipped",
        "cli.py",
        '{"r": (2, 1, MAX_HAT_R)}',
        '{"r": (2, 1, 10**9)}',
        ("test_cli.py",),
    ),
    Mutant(
        "out check keeps the file it made",
        "cli.py",
        "os.remove(path)",
        "pass",
        ("test_cli.py",),
    ),
]


def _pytest(workdir, test_file):
    """Exit code of pytest on one test file of the copy in workdir."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           f"tests/{test_file}"]
    return subprocess.run(cmd, cwd=workdir, env=env, capture_output=True).returncode


def main(patterns):
    mutants = [m for m in MUTANTS if not patterns or any(p in m.name for p in patterns)]
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        shutil.copytree(ROOT / "src", work / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        # tests read perfbench's workload definitions
        shutil.copytree(ROOT / "perfbench", work / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
        for name in ("pyproject.toml", "README.md"):  # test_cli.py reads README
            shutil.copy(ROOT / name, work)
        broken = [f for f in sorted({f for m in mutants for f in m.tests})
                  if _pytest(work, f) != 0]
        if broken:
            print(f"clean copy fails {', '.join(broken)}; no mutant was run")
            return 1
        survivors = 0
        for m in mutants:
            target = work / "src" / "qtransport" / m.path
            clean = target.read_text()
            if clean.count(m.snippet) != 1:
                print(f"STALE   {m.name}: snippet does not occur once in {m.path}")
                survivors += 1
                continue
            target.write_text(clean.replace(m.snippet, m.replacement))
            try:
                for f in m.tests:
                    code = _pytest(work, f)
                    # 1: some test failed; 0: every test passed; any other
                    # exit means pytest ran no test, which is no kill either
                    verdict = {0: "SURVIVED", 1: "killed "}.get(code, "NOT RUN")
                    survivors += code != 1
                    print(f"{verdict} {m.name}: {f} (pytest exit {code})")
            finally:
                target.write_text(clean)
        print(f"{len(mutants)} mutants, {survivors} survived, not run or stale")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
