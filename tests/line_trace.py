"""Which lines of src/qtransport the test suite never runs.

    python3 tests/line_trace.py

runs pytest on tests/ in this process under sys.settrace (and
threading.settrace), with the stdlib only, and then lists every executable
line of src/qtransport that no test ran.  A line is executable when
dis.findlinestarts gives it to an instruction of some code object of its
module.  ALLOWED names, as source snippets, the lines no in-process trace
can see: a forked child's work and the __main__ guard.  The tool prints
each unrun line, marked "allowed" when it lies in an ALLOWED snippet, and
exits 1 when some other line is unrun, when a snippet no longer occurs
exactly once, or with pytest's own exit code when a test fails.

The trace makes the suite about three times slower than a plain run, so,
like tests/mutants.py, it is not part of the tier-1 suite;
tests/test_line_trace.py checks there that every snippet still occurs once.
"""

import dis
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qtransport"

# (file under src/qtransport, snippet): lines that run only where the trace
# cannot see them
ALLOWED = [
    # check all's forked child, which leaves through os._exit
    ("cli.py", """\
        code = 1
        try:
            os.close(read_end)
            outcome = pickle.dumps(_run_share(FORKED, src, args, BaseException))
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(outcome)
            code = 0
        finally:
            os._exit(code)
"""),
    # reflection-affine runs only in the child's share of the suite
    ("cli.py", "        return verify.check_reflection_affine(src.reflection, 1)\n"),
    ("cli.py", "    sys.exit(main())\n"),
]


def executable_lines(path):
    """The line numbers findlinestarts gives to some code object of a module."""
    todo = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_code")]
    return lines


def snippet_lines(name, snippet):
    """The line numbers of snippet in file name; ValueError unless it occurs once."""
    text = (SRC / name).read_text()
    if text.count(snippet) != 1:
        raise ValueError(f"snippet does not occur once in {name}: {snippet!r}")
    first = text[:text.index(snippet)].count("\n") + 1
    return set(range(first, first + snippet.count("\n")))


def allowed_lines():
    """{file name: allowed line numbers}; raises ValueError on a stale snippet."""
    out = {}
    for name, snippet in ALLOWED:
        out.setdefault(name, set()).update(snippet_lines(name, snippet))
    return out


def trace(run):
    """(run's result, {absolute path: set of lines run}) for the files of SRC."""
    hits = {str(p): set() for p in SRC.glob("*.py")}
    seen = {}  # co_filename -> its set in hits, or None outside SRC

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        lines = seen.get(name, False)
        if lines is False:
            lines = seen[name] = hits.get(str(pathlib.Path(name).resolve()))
        if lines is None:
            return None

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        return local_trace

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def main():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        allowed = allowed_lines()
    except ValueError as exc:
        print(f"STALE {exc}")
        return 1
    import pytest

    args = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    code, hits = trace(lambda: pytest.main(args))
    if code != 0:
        print(f"pytest exited {code}; no trace reported")
        return int(code)
    total = unrun = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text().splitlines()
        total += len(lines)
        for n in sorted(lines - hits[str(path)]):
            ok = n in allowed.get(path.name, ())
            unrun += not ok
            print(f"{'allowed' if ok else 'UNRUN  '} {path.name}:{n}: {source[n - 1].strip()}")
    print(f"{total} executable lines in src/qtransport, {unrun} unrun outside ALLOWED")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
