"""`check all` with its suite split over two processes.

cli._run_all runs the checkers of cli.FORKED in a forked child beside the
other ones.  Its reports, skips, stdout, stderr and exit codes must be
those of running the suite serially, which serial_run_all below keeps as
the oracle, and no child may outlive a command.
"""

import importlib.util
import json
import os
import pathlib
import re
import signal
import subprocess
import sys

import pytest

from cli_corpus import _perturbed
from qtransport import cli, verify
from qtransport.ncmat import NotInvertibleInSupportedClass
from qtransport.network import build_chain

ROOT = pathlib.Path(__file__).resolve().parents[1]


def serial_run_all(src, args):
    """The suite run in one process, in order: the oracle of cli._run_all."""
    cli._read_flags(args, "check all")  # as cmd_check: refuse bad flags, fill in sizes
    reports = [cli.CHECKS["rtt"](src, args)]
    if src.split is None:
        return reports, [("block checks", "no --split given")]
    reports += [cli.CHECKS[kind](src, args) for kind in ("blocks", "affine")]
    try:
        src.blocks.M12_inverse  # every negative level reads it
    except NotInvertibleInSupportedClass:
        return reports, [("loop family", "M12 is not invertible here")]
    for kind in ("aux-inverse", "loop", "subalgebra", "appendix"):
        reports.append(cli.CHECKS[kind](src, args))
    reports.append(verify.check_reflection_affine(src.reflection, 1))
    return reports, []


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _all_chain_argv(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS["all-chain"]
    path = tmp_path / "all-chain.json"
    path.write_text(json.dumps(workloads.workload_doc(workload, 1)))
    return [a.replace("{input}", str(path)) for a in workload.argv]


SOURCES = {
    **{f"triangle{n}": ["--builder", "triangle", "--n", str(n)] for n in range(1, 5)},
    **{
        f"chain{n1}{n2}b": ["--builder", "chain", "--n", f"{n1},{n2}", "--bridge"]
        for n1 in range(1, 4)
        for n2 in range(1, 4)
    },
    "hat2": ["--builder", "hat", "--r", "2"],
    "hat3": ["--builder", "hat", "--r", "3"],
    "composite": ["--builder", "composite"],
}


def _argv(name, tmp_path):
    if name == "all-chain":
        return _all_chain_argv(tmp_path)
    if name == "perturbed-chain22b":
        # residuals in every checker, so FAIL lines come from both processes
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(_perturbed(build_chain(2, 2, bridge=True))))
        return ["check", "all", "--input", str(path), "--split", "2,1,2"]
    return ["check", "all", *SOURCES[name]]


@pytest.mark.parametrize("name", [*SOURCES, "all-chain", "perturbed-chain22b"])
def test_check_all_matches_the_serial_suite(name, tmp_path, monkeypatch, capsys):
    argv = _argv(name, tmp_path)
    args = cli._build_parser().parse_args(argv)
    cli._read_flags(args, "check all")
    reports, skips = cli._run_all(cli._resolve_source(args), args)
    _no_child_left()
    expected, expected_skips = serial_run_all(cli._resolve_source(args), args)
    assert [r.to_json() for r in reports] == [r.to_json() for r in expected]
    assert skips == expected_skips
    assert [r.name for r in reports] == [*cli.SUITE[: len(reports)]]
    if name.startswith("triangle"):
        assert skips and skips[0][0] in ("block checks", "loop family")
    else:
        assert skips == []
    if name == "perturbed-chain22b":
        assert not any(r.passed for r in reports)
    code = cli.main(argv)
    out = capsys.readouterr()
    monkeypatch.setattr(cli, "_run_all", serial_run_all)
    assert (code, out) == (cli.main(argv), capsys.readouterr())


def _raising(message):
    def check(*args, **kwargs):
        raise ValueError(message)

    return check


def _checker(kind):
    return "check_" + kind.replace("-", "_")


CHAIN11 = ["check", "all", "--builder", "chain", "--n", "1,1", "--bridge"]
# A checker the child runs, and the parent's checkers just before and after it.
CHILD = cli.FORKED[0]
BEFORE = [k for k in cli.SUITE[: cli.SUITE.index(CHILD)] if k not in cli.FORKED][-1]
AFTER = [k for k in cli.SUITE[cli.SUITE.index(CHILD):] if k not in cli.FORKED][0]


@pytest.mark.parametrize(
    "failing, first",
    [
        ((BEFORE, CHILD), BEFORE),  # the parent's error comes first
        ((CHILD,), CHILD),  # the child's alone
        ((AFTER, CHILD), CHILD),  # the child's comes first
        # fixed kinds, which pin the suite order whichever process runs them
        (("affine", "loop"), "affine"),
        (("loop",), "loop"),
        (("subalgebra", "loop"), "loop"),
        (("appendix",), "appendix"),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else v,
)
def test_check_all_raises_the_earliest_error_in_suite_order(
    failing, first, monkeypatch, capsys
):
    for kind in failing:
        monkeypatch.setattr(verify, _checker(kind), _raising(f"{kind} refused"))
    assert cli.main(CHAIN11) == 2
    assert capsys.readouterr() == ("", f"error: {first} refused\n")
    _no_child_left()


def test_a_child_that_dies_is_an_error_not_a_pass(monkeypatch, capsys):
    monkeypatch.setattr(verify, _checker(CHILD), lambda *a: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(RuntimeError, match=r"sent no result \(wait status 9\)"):
        cli.main(CHAIN11)
    assert capsys.readouterr().out == ""
    _no_child_left()


@pytest.mark.parametrize("kind", ["subalgebra", "loop", CHILD])  # parent, parent, child
def test_an_interrupt_on_either_side_stops_the_command(kind, monkeypatch, capsys):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, _checker(kind), interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(CHAIN11)
    assert capsys.readouterr() == ("", "")
    _no_child_left()


def test_the_child_flushes_no_buffer_and_runs_no_exit_hook(tmp_path):
    # stdout to a pipe is block-buffered: a child that left through sys.exit
    # would write "before" a second time, and run the atexit hook again.
    script = (
        "import atexit, sys\n"
        "from qtransport import cli\n"
        "atexit.register(lambda: sys.stderr.write('exit hook\\n'))\n"
        "sys.stdout.write('before\\n')\n"
        f"sys.exit(cli.main({CHAIN11!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0
    assert done.stdout.count("before") == 1 and "PASS reflection-affine" in done.stdout
    assert done.stderr == "exit hook\n"


def test_uninvertible_m12_skips_and_bad_splits_keep_suite_order(monkeypatch, capsys):
    # triangle(2): M12 is the 1x1 zero matrix
    assert cli.main(["check", "all", "--builder", "triangle", "--n", "2"]) == 0
    assert "SKIP loop family (M12 is not invertible here)" in capsys.readouterr().out
    _no_child_left()
    # a source whose split does not fit: rtt passes, then blocks refuses it
    args = cli._build_parser().parse_args(CHAIN11)
    cli._read_flags(args, "check all")
    src = cli._Source(cli._resolve_source(args).matrix, (1, 1, 5))
    with pytest.raises(ValueError) as serial:
        serial_run_all(src, args)
    with pytest.raises(ValueError, match=re.escape(str(serial.value))):
        cli._run_all(src, args)
    # and an error of rtt, which comes first in suite order, wins over it
    monkeypatch.setattr(verify, "check_rtt", _raising("rtt refused"))
    with pytest.raises(ValueError, match="^rtt refused$"):
        cli._run_all(src, args)
    _no_child_left()
    # a --split that does not fit is refused with the source, before any check
    argv = [*CHAIN11, "--split", "1,1,5"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {serial.value}\n")


# triangle(3): M12 is not invertible, so the parent's aux-inverse raises
# NotInvertibleInSupportedClass while the child runs affine.
TRIANGLE3 = ["check", "all", "--builder", "triangle", "--n", "3"]


@pytest.mark.parametrize(
    "failing, first",
    [
        (("affine",), "affine"),  # the child's error beats the parent's M12 error
        (("blocks", "affine"), "blocks"),  # the parent's error beats the child's
    ],
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else v,
)
def test_errors_beside_an_uninvertible_m12_keep_suite_order(
    failing, first, monkeypatch, capsys
):
    run_split, outcomes = cli._run_split, []

    def spied(*args):
        outcomes.append(run_split(*args))
        return outcomes[-1]

    monkeypatch.setattr(cli, "_run_split", spied)
    assert cli.main(TRIANGLE3) == 0
    assert "SKIP loop family (M12 is not invertible here)" in capsys.readouterr().out
    reports, error = outcomes[-1]
    assert [r.name for r in reports] == ["rtt", "blocks", "affine"]
    assert isinstance(error, NotInvertibleInSupportedClass)
    for kind in failing:
        monkeypatch.setattr(verify, _checker(kind), _raising(f"{kind} refused"))
    assert cli.main(TRIANGLE3) == 2
    assert capsys.readouterr() == ("", f"error: {first} refused\n")
    _no_child_left()


def test_an_interrupt_beside_an_uninvertible_m12_stops_the_command(monkeypatch, capsys):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "check_affine", interrupted)  # run by the child
    with pytest.raises(KeyboardInterrupt):
        cli.main(TRIANGLE3)
    assert capsys.readouterr() == ("", "")
    _no_child_left()
