"""Command-line interface tests: exit codes, output shapes, determinism."""

import functools
import gc
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransport import cli, network, verify
from qtransport.affine import TSeries
from qtransport.network import (
    build_chain,
    build_triangle,
    network_from_dict,
    network_to_dict,
    transport_matrix,
)
from qtransport.qalg import QScalar
from qtransport.rmat import CMatrix

from malformed import MALFORMED, coincident_edge_ends, drawn_triangle2

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_rtt_triangle(capsys):
    code, out = _run(["check", "rtt", "--builder", "triangle", "--n", "2"], capsys)
    assert code == 0
    assert out.startswith("PASS rtt")


def test_check_rmatrix(capsys):
    code, out = _run(["check", "rmatrix", "--k", "3"], capsys)
    assert code == 0
    assert "PASS rmatrix" in out


def test_check_frp_table(capsys):
    code, out = _run(["check", "frp", "--r", "8", "--p", "8"], capsys)
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("r=3:")]
    assert len(rows) == 1
    tokens = rows[0].split()
    # tokens[0] is the label, tokens[p] is f^3_p; the p=5 entry is 3
    assert tokens[5] == "3"
    assert "PASS frp" in out


def test_check_frp_inverts_m12_once_per_row(monkeypatch, capsys):
    inverted, invert = [], network.invert_restricted

    def counted(m):
        inverted.append(m.rows)
        return invert(m)

    monkeypatch.setattr(network, "invert_restricted", counted)
    code, out = _run(["check", "frp", "--r", "3", "--p", "4"], capsys)
    assert code == 0 and "PASS frp" in out
    assert inverted == [1, 2, 3]


def test_check_rmatrix_negative_control(monkeypatch, capsys):
    build = verify.build_R

    def broken(k, inverse_q=False):  # R's q at diagonal entry (0, 0) becomes 1
        r = build(k, inverse_q)
        return r if inverse_q else CMatrix(r.rows, r.cols, {**r.entries, (0, 0): QScalar.one()})

    monkeypatch.setattr(verify, "build_R", broken)
    verify.const.cache_clear()
    try:
        code, out = _run(["check", "rmatrix", "--k", "2"], capsys)
    finally:
        verify.const.cache_clear()  # drop the broken constants
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL rmatrix [k=2]"
    assert "  residual inverse[0,0] = 1*v^-2 + -1" in lines  # q^-1 - 1 with q = v^2


def test_check_frp_negative_control(monkeypatch, capsys):
    closed = cli.f_rp_closed
    monkeypatch.setattr(cli, "f_rp_closed", lambda r, p: closed(r, p) + ((r, p) == (2, 3)))
    code, out = _run(["check", "frp", "--r", "3", "--p", "3"], capsys)
    assert code == 1
    residuals = [line for line in out.splitlines() if "residual" in line]
    assert residuals == ["  residual (2,3) = closed=0, matrix=-1, recursion=-1"]


# Each size below its least value either crashed, failed an identity that
# holds, or left a checker an empty window that passed without checking.
BAD_SIZES = {
    "frp-r-zero": ["check", "frp", "--r", "0"],
    "frp-r-negative": ["check", "frp", "--r", "-1"],
    "frp-p-zero": ["check", "frp", "--p", "0"],
    "rmatrix-k-zero": ["check", "rmatrix", "--k", "0"],
    "rmatrix-k-negative": ["check", "rmatrix", "--k", "-2"],
    "hat-r-zero": ["check", "rtt", "--builder", "hat", "--r", "0"],
    "affine-kmax-negative": [
        "check", "affine", "--builder", "chain", "--n", "1,1",
        "--kmax", "-1", "--pmax", "2",
    ],
    "affine-pmax-negative": [
        "check", "affine", "--builder", "chain", "--n", "1,1", "--pmax", "-1",
    ],
    "all-order-zero": [
        "check", "all", "--builder", "chain", "--n", "1,1", "--bridge",
        "--order", "0",
    ],
    "reflection-affine-order-negative": [
        "check", "reflection-affine", "--builder", "chain", "--n", "1,1",
        "--bridge", "--order", "-1",
    ],
    "export-levels-order-negative": [
        "export", "levels", "--builder", "chain", "--n", "1,1", "--order", "-1",
    ],
    "export-reflection-order-negative": [
        "export", "reflection", "--builder", "chain", "--n", "1,1", "--bridge",
        "--order", "-1",
    ],
}


@pytest.mark.parametrize("argv", list(BAD_SIZES.values()), ids=list(BAD_SIZES))
def test_bad_size_exits_2_with_one_line(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --") and captured.err.count("\n") == 1


# A source flag that the command does not read is refused before any source
# is built or read: each command below ran on another network, or on none.
SOURCES = {
    "triangle": ["--builder", "triangle"],
    "chain": ["--builder", "chain"],
    "hat": ["--builder", "hat"],
    "composite": ["--builder", "composite"],
    "input": ["--input", "missing.json"],
    "none": [],
}


def _refused(argv, message, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _refused_but_for(builders, flag, message, capsys):
    for name, source in SOURCES.items():
        if name not in builders:
            _refused(["check", "rtt", *source, *flag], message, capsys)


def test_bridge_needs_builder_chain(capsys):
    _refused_but_for(["chain"], ["--bridge"], "--bridge needs --builder chain", capsys)
    _refused(["export", "transport", "--builder", "composite", "--bridge"],
             "--bridge needs --builder chain", capsys)
    assert cli.main(["check", "rtt", "--builder", "chain", "--n", "1,1", "--bridge"]) == 0


def test_n_needs_builder_triangle_or_chain(capsys):
    _refused_but_for(["triangle", "chain"], ["--n", "7"],
                     "--n needs --builder triangle or --builder chain", capsys)
    assert cli.main(["check", "rtt", "--builder", "triangle", "--n", "2"]) == 0
    assert cli.main(["check", "rtt", "--builder", "chain", "--n", "1,1"]) == 0


def test_r_needs_builder_hat_except_in_check_frp(capsys):
    _refused_but_for(["hat"], ["--r", "5"], "--r needs --builder hat", capsys)
    _refused(["check", "rmatrix", "--r", "5"], "check rmatrix takes no --r", capsys)
    assert cli.main(["export", "transport", "--builder", "hat", "--r", "3"]) == 0
    assert cli.main(["check", "frp", "--r", "2", "--p", "2"]) == 0


@pytest.mark.parametrize("kind, size", [("rmatrix", ["--k", "2"]), ("frp", ["--p", "2"])])
def test_rmatrix_and_frp_take_no_source_flag(kind, size, capsys):
    for flag, value in [("--input", ["missing.json"]), ("--builder", ["triangle"]),
                        ("--split", ["1,1,1"]), ("--n", ["2"]), ("--bridge", [])]:
        _refused(["check", kind, *size, flag, *value], f"check {kind} takes no {flag}", capsys)
    assert cli.main(["check", kind, *size]) == 0


class _Accepted(Exception):
    """Raised with args once cli._read_flags has accepted a command's flags."""


# A value for every flag of the parser, and for each builder flag the
# builder that reads it.
FLAG_VALUES = {
    "--input": ["missing.json"], "--builder": ["composite"], "--n": ["7"], "--bridge": [],
    "--r": ["3"], "--k": ["2"], "--p": ["2"], "--split": ["1,1,1"], "--kmax": ["1"],
    "--pmax": ["1"], "--order": ["1"], "--out": ["out.txt"], "--json": [],
}
READERS = {"--n": "triangle", "--bridge": "chain", "--r": "hat"}
SOURCE_FLAGS = ("--input", "--builder", "--split", *READERS)


def _subparsers():
    return next(a for a in cli._build_parser()._actions if a.dest == "command").choices


def _commands():
    return [
        f"{name} {choice}"
        for name, sub in _subparsers().items()
        for action in sub._actions
        if action.dest in ("kind", "what")
        for choice in action.choices
    ]


@pytest.mark.parametrize("command", _commands())
def test_each_command_refuses_every_flag_it_does_not_read(command, monkeypatch, capsys):
    sub = _subparsers()[command.split()[0]]
    flags = [a.option_strings[0] for a in sub._actions if a.option_strings and a.dest != "help"]
    read_flags = cli._read_flags

    def accepted(args, name):
        read_flags(args, name)
        raise _Accepted(args)

    monkeypatch.setattr(cli, "_read_flags", accepted)
    sourced = command not in ("check rmatrix", "check frp")
    sizes = cli.SIZES.get(command, {})
    for flag in flags:
        value = FLAG_VALUES[flag]
        builder = ["--builder", READERS[flag]] if sourced and flag in READERS else []
        argv = [*command.split(), *builder, flag, *value]
        if flag in ("--out", "--json") or flag[2:] in sizes or sourced and flag in SOURCE_FLAGS:
            with pytest.raises(_Accepted) as read:
                cli.main(argv)
            assert all(isinstance(getattr(read.value.args[0], s), int) for s in sizes), argv
        else:
            _refused(argv, f"{command} takes no {flag}", capsys)


def _no_source(*args, **kwargs):
    raise AssertionError("a source was built")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "loop", "--builder", "chain", "--n", "300,300", "--order", "99"],
         "--order must be at most 32, got 99"),
        (["export", "levels", "--builder", "triangle", "--n", "17", "--order", "99"],
         "--order must be at most 8, got 99"),
        (["check", "rtt", "--builder", "hat", "--r", "257"], "--r must be at most 256, got 257"),
        (["check", "rtt", "--builder", "triangle", "--n", "2", "--order", "1"],
         "check rtt takes no --order"),
        (["check", "rtt", "--input", "net.json", "--n", "2"],
         "--n needs --builder triangle or --builder chain"),
    ],
    ids=["loop-order", "export-levels-order", "hat-r", "unread-order", "unread-n"],
)
def test_a_refused_flag_builds_no_source(argv, message, monkeypatch, capsys):
    for name in ("build_chain", "build_triangle", "load_network", "hat_blocks",
                 "transport_matrix"):
        monkeypatch.setattr(cli, name, _no_source)
    _refused(argv, message, capsys)
    with pytest.raises(AssertionError, match="a source was built"):
        cli.main(argv[:-2])


def test_rmatrix_k_past_its_bound_builds_no_constant(monkeypatch, capsys):
    def no_constant(*args):
        raise AssertionError("a constant was built")

    monkeypatch.setattr(verify, "const", no_constant)
    assert cli.main(["check", "rmatrix", "--k", str(cli.MAX_K + 1)]) == 2
    assert capsys.readouterr() == ("", "error: --k must be at most 32, got 33\n")
    with pytest.raises(AssertionError, match="a constant was built"):
        cli.main(["check", "rmatrix", "--k", str(cli.MAX_K)])


@pytest.mark.parametrize("what", ["levels", "reflection"])
def test_export_order_past_its_bound_builds_no_level(what, monkeypatch, capsys):
    def no_level(self, k):
        raise AssertionError("a level was built")

    monkeypatch.setattr(TSeries, "get", no_level)
    argv = ["export", what, "--builder", "chain", "--n", "1,1", "--bridge", "--order"]
    assert cli.main([*argv, str(cli.MAX_EXPORT_ORDER + 1)]) == 2
    assert capsys.readouterr() == ("", "error: --order must be at most 8, got 9\n")
    with pytest.raises(AssertionError, match="a level was built"):
        cli.main([*argv, str(cli.MAX_EXPORT_ORDER)])


@pytest.mark.parametrize(
    "argv, flag, most",
    [
        (["check", "loop"], "order", cli.MAX_LOOP_ORDER),
        (["check", "all"], "order", cli.MAX_LOOP_ORDER),
        (["check", "reflection-affine"], "order", cli.MAX_REFLECTION_ORDER),
        (["check", "affine"], "kmax", cli.MAX_LEVEL),
        (["check", "affine", "--kmax", "0"], "pmax", cli.MAX_LEVEL),
        (["check", "all"], "kmax", cli.MAX_LEVEL),
    ],
    ids=["loop-order", "all-order", "reflection-affine-order", "affine-kmax",
         "affine-pmax", "all-kmax"],
)
def test_series_window_past_its_bound_builds_no_level(
    argv, flag, most, monkeypatch, capsys
):
    def no_level(self, k):
        raise AssertionError("a level was built")

    monkeypatch.setattr(TSeries, "get", no_level)
    argv = [*argv, "--builder", "chain", "--n", "1,1", "--bridge", f"--{flag}"]
    assert cli.main([*argv, str(most + 1)]) == 2
    err = f"error: --{flag} must be at most {most}, got {most + 1}\n"
    assert capsys.readouterr() == ("", err)
    with pytest.raises(AssertionError, match="a level was built"):
        cli.main([*argv, str(most)])


def test_series_windows_at_their_bounds_run(capsys):
    chain = ["--builder", "chain", "--n", "1,1", "--bridge"]
    order, level = str(cli.MAX_LOOP_ORDER), str(cli.MAX_LEVEL)
    argv = ["check", "all", *chain, "--order", order, "--kmax", level]
    assert _run(argv, capsys)[0] == 0
    argv = ["check", "reflection-affine", *chain, "--order", str(cli.MAX_REFLECTION_ORDER)]
    assert _run(argv, capsys)[0] == 0


def test_triangle_size_parses_like_other_flags(capsys):
    assert cli.main(["check", "rtt", "--builder", "triangle", "--n", "2,2"]) == 2
    err = "error: expected 1 comma-separated integers, got '2,2'\n"
    assert capsys.readouterr() == ("", err)


def test_smallest_sizes_still_run(capsys):
    assert _run(["check", "rmatrix", "--k", "1"], capsys)[0] == 0
    assert _run(["check", "frp", "--r", "1", "--p", "1"], capsys)[0] == 0
    argv = ["check", "affine", "--builder", "chain", "--n", "1,1", "--kmax", "0"]
    code, out = _run(argv, capsys)
    assert code == 0 and out == "PASS affine [kmax=0 pmax=0]\n"


def test_check_groupoid_exit_codes(capsys):
    code, _ = _run(["check", "groupoid", "--builder", "chain", "--n", "2,1"], capsys)
    assert code == 0
    code, out = _run(
        ["check", "groupoid", "--builder", "chain", "--n", "1,1", "--bridge"], capsys
    )
    assert code == 1
    assert "FAIL groupoid" in out
    assert "residual" in out


def test_check_groupoid_on_hat_and_composite(capsys):
    code, _ = _run(["check", "groupoid", "--builder", "hat", "--r", "3"], capsys)
    assert code == 0
    code, _ = _run(["check", "groupoid", "--builder", "composite"], capsys)
    assert code == 0


def test_check_all_on_bridged_chain(capsys):
    code, out = _run(
        ["check", "all", "--builder", "chain", "--n", "1,1", "--bridge"], capsys
    )
    assert code == 0
    for name in (
        "rtt",
        "blocks",
        "affine",
        "aux-inverse",
        "loop",
        "subalgebra",
        "appendix",
        "reflection-affine",
    ):
        assert f"PASS {name}" in out


@pytest.mark.parametrize("n", [2, 3])
def test_check_all_on_triangle_skips_loop_family(n, capsys):
    # the default split (1, n-1, n+1) fits the 2n x n transport matrix
    code, out = _run(["check", "all", "--builder", "triangle", "--n", str(n)], capsys)
    assert code == 0
    assert "SKIP loop family" in out
    assert "PASS blocks" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "loop"],
        ["check", "subalgebra"],
        ["check", "reflection"],
        ["check", "reflection-affine"],
        ["check", "groupoid"],
        ["check", "appendix"],
        ["export", "reflection"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_uninvertible_m12_exits_2_naming_m12(argv, capsys):
    # M12 of triangle(2) under the default split (1, 1, 3) is the 1x1 zero
    # matrix, so no negative level exists
    code = cli.main(argv + ["--builder", "triangle", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: M12 is not invertible here (not a single monomial)\n"


def test_unknown_builder_exits_2(capsys):
    assert cli.main(["export", "transport", "--builder", "nosuch"]) == 2


def test_no_input_exits_2(capsys):
    assert cli.main(["check", "rtt"]) == 2


def test_both_inputs_exit_2(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text("{}")
    code = cli.main(
        ["check", "rtt", "--input", str(path), "--builder", "triangle"]
    )
    assert code == 2


def test_unreadable_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("garbage{")
    assert cli.main(["check", "rtt", "--input", str(bad)]) == 2
    assert cli.main(["check", "rtt", "--input", str(tmp_path / "missing.json")]) == 2


def test_cyclic_without_bound_or_drawing_exits_2_at_load(tmp_path, monkeypatch, capsys):
    # cyclic2x2.json, drawn and undrawn, is refused with one line when it is
    # loaded, before its drawing is derived or its transport walked
    monkeypatch.setattr(network, "derive_network_data", _no_source)
    monkeypatch.setattr(cli, "transport_matrix", _no_source)
    doc = json.loads((GOLDEN / "cyclic2x2.json").read_text())
    undrawn = tmp_path / "undrawn.json"
    undrawn.write_text(json.dumps({**doc, "geometry": None}))
    for path in (GOLDEN / "cyclic2x2.json", undrawn):
        for command in (["check", "rtt"], ["check", "all"], ["export", "transport"]):
            assert cli.main([*command, "--input", str(path)]) == 2
            assert capsys.readouterr() == ("", (
                "error: the network has a directed cycle; only acyclic networks are supported\n"
            ))


def test_check_refuses_a_truncated_cyclic_transport(monkeypatch, capsys):
    # every check kind on cyclic2x2.json is refused with the one load-time
    # line, before its transport is walked
    monkeypatch.setattr(cli, "transport_matrix", _no_source)
    path = str(GOLDEN / "cyclic2x2.json")
    kinds = [k for k in cli.CHECKS if k != "aux-inverse"] + ["all"]
    for kind in kinds:
        assert cli.main(["check", kind, "--input", path]) == 2, kind
        assert capsys.readouterr() == ("", (
            "error: the network has a directed cycle; only acyclic networks are supported\n"
        ))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_leaves_the_collector_as_it_found_it(
    enabled, tmp_path, monkeypatch, capsys
):
    # main turns the cyclic collector off while a command runs, and back to
    # the caller's state after every exit code, argparse's exit 2 included
    commands = [
        (0, ["check", "rtt", "--builder", "triangle", "--n", "2"]),
        (1, ["check", "groupoid", "--builder", "chain", "--n", "1,1", "--bridge"]),
        (2, ["check", "rtt", "--input", str(tmp_path / "missing.json")]),
        (2, ["check", "no-such-kind"]),
    ]
    during = []
    check_rtt = verify.check_rtt

    def spy(m):
        during.append(gc.isenabled())
        return check_rtt(m)

    monkeypatch.setattr(verify, "check_rtt", spy)
    switch = {True: gc.enable, False: gc.disable}
    was = gc.isenabled()
    try:
        switch[enabled]()
        for code, argv in commands:
            assert cli.main(argv) == code
            assert gc.isenabled() is enabled, argv
    finally:
        switch[was]()
    capsys.readouterr()
    assert during == [False]


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["export", "-h"]])
def test_help_still_exits_0(argv, capsys):
    # the parser's one-line error() leaves argparse's help alone
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: qtransport") and err == ""


def test_export_transport_matches_golden(tmp_path, capsys):
    out = tmp_path / "transport.txt"
    code = cli.main(["export", "transport", "--builder", "triangle", "--n", "2", "--out", str(out)])
    assert code == 0
    assert out.read_text() == (GOLDEN / "triangle2_transport.txt").read_text()


def test_export_transport_json_of_a_drawn_file_matches_golden(capsys):
    # triangle(4) with its vertex and edge lists shuffled (seed 4), every
    # exponent null and rational coordinates: load, derivation from the
    # drawing, path walk and rendering, pinned byte for byte
    path = GOLDEN / "triangle4_shuffled.json"
    code, out = _run(["export", "transport", "--json", "--input", str(path)], capsys)
    assert code == 0
    assert out == (GOLDEN / "triangle4_shuffled_transport_json.txt").read_text()


def test_export_is_deterministic(tmp_path, capsys):
    args = ["export", "levels", "--builder", "chain", "--n", "2,1", "--order", "2"]
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_export_levels_order_zero_is_bottom_block(capsys):
    code, out = _run(
        ["export", "levels", "--builder", "chain", "--n", "1,1", "--order", "0"],
        capsys,
    )
    assert code == 0
    assert out.count("T_0") == 1
    assert "T_1" not in out
    m = transport_matrix(build_chain(1, 1))
    assert m.entry(1, 0).render() in out  # the sink-from-source corner is M21


def test_export_reflection_labels(capsys):
    code, out = _run(
        [
            "export",
            "reflection",
            "--builder",
            "chain",
            "--n",
            "2,1",
            "--bridge",
            "--order",
            "1",
        ],
        capsys,
    )
    assert code == 0
    assert "A^(0)" in out and "A^(1)" in out


def test_check_json_output_shape(capsys):
    code, out = _run(
        ["check", "blocks", "--builder", "chain", "--n", "1,1", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"reports", "skipped"}
    (rep,) = doc["reports"]
    assert rep["name"] == "blocks"
    assert rep["passed"] is True
    assert "timing_ms" not in rep


def test_check_json_failure_lists_residuals(capsys):
    code, out = _run(
        [
            "check",
            "groupoid",
            "--builder",
            "chain",
            "--n",
            "1,1",
            "--bridge",
            "--json",
        ],
        capsys,
    )
    assert code == 1
    doc = json.loads(out)
    (rep,) = doc["reports"]
    assert rep["passed"] is False
    assert rep["residuals"]
    assert {"index", "value"} == set(rep["residuals"][0])


def test_split_flag_overrides_default(capsys):
    code, out = _run(
        [
            "check",
            "blocks",
            "--builder",
            "chain",
            "--n",
            "2,2",
            "--split",
            "2,1,2",
        ],
        capsys,
    )
    assert code == 0
    # a split that does not fit is refused also where no block is read
    commands = [["check", kind] for kind in ("blocks", "all", "rtt", "disc-reflection")]
    for command in commands + [["export", "transport"]]:
        argv = [*command, "--builder", "chain", "--n", "2,2", "--split", "9,9,9"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix is 3x3, expected 18x18 for split (9,9,9)\n"
    for split in ("3,1,1", "0,1,1"):
        argv = ["export", "transport", "--builder", "triangle", "--n", "2", "--split", split]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_stored_exponents_are_checked_against_the_drawing(tmp_path, capsys):
    doc = network_to_dict(build_triangle(2))
    doc["edges"][3]["exponent"][0] += 1
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "rtt", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: drawing disagrees with stored edge exponents\n"


def test_stored_skew_form_is_checked_against_the_drawing(tmp_path, capsys):
    doc = network_to_dict(build_triangle(2))
    doc["epsilon2"][0][1] += 1  # still skew, but not the drawing's form
    doc["epsilon2"][1][0] -= 1
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "rtt", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: drawing disagrees with the stored skew form\n"


@pytest.mark.parametrize("edit", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_network_exits_2_with_one_line(edit, tmp_path, capsys):
    doc = network_to_dict(build_triangle(2))
    doc["geometry"] = None
    doc = edit(doc)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "rtt", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exponent_past_packed_limit_exits_2_without_traceback(tmp_path):
    doc = network_to_dict(build_triangle(2))
    doc["geometry"] = None
    doc["edges"][3]["exponent"][0] = 16384
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", "rtt"], ["export", "transport"]):
        proc = subprocess.run(
            [sys.executable, "-m", "qtransport.cli", *argv, "--input", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: transport exponents may reach ")
        assert proc.stderr.endswith("packed terms hold at most 16383\n")
        assert proc.stderr.count("\n") == 1


def test_import_loads_no_dataclasses_or_inspect():
    # Every command pays for its imports, and dataclasses alone pulls in
    # inspect, ast, dis and tokenize.
    script = (
        "import sys, qtransport.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_coincident_edge_ends_name_both_vertices(tmp_path, capsys):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(coincident_edge_ends()))
    assert cli.main(["check", "rtt", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: edge 'g1_1'->'b1_1' has both ends drawn at one point\n"


@pytest.mark.parametrize("drawn", [False, True], ids=["no-drawing", "drawn"])
@pytest.mark.parametrize("kind", ["sources", "sinks"])
def test_boundary_vertex_listed_twice_is_named(kind, drawn, tmp_path, capsys):
    doc = drawn_triangle2() if drawn else network_to_dict(build_triangle(2))
    if not drawn:
        doc["geometry"] = None
    name = doc[kind][0]
    doc[kind].append(name)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", "rtt"], ["export", "transport"]):
        assert cli.main([*argv, "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: boundary vertex {name!r} is listed twice\n"


def _no_products(monkeypatch):
    """Make building an entry-product table or a product fail loudly."""
    def no_table(a, b):
        raise AssertionError("a product was started")

    def no_product(core, products):
        raise AssertionError("a product was started")

    monkeypatch.setattr(verify, "entry_products", no_table)
    monkeypatch.setattr(verify, "_product", no_product)


# Each command past the evaluate budget with its refusal, then the size just
# inside it.  check rtt on chain(n,n) reads (n+1)^2 one-monomial entries, so
# it needs (n+1)^4 product cells.
@pytest.mark.parametrize(
    "argv, past, message, inside",
    [
        (["check", "rtt", "--builder", "triangle", "--n"], "10",
         "these relations need 2159255 torus term pairs and 40000 product cells, "
         "2199255 in all; the limit is 1000000", "9"),
        (["check", "rtt", "--builder", "chain", "--n"], "28,28",
         "these relations need 354061 torus term pairs and 707281 product cells, "
         "1061342 in all; the limit is 1000000", "27,27"),
        (["check", "reflection-affine", "--builder", "composite", "--order"], "3",
         "these relations need 9308160 torus term pairs and 352 product cells, "
         "9308512 in all; the limit is 1000000", "2"),
    ],
    ids=["triangle", "chain", "composite"],
)
def test_evaluate_budget_refuses_before_any_product(
    argv, past, message, inside, monkeypatch, capsys
):
    _no_products(monkeypatch)
    assert cli.main([*argv, past]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(AssertionError, match="a product was started"):
        cli.main([*argv, inside])


def test_unwritable_out_is_refused_before_any_source(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli, "transport_matrix", _no_source)
    out = tmp_path / "no" / "x"
    argv = ["check", "disc-reflection", "--builder", "triangle", "--n", "7"]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: '{out}'\n"
    )
    with pytest.raises(AssertionError, match="a source was built"):
        cli.main([*argv, "--out", str(tmp_path / "x")])


def test_a_refusal_after_the_out_check_leaves_out_as_found(tmp_path, capsys):
    # the split does not fit chain(2,2), so the command exits 2 after --out is checked
    argv = ["check", "all", "--builder", "chain", "--n", "2,2", "--bridge", "--split", "2,2,2"]
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    new = tmp_path / "new.txt"
    for out in (kept, new):
        assert cli.main([*argv, "--out", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("error: ") and err.count("\n") == 1
    assert kept.read_text() == "earlier output\n"
    assert not new.exists()


def test_path_budget_exits_2_with_one_line(monkeypatch, capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_dict(build_triangle(2))))
    monkeypatch.setattr(network, "PATH_BUDGET", 5)  # triangle(2) has 6 paths
    assert cli.main(["export", "transport", "--builder", "triangle", "--n", "2"]) == 2
    assert capsys.readouterr() == (
        "", "error: transport has 6 source-sink paths; the limit is 5\n"
    )
    # the builder refuses from a closed form; a loaded network's paths are
    # counted in the topological pass
    assert cli.main(["export", "transport", "--input", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: transport has 6 source-sink paths; the limit is 5\n"
    )


def test_huge_triangle_exits_2_with_one_line(capsys):
    # before it was refused up front, --n 3000 ran for more than a minute
    assert cli.main(["export", "transport", "--builder", "triangle", "--n", "3000"]) == 2
    assert capsys.readouterr() == (
        "", "error: transport paths may visit 6001 vertices; the limit is 800\n"
    )


def test_face_error_does_not_depend_on_hash_seed(tmp_path):
    # Face marker 1 moved onto marker 0: one face holds two markers and one
    # none, and the error names whichever the face walk meets first.
    doc = drawn_triangle2()
    markers = doc["geometry"]["face_markers"]
    markers[1] = markers[0]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    argv = [sys.executable, "-m", "qtransport.cli", "check", "rtt", "--input", path]
    errs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: face must contain exactly one marker")


def test_same_ray_refusal_does_not_depend_on_hash_seed(tmp_path):
    # triangle(4) with b2_1 moved onto the ray from g1_2 through b1_2: the
    # rotation sort at g1_2 cannot order those two edges, and set order,
    # which follows the hash seed, must not decide the outcome
    doc = network_to_dict(build_triangle(4))
    coords = doc["geometry"]["coords"]
    coords["4"], coords["b2_1"] = [[27, 4], [-13, 20]], [[5, 2], [3, 5]]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    argv = [sys.executable, "-m", "qtransport.cli", "export", "transport", "--input", path]
    outcomes = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        outcomes.add((proc.returncode, proc.stdout, proc.stderr))
    assert outcomes == {
        (2, "", "error: edges 'g1_2'->'b1_2' and 'g1_2'->'b2_1' overlap\n")
    }


@functools.cache
def _fuzz_seeds():
    """The documents the loader fuzz mutates, built on its first example, so
    that a drawing that breaks fails that test rather than this file's
    collection."""
    return [
        network_to_dict(build_triangle(2)),
        network_to_dict(build_chain(1, 1, bridge=True)),
        json.loads((GOLDEN / "cyclic2x2.json").read_text()),
    ]

JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2)
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mutate(doc, data):
    """Drop one key or item somewhere in doc, or put a JSON value in its place."""
    target = doc
    while True:
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = target[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            target = child
        elif data.draw(st.booleans()):
            del target[key]
            return
        else:
            target[key] = data.draw(JSON_VALUES)
            return


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_loader_refuses_mutated_documents_with_value_error(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(_fuzz_seeds()))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    try:
        network_from_dict(doc)
    except ValueError:
        pass


def test_cli_corpus_names_every_check_kind_and_export():
    import cli_corpus

    parser = cli._build_parser()
    named = set()
    paths = dict.fromkeys(cli_corpus.documents(), "net.json")
    for name, argv in cli_corpus.commands(paths):
        if name.startswith("parse-error-"):  # lines argparse refuses on purpose
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            continue
        args = parser.parse_args(argv)
        named.add(f"{args.command} {getattr(args, 'kind', None) or args.what}")
    assert set(_commands()) <= named
    assert {f"check {kind}" for kind in cli.CHECKS if kind != "aux-inverse"} <= named


def _readme_commands():
    """The argv of each `qtransport` line in README's Command-line code block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("qtransport ")
    ]


def test_readme_command_line_examples_exit_0(capsys):
    commands = _readme_commands()
    failed = [argv for argv in commands if cli.main(argv) != 0]
    assert commands and not failed
