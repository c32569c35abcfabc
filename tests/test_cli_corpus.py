"""Every command of tests/cli_corpus.py prints what its golden file says.

tests/golden/cli_corpus.txt is the corpus's output: one line per command
with its name, exit code, stdout sha256 and stderr.  This test reruns every
command in process and compares line for line.  The sized bound-* commands
take most of the corpus's time (about 10 s of 12) and stay out of it; the
script still runs them.  A change that alters the output on purpose
regenerates the file with

    python3 tests/cli_corpus.py > tests/golden/cli_corpus.txt

and its diff names every changed command.
"""

import pathlib

import cli_corpus

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_corpus.txt"


def test_cli_corpus_matches_golden(tmp_path):
    golden = {}
    for text in GOLDEN.read_text().splitlines():
        golden[text.split("\t", 1)[0]] = text
    commands = cli_corpus.commands(cli_corpus.write_documents(tmp_path))
    assert [name for name, _ in commands] == list(golden)
    unsized = [(name, argv) for name, argv in commands if not name.startswith("bound-")]
    assert len(unsized) > 400
    changed = [name for name, argv in unsized if cli_corpus.line(name, argv) != golden[name]]
    assert changed == []
