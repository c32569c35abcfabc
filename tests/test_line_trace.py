"""The allowlist of tests/line_trace.py must match the source it names.

The trace itself runs outside this suite.  Here each ALLOWED snippet must
still occur exactly once in its file and cover executable lines, so the list
cannot rot when code moves.
"""

import pytest

from line_trace import ALLOWED, SRC, executable_lines, snippet_lines


@pytest.mark.parametrize("name, snippet", ALLOWED, ids=[s.strip()[:40] for _, s in ALLOWED])
def test_allowed_snippet_occurs_once_and_holds_executable_lines(name, snippet):
    assert snippet_lines(name, snippet) & executable_lines(SRC / name)
