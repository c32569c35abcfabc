"""Paired timing of one qtransport command on two source trees.

    python3 tests/paired_runs.py OLD_ROOT NEW_ROOT [--pairs N] -- ARGS...

runs ``python3 -m qtransport.cli ARGS`` in a fresh interpreter per run, with
PYTHONPATH set to the tree's ``src``, as perfbench/run.py spawns its
commands.  The trees alternate for N pairs, and the tree that runs first
switches from pair to pair.  One untimed run of each tree comes first; it
also writes the bytecode cache, unless PYTHONDONTWRITEBYTECODE is set in the
environment.  Every run of both trees must give the same exit code and the
same stdout sha256, or the script exits 1.  For each tree it prints the
median, the interquartile range and the upper decile of the wall seconds
per run, the pairs it ran faster, and the range of the child's own peak
resident set (``ru_maxrss`` from ``os.wait4``).  It is not part of the
tier-1 suite.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def run_once(root, args, out_path):
    """(exit code, wall seconds, peak RSS MB, stdout sha256) of one command."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    argv = [sys.executable, "-m", "qtransport.cli", *args]
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    digest = hashlib.sha256(Path(out_path).read_bytes()).hexdigest()
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0, digest


def summary(times, rss, won, pairs):
    q1, median, q3 = statistics.quantiles(times, n=4)
    p90 = statistics.quantiles(times, n=10)[8]
    return (
        f"median {median:.4f} s, IQR {q1:.4f}-{q3:.4f} ({q3 - q1:.4f}), "
        f"p90 {p90:.4f} s, won {won}/{pairs}, rss {min(rss):.1f}-{max(rss):.1f} MB"
    )


def main(argv):
    parser = argparse.ArgumentParser(description="paired runs of one command")
    parser.add_argument("old_root")
    parser.add_argument("new_root")
    parser.add_argument("--pairs", type=int, default=10)
    if "--" not in argv:
        parser.error("put -- before the qtransport arguments")
    cut = argv.index("--")
    opts = parser.parse_args(argv[:cut])
    args = argv[cut + 1:]
    if opts.pairs < 2:
        parser.error("--pairs must be at least 2")
    roots = (opts.old_root, opts.new_root)
    times = ([], [])
    rss = ([], [])
    outcomes = set()
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "stdout"
        for root in roots:  # untimed
            outcomes.add(run_once(root, args, out_path)[::3])
        for i in range(opts.pairs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                code, elapsed, peak, digest = run_once(roots[side], args, out_path)
                outcomes.add((code, digest))
                times[side].append(elapsed)
                rss[side].append(peak)
    won_new = sum(new < old for old, new in zip(*times))
    wins = (opts.pairs - won_new, won_new)
    for side, name in enumerate(("old", "new")):
        print(f"{name} {roots[side]}: {summary(times[side], rss[side], wins[side], opts.pairs)}")
    if len(outcomes) != 1:
        print(f"outcomes differ: {sorted(outcomes)}")
        return 1
    ((code, digest),) = outcomes
    print(f"both trees: exit {code}, stdout sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
