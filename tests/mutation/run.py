"""Run the mutation catalogue: each mutant must be killed by the tests it names.

Usage: ``python tests/mutation/run.py [--only ID ...] [--timeout SECONDS]``

Every entry of ``catalogue.json`` names a file under the repository root, an
exact source snippet that must occur in it once, the snippet's replacement,
and the tests (pytest node ids) expected to fail on the mutated code. An entry
with a ``survives`` reason is a known survivor: equivalent at output, a guard
only, or a change the tests cannot see, with the reason why. A mutant's tests
run in the order listed and stop at the first failure, so a killed entry
names the tests that kill it, a quick deterministic one first: a failing
hypothesis test spends seconds shrinking its example.

The runner copies ``src/``, ``tests/``, ``bench/`` and ``pyproject.toml`` to a
temporary directory and never edits the repository. It checks every snippet
first, runs the named tests once on the unmutated copy, then applies one
mutant at a time and runs its tests in a subprocess with a timeout, without
pytest's cache, from a fresh working directory (so a fresh hypothesis
database) and with a fixed hypothesis seed, so a kill does not rest on a
lucky draw. It reports each mutant as killed, survived or timed out, with
the seconds its tests took, and exits 1 if a snippet no longer matches, if
the unmutated tests fail, if a mutant not listed as a survivor is not
killed, or if a listed survivor is killed (the list must not go stale).
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CATALOGUE = Path(__file__).resolve().parent / "catalogue.json"
COPIED = ("src", "tests", "bench", "pyproject.toml")
SEED = "0"


def load(only: list[str]) -> list[dict]:
    entries = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    ids = [entry["id"] for entry in entries]
    if len(set(ids)) != len(ids):
        sys.exit("catalogue: duplicate ids")
    unknown = set(only) - set(ids)
    if unknown:
        sys.exit(f"catalogue: no entries {sorted(unknown)}")
    return [entry for entry in entries if not only or entry["id"] in only]


def stale(entries: list[dict]) -> list[str]:
    """The entries whose snippet does not occur exactly once in the repository's file."""
    problems = []
    for entry in entries:
        count = (ROOT / entry["file"]).read_text(encoding="utf-8").count(entry["find"])
        if count != 1:
            problems.append(f"{entry['id']}: snippet occurs {count} times in {entry['file']}")
    return problems


def run_tests(copy: Path, tests: list[str], timeout: float) -> str:
    """'passed', 'failed' or 'timed out': the named tests on the copy, from a fresh directory."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)  # the copy's pyproject.toml puts its own src first
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        f"--hypothesis-seed={SEED}", *[str(copy / test) for test in tests],
    ]
    with tempfile.TemporaryDirectory() as home:  # hypothesis keeps its database in the cwd
        try:
            done = subprocess.run(command, cwd=home, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", default=[], metavar="ID", help="run these entries only")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per test run")
    args = parser.parse_args(argv)
    entries = load(args.only)
    problems = stale(entries)
    if problems:
        print("\n".join(problems))
        return 1
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as folder:
        copy = Path(folder)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        tests = sorted({test for entry in entries for test in entry["tests"]})
        started = time.monotonic()
        baseline = run_tests(copy, tests, args.timeout)
        if baseline != "passed":
            print(f"unmutated code: the named tests {baseline}")
            return 1
        print(f"{'passed':10} {time.monotonic() - started:5.1f} s  unmutated code", flush=True)
        failures = 0
        for entry in entries:
            path = copy / entry["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(entry["find"], entry["replace"]), encoding="utf-8")
            started = time.monotonic()
            try:
                outcome = run_tests(copy, entry["tests"], args.timeout)
            finally:
                path.write_text(original, encoding="utf-8")
            status = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
            expected = "survived" if entry.get("survives") else "killed"
            note = "" if status == expected else "  <- expected " + expected
            failures += bool(note)
            print(f"{status:10} {time.monotonic() - started:5.1f} s  {entry['id']}{note}", flush=True)
    print(f"{len(entries)} mutants, {failures} unexpected, {time.monotonic() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
