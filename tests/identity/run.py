"""Run a committed corpus of commands on the working tree and on a git ref, and compare.

Usage: ``python tests/identity/run.py REF``

``corpus.json`` lists artifacts. Each one is the output of a list of CLI
commands: spelt out, or generated from the working tree's own seeded
generators (the benchmark's ``gate_shots`` commands, the seeded ``simulate``
commands and the ``simulate`` golden commands of ``tests/``). A command's
record holds its argv, exit code, stdout and stderr; a ``csv`` artifact holds
the stdout of its one command as it is, with its record apart. Commands run
in-process through ``cli.main``, one process per artifact, and ``repeat``
runs each command that many times in turn, from a cleared plan cache, so a
kind is interpreted, recorded and replayed. A ``pinned`` artifact runs with
``OPENBLAS_CORETYPE`` set to the corpus's kernel, in its own process only: a
``sim_*`` column's last bits depend on the BLAS kernel.

The runner copies the working tree's ``src/``, ``bench/`` and ``tests/`` to
one temporary directory and extracts ``git archive REF`` to another, so it
never edits the repository and needs no network. It generates the commands
once, runs the corpus on both trees, and compares each artifact by sha256.
For an artifact that differs it names the first differing line, and for a
CSV it counts the differing cells per column with their largest change. It
reports the Python version, the numpy version and the OpenBLAS kernel of the
runs. It exits 0 if every artifact is identical, 1 if one differs, and 2 if
a tree fails to run the corpus. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).resolve().parent / "corpus.json"
COPIED = ("src", "bench", "tests")

#: Prints the argv lists of the generated artifacts, from the tree in the working directory.
GENERATE = r"""
import json, sys
sys.path[:0] = ["bench", "tests"]
from worker import GateShots
from test_simulate_golden import COMMANDS, seeded_commands

commands = {}
for artifact in json.load(sys.stdin):
    kind = artifact["generate"]
    if kind == "gate_shots":
        shots = GateShots(artifact["seed"])
        commands[artifact["name"]] = [shots.make_op()["argv"] for _ in range(artifact["count"])]
    elif kind == "seeded_commands":
        commands[artifact["name"]] = seeded_commands(artifact["seed"], artifact["count"])
    elif kind == "simulate_goldens":
        commands[artifact["name"]] = [COMMANDS[name] for name in sorted(COMMANDS)]
    else:
        raise SystemExit(f"unknown generator {kind!r}")
print(json.dumps(commands))
"""

#: Runs one artifact's commands in the tree in the working directory, writes the
#: artifact, and prints the environment as JSON.
DRIVER = r"""
import contextlib, ctypes, io, json, os, platform, shlex, sys
import numpy
from spincavity import circuits, cli

if not os.path.abspath(cli.__file__).startswith(os.path.abspath("src")):
    raise SystemExit(f"spincavity imported from {cli.__file__}, not from the tree")
job = json.load(sys.stdin)


def kernel():
    # The core the loaded OpenBLAS picked, if numpy's BLAS is an OpenBLAS that says.
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(p for p in paths if p.startswith("/")):
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(library, name):
                function = getattr(library, name)
                function.argtypes, function.restype = [], ctypes.c_char_p
                return function().decode()
    return "unknown"


records = []
for argv in job["commands"]:
    if job["repeat"] > 1 and hasattr(circuits, "_plan_root"):
        circuits._plan_root.cache_clear()
    for _ in range(job["repeat"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse's own exits
                code = exc.code if isinstance(exc.code, int) else 1
        stdout, stderr = out.getvalue(), err.getvalue()
        shown = "stdout in the csv\n" if job["csv"] else f"stdout {len(stdout)}\n{stdout}"
        records.append(f"$ {shlex.join(argv)}\nexit {code}\n{shown}stderr {len(stderr)}\n{stderr}")
if job["csv"]:  # one command
    with open(job["out"] + ".csv", "w", encoding="utf-8", newline="") as handle:
        handle.write(stdout)
with open(job["out"] + ".txt", "w", encoding="utf-8", newline="") as handle:
    handle.write("\n".join(records))
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "openblas": kernel(),
                  "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE")}))
"""


def tree_env(tree: Path, pinned: str | None) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("OPENBLAS_CORETYPE", None)
    if pinned:
        env["OPENBLAS_CORETYPE"] = pinned
    return env


def extract(ref: str, folder: Path) -> str:
    """``git archive`` of ``ref`` extracted into ``folder``; the commit it names."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(folder, filter="data")
        else:
            tar.extractall(folder)
    return commit


def run_corpus(tree: Path, corpus: dict, commands: dict, out: Path) -> tuple[list[str], set[str]]:
    """Every artifact of ``corpus`` run in ``tree`` into ``out``: the failures, and the environments."""
    out.mkdir()
    failures, environments = [], set()
    for artifact in corpus["artifacts"]:
        name = artifact["name"]
        job = {
            "commands": commands.get(name, artifact.get("commands")), "repeat": artifact.get("repeat", 1),
            "csv": artifact.get("csv", False), "out": str(out / name),
        }
        pinned = corpus["pinned_kernel"] if artifact.get("pinned") else None
        done = subprocess.run([sys.executable, "-c", DRIVER], cwd=tree, env=tree_env(tree, pinned),
                              input=json.dumps(job), capture_output=True, text=True)
        if done.returncode != 0:
            failures.append(f"{name}: exit {done.returncode}\n{done.stderr}")
        else:
            environments.add(done.stdout.strip())
    return failures, environments


def first_difference(base: list[str], change: list[str]) -> list[str]:
    """Where two texts first differ, then both lines there, if both have one."""
    for number, (a, b) in enumerate(zip(base, change), 1):
        if a != b:
            return [f"line {number}:", f"      base:   {a[:200]}", f"      change: {b[:200]}"]
    return [f"line {min(len(base), len(change)) + 1}: {len(base)} lines at the base, {len(change)} with the change"]


def cell_changes(base: list[str], change: list[str]) -> list[str]:
    """Per CSV column, the cells that differ and the largest absolute change of a numeric one."""
    if len(base) != len(change) or not base or base[0] != change[0]:
        return ["  the header or the row count differs"]
    header = base[0].split(",")
    counts, largest = [0] * len(header), [0.0] * len(header)
    for a, b in zip(base[1:], change[1:]):
        for column, (x, y) in enumerate(zip(a.split(","), b.split(","))):
            if x != y:
                counts[column] += 1
                try:
                    largest[column] = max(largest[column], abs(float(x) - float(y)))
                except ValueError:
                    largest[column] = float("nan")
    rows = len(base) - 1
    return [
        f"  {name}: {count} of {rows} cells differ, by at most {most:.3g}"
        for name, count, most in zip(header, counts, largest) if count
    ]


def compare(base: Path, change: Path) -> tuple[list[str], list[str]]:
    """The report lines for the artifacts in two folders, and the names of those that differ."""
    lines, differing = [], []
    for name in sorted({p.name for p in base.iterdir()} | {p.name for p in change.iterdir()}):
        a, b = base / name, change / name
        if not (a.exists() and b.exists()):
            differing.append(name)
            lines.append(f"differs    {name}: only {'at the base' if a.exists() else 'with the change'}")
            continue
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (a, b)]
        if digests[0] == digests[1]:
            lines.append(f"identical  {name}  sha256 {digests[0][:16]}")
            continue
        differing.append(name)
        texts = [p.read_text(encoding="utf-8").splitlines() for p in (a, b)]
        where, *shown = first_difference(*texts)
        lines += [f"differs    {name}  sha256 {digests[0][:16]} -> {digests[1][:16]}, first at {where}", *shown]
        if name.endswith(".csv"):
            lines.extend(cell_changes(*texts))
    return lines, differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the git ref to compare the working tree with, such as HEAD or a commit")
    args = parser.parse_args(argv)
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        change, base = folder / "change", folder / "base"
        for name in COPIED:
            shutil.copytree(ROOT / name, change / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        try:
            commit = extract(args.ref, base)
        except subprocess.CalledProcessError as exc:
            print(f"cannot archive {args.ref!r}: {exc.stderr.strip() if exc.stderr else exc}")
            return 2
        generated = [artifact for artifact in corpus["artifacts"] if "generate" in artifact]
        made = subprocess.run([sys.executable, "-c", GENERATE], cwd=change, env=tree_env(change, None),
                              input=json.dumps(generated), capture_output=True, text=True)
        if made.returncode != 0:
            print(f"the working tree's generators failed:\n{made.stderr}")
            return 2
        commands = json.loads(made.stdout)
        print(f"base {args.ref} ({commit}) against the working tree")
        print(f"commands: {sum(len(c) for c in commands.values())} generated, "
              f"pinned kernel {corpus['pinned_kernel']} for the pinned artifacts")
        failed = False
        for label, tree in (("base", base), ("change", change)):
            failures, environments = run_corpus(tree, corpus, commands, folder / f"{label}-artifacts")
            for environment in sorted(environments):
                print(f"{label} ran on {environment}")
            for failure in failures:
                print(f"{label} failed: {failure}")
            failed = failed or bool(failures)
        if failed:
            return 2
        lines, differing = compare(folder / "base-artifacts", folder / "change-artifacts")
        print("\n".join(lines))
    print(f"{len(differing)} artifacts differ, {time.monotonic() - start:.0f} s")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
