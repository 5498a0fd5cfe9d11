"""The report of ``tests/identity/run.py``, which compares a change's outputs with a
git ref's: a one-ulp ``sim_*`` cell and a changed exit code are each named."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

RUNNER = Path(__file__).parent / "identity" / "run.py"


def load_runner():
    spec = importlib.util.spec_from_file_location("identity_run", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_one_ulp_cell_and_a_changed_exit_code_are_reported(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    change.mkdir()
    cell = 0.99999999999999889
    header = "g_over_kappa,kappa_s_over_kappa,f_cnot,sim_f_cnot"
    rows = [f"{g!r},0,0.5,{cell!r}" for g in (0.0, 0.5)]
    planted = rows[1].replace(repr(cell), repr(math.nextafter(cell, 2.0)))
    (base / "sweep.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    (change / "sweep.csv").write_text("\n".join([header, rows[0], planted]) + "\n", encoding="utf-8")
    record = "$ truth-table cnot\nexit {}\nstdout 0\nstderr 0\n"
    (base / "truth-tables.txt").write_text(record.format(0), encoding="utf-8")
    (change / "truth-tables.txt").write_text(record.format(2), encoding="utf-8")
    for folder in (base, change):
        (folder / "same.txt").write_text("unchanged\n", encoding="utf-8")

    lines, differing = load_runner().compare(base, change)
    assert differing == ["sweep.csv", "truth-tables.txt"]
    same, sweep, cells, table = (line for line in lines if not line.startswith("      "))
    assert sweep.startswith("differs    sweep.csv") and sweep.endswith("first at line 3:")
    assert cells == "  sim_f_cnot: 1 of 2 cells differ, by at most 1.11e-16"
    assert table.startswith("differs    truth-tables.txt") and table.endswith("first at line 2:")
    assert same.startswith("identical  same.txt")
    assert "      base:   exit 0" in lines and "      change: exit 2" in lines
