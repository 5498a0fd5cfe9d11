"""``sweep`` output pinned byte for byte.

The closed-form columns are printed with 17 significant digits, so a change
in the order of the arithmetic, or ``x ** 2`` written as ``x * x`` (libm
``pow`` and a multiply round differently for about one double in a
thousand), shows up here. The large grids are pinned by their sha256, the
small ones by their text. Simulated ``sim_*`` columns are compared to 1e-12,
because their last bits depend on the summation order of a matrix product.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools

import pytest

from conftest import GOLDEN_DIR
from spincavity import cli
from spincavity.cavity import resonant_coefficients
from spincavity.metrics import GateFigures, closed_form_figures


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


#: sha256 and length of the CSV of each 50x50 closed-form sweep.
HASHED = {
    "default": (
        ["sweep"],
        "a46217b763c0f4edd20a62c5df9bf73c82684e61829865539f55bbfb4f42cdb7",
        292908,
    ),
    "decohere": (
        ["sweep", "--decohere", "spin,exciton-amount"],
        "cef2f2d6680bfce0a8d9e98790e4de08da2ff295733e3f21c10932667a2955c7",
        293569,
    ),
    "reordered": (
        ["sweep", "--outputs", "eta_toffoli,f_cnot"],
        "3bf98078d83367e025a3fff7d8466eee369352d7f3220e504794682e2d4b5c9d",
        193126,
    ),
}


@pytest.mark.parametrize("name", sorted(HASHED))
def test_sweep_csv_hash(name):
    argv, digest, length = HASHED[name]
    code, out, err = run_main(argv)
    assert (code, err) == (0, "")
    assert len(out) == length
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_closed_form_fields_hash():
    """Every ``GateFigures`` field, zeta and the xi included, on the 200x200 default-range grid.

    The CSV prints four of the eight fields; this sees the other four too.
    Rewriting one of the twelve ``** 2`` in ``closed_form_figures`` as
    ``x * x`` changes this hash for eight of them. The other four, the
    squares of ``(at0 - ar0 - ar + at)`` in the second term of xi1 and the
    first term of xi2, and ``at0 ** 2`` and ``ar0 ** 2`` in zeta, round to
    the same doubles at every point of this grid and are invisible here.
    """
    grid = itertools.product(
        cli.SweepRange(0.0, 5.0, 200).points(), cli.SweepRange(0.0, 1.0, 200).points()
    )
    line = ",".join(["%.17g"] * len(GateFigures._fields)) + "\n"
    text = "".join(
        line % closed_form_figures(resonant_coefficients(g, ks, 0.1, 1.0)) for g, ks in grid
    )
    assert len(text) == 6284592
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "ff58f2f84e268966d120a7b842a3ae19d5e7c5e15a05eed268d774b76f09585e"
    )


def test_small_json_sweep_matches_golden():
    code, out, err = run_main([
        "sweep", "--g-min", "0.3", "--g-max", "4.1", "--g-steps", "3",
        "--ks-min", "0.05", "--ks-max", "0.95", "--ks-steps", "2",
        "--gamma", "0.25", "--decohere", "exciton-factor", "--format", "json",
    ])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "sweep_small.json").read_text(encoding="utf-8")


def test_simulated_sweep_matches_golden():
    """Grid and closed-form cells byte for byte, ``sim_*`` cells to 1e-12."""
    code, out, err = run_main([
        "sweep", "--g-min", "0.2", "--g-max", "3.7", "--g-steps", "3", "--ks-steps", "3",
        "--outputs",
        "sim_eta_toffoli,f_toffoli,sim_f_cnot,eta_cnot,sim_f_toffoli,f_cnot,sim_eta_cnot,eta_toffoli",
        "--decohere", "spin",
    ])
    assert (code, err) == (0, "")
    expected = (GOLDEN_DIR / "sweep_sim.csv").read_text(encoding="utf-8").splitlines()
    lines = out.splitlines()
    assert lines[0] == expected[0]
    assert len(lines) == len(expected) == 10
    header = expected[0].split(",")
    for line, golden in zip(lines[1:], expected[1:]):
        for name, cell, golden_cell in zip(header, line.split(","), golden.split(","), strict=True):
            if name.startswith("sim_"):
                assert float(cell) == pytest.approx(float(golden_cell), abs=1e-12)
            else:
                assert cell == golden_cell


def test_signed_zero_coordinates_format_apart():
    """0.0 and -0.0 compare equal but print as ``0`` and ``-0``."""
    spec = cli.SweepSpec(
        g_over_kappa=cli.SweepRange(0.0, 1.0, 2),
        kappa_s_over_kappa=cli.SweepRange(0.0, 1.0, 2),
        outputs=("f_cnot",),
    )
    rows = [
        cli.SweepRow(0.0, -0.0, (0.25,)),
        cli.SweepRow(-0.0, 0.0, (-0.0,)),
        cli.SweepRow(0.0, -0.0, (0.0,)),
        cli.SweepRow(-0.0, -0.0, (0.5,)),
    ]
    buffer = io.StringIO()
    cli.write_csv(spec, rows, buffer)
    assert buffer.getvalue().splitlines() == [
        "g_over_kappa,kappa_s_over_kappa,f_cnot",
        "0,-0,0.25",
        "-0,0,-0",
        "0,-0,0",
        "-0,-0,0.5",
    ]
