"""``sweep`` output pinned byte for byte.

The closed-form columns are printed with 17 significant digits, so a change
in the order of the arithmetic, or ``x ** 2`` written as ``x * x`` (libm
``pow`` and a multiply round differently for about one double in a
thousand), shows up here. The large grids are pinned by their sha256, the
small ones by their text. Simulated ``sim_*`` columns are compared to 1e-12,
because their last bits depend on the summation order of a matrix product.
Two properties hold on random small grids: every row equals the
point-by-point path bit for bit, and no simulated fidelity passes one by
more than rounding.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR
from spincavity import cli
from spincavity.cavity import CavityParams, SingularParameterError, coefficients, resonant_magnitudes
from spincavity.circuits import QUBIT_PLUS, Gate, gate_figures
from spincavity.hilbert import DegenerateStateError
from spincavity.metrics import GateFigures, closed_form_figures, magnitude_figures


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
    """Every ``GateFigures`` field, zeta and the xi included, on the 200x200 default-range grid,
    through the magnitudes kernel the sweep calls.

    The CSV prints four of the eight fields; this sees the other four too.
    ``magnitude_figures`` names each repeated square once, so it holds eight
    ``** 2``. Rewriting one of them as ``x * x`` changes this hash for six,
    the shared square of ``(at0 - ar0 - ar + at)`` among them (it also feeds
    xi3). The other two, ``at0 ** 2`` and ``ar0 ** 2`` in zeta, round to the
    same doubles at every point of this grid and are invisible here.
    """
    points = cli.SweepRange(0.0, 5.0, 200).points(), cli.SweepRange(0.0, 1.0, 200).points()
    line = ",".join(["%.17g"] * len(GateFigures._fields)) + "\n"
    text = "".join(
        line % magnitude_figures(*magnitudes)
        for magnitudes in resonant_magnitudes(*points, 0.1)
    )
    assert len(text) == 6284592
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "ff58f2f84e268966d120a7b842a3ae19d5e7c5e15a05eed268d774b76f09585e"
    )


@st.composite
def sweep_ranges(draw) -> cli.SweepRange:
    """2-6 steps over an interval within [0, 100]."""
    ends = draw(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=2, unique=True))
    return cli.SweepRange(min(ends), max(ends), draw(st.integers(2, 6)))


@settings(max_examples=150, deadline=None)
@given(
    sweep_ranges(),
    sweep_ranges(),
    st.floats(0.0, 3.0),
    st.permutations(cli.CLOSED_FORM_OUTPUTS).flatmap(
        lambda names: st.integers(1, len(names)).map(lambda n: tuple(names[:n]))
    ),
    st.lists(st.sampled_from(cli.DECOHERE_CHOICES), unique=True).map(tuple),
)
@example(cli.SweepRange(0.0, 1.0, 2), cli.SweepRange(0.0, 1.0, 2), 0.0, ("f_cnot",), ())
def test_sweep_rows_equal_the_point_by_point_path(g_range, ks_range, gamma, outputs, decohere):
    """Each row bit for bit as ``closed_form_figures(coefficients(...))`` at its
    point, picked and scaled alike; a singular grid fails as its first point does."""
    spec = cli.SweepSpec(g_range, ks_range, gamma_over_kappa=gamma, outputs=outputs, decohere=decohere)
    scale = cli._fidelity_multiplier(spec)
    want = []
    try:
        for g, ks in itertools.product(g_range.points(), ks_range.points()):
            figures = closed_form_figures(coefficients(CavityParams(g=g, kappa_s=ks, gamma=gamma)))
            values = [getattr(figures, name) for name in outputs]
            if scale != 1.0:
                values = [
                    value * scale if name in cli.FIDELITY_OUTPUTS else value
                    for name, value in zip(outputs, values)
                ]
            want.append([g.hex(), ks.hex(), *(value.hex() for value in values)])
    except SingularParameterError as exc:
        assert not want, "only the first point can be singular"
        message = f"g_over_kappa = {g_range.minimum} with gamma_over_kappa = {gamma}: {exc}"
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(message)}$"):
            list(cli.run_sweep(spec))
        return
    got = [[g.hex(), ks.hex(), *(value.hex() for value in values)] for g, ks, values in cli.run_sweep(spec)]
    assert got == want


def survives(g, kappa_s, gamma):
    """Whether both simulated gates keep some amplitude at this resonant point."""
    coeffs = coefficients(CavityParams(g=g, kappa_s=kappa_s, gamma=gamma))
    try:
        for gate in Gate:
            gate_figures(gate, (QUBIT_PLUS,) * (2 if gate is Gate.CNOT else 3), coeffs)
    except DegenerateStateError:
        return False
    return True


@settings(max_examples=40, deadline=None)
@given(sweep_ranges(), sweep_ranges(), st.floats(0.0, 3.0), st.sampled_from(cli.FIDELITY_CONVENTIONS))
@example(cli.SweepRange(0.0, 0.5, 2), cli.SweepRange(1.5, 2.0, 2), 0.1, "per-branch-averaged")
def test_simulated_fidelities_pass_one_by_rounding_only(g_range, ks_range, gamma, convention):
    """``per_branch / survival`` rounds either side of one where a gate
    reconstructs its ideal output; 4 ulps (8.9e-16) is the most seen.

    Where a gate keeps no amplitude (the Toffoli at g = 0, kappa_s = 2, the
    example) the sweep fails with a message that names the grid's first such
    point.
    """
    spec = cli.SweepSpec(
        g_range, ks_range, gamma_over_kappa=gamma,
        outputs=("sim_f_cnot", "sim_f_toffoli"), sim_convention=convention,
    )
    grid = list(itertools.product(g_range.points(), ks_range.points()))
    try:
        rows = list(cli.run_sweep(spec))
    except cli.ConfigError as exc:
        assume("gamma_over_kappa" not in str(exc))  # a singular first point
        first = next(point for point in grid if not survives(*point, gamma))
        message = "g_over_kappa = %r with kappa_s_over_kappa = %r: cannot measure a zero state"
        assert str(exc) == message % first
        return
    for _, _, values in rows:
        for value in values:
            assert 0.0 <= value <= 1.0 + 1e-14


def test_small_json_sweep_matches_golden():
    code, out, err = run_main([
        "sweep", "--g-min", "0.3", "--g-max", "4.1", "--g-steps", "3",
        "--ks-min", "0.05", "--ks-max", "0.95", "--ks-steps", "2",
        "--gamma", "0.25", "--decohere", "exciton-factor", "--format", "json",
    ])
    assert (code, err) == (0, "")
    assert out == (GOLDEN_DIR / "sweep_small.json").read_text(encoding="utf-8")


#: A 3x3 sweep of every closed-form and simulated column, whose CSV is ``sweep_sim.csv``.
SIMULATED = [
    "sweep", "--g-min", "0.2", "--g-max", "3.7", "--g-steps", "3", "--ks-steps", "3",
    "--outputs",
    "sim_eta_toffoli,f_toffoli,sim_f_cnot,eta_cnot,sim_f_toffoli,f_cnot,sim_eta_cnot,eta_toffoli",
    "--decohere", "spin",
]


def assert_matches_simulated_golden(out: str) -> None:
    """Grid and closed-form cells byte for byte, ``sim_*`` cells to 1e-12."""
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


def test_simulated_sweep_matches_golden():
    code, out, err = run_main(SIMULATED)
    assert (code, err) == (0, "")
    assert_matches_simulated_golden(out)


def test_signed_zero_coordinates_format_apart():
    """0.0 and -0.0 compare equal but print as ``0`` and ``-0``."""
    spec = cli.SweepSpec(
        g_over_kappa=cli.SweepRange(0.0, 1.0, 2),
        kappa_s_over_kappa=cli.SweepRange(0.0, 1.0, 2),
        outputs=("f_cnot",),
    )
    rows = [
        (0.0, -0.0, (0.25,)),
        (-0.0, 0.0, (-0.0,)),
        (0.0, -0.0, (0.0,)),
        (-0.0, -0.0, (0.5,)),
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
