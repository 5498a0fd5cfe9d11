"""Command-line behavior: determinism, formats, exit codes, config handling."""

from __future__ import annotations

import json
import time

import pytest

from spincavity.cavity import CavityParams, coefficients
from spincavity.cli import (
    ConfigError,
    SweepRange,
    SweepSpec,
    main,
    parse_qubit,
    run_sweep,
    write_csv,
)
from spincavity.metrics import closed_form_figures


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_operating_point(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--g", "2.4", "--kappa-s", "0.5")
        assert code == 0
        lines = dict(
            (line.split()[0], (float(line.split()[1]), float(line.split()[2])))
            for line in out.strip().splitlines()
        )
        assert abs(lines["t"][0] - (-20.0 / 2329.0)) < 1e-15
        assert lines["t"][1] == 0.0
        assert abs(lines["t0"][0] - (-0.8)) < 1e-15
        assert abs(lines["r0"][0] - 0.2) < 1e-15

    @pytest.mark.parametrize("flag", ["--g", "--gamma", "--delta-x"])
    def test_non_finite_parameter_rejected(self, capsys, flag):
        code, out, err = run_cli(capsys, "coeffs", flag, "nan")
        assert code == 1
        assert out == ""
        assert f"{flag[2:].replace('-', '_')} must be finite" in err

    def test_detuned_coefficients_are_complex(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--g", "1.0", "--delta-c", "0.5", "--delta-x", "0.2"
        )
        assert code == 0
        t_line = out.strip().splitlines()[0].split()
        assert float(t_line[2]) != 0.0


class TestSimulate:
    def test_ideal_cnot_branches_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "cnot", "--control", "+", "--target", "+"
        )
        assert code == 0
        blocks = out.split("branch ")
        assert len(blocks) == 3
        body_u = "\n".join(blocks[1].splitlines()[1:])
        body_d = "\n".join(blocks[2].splitlines()[1:])
        assert body_u == body_d
        survival = float(
            [line for line in out.splitlines() if line.startswith("survival")][0].split()[1]
        )
        assert abs(survival - 1.0) < 1e-9

    def test_trace_blocks_printed(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "cnot", "--control", "R", "--target", "L", "--trace",
        )
        assert code == 0
        for name in ("omega_1", "omega_2", "omega_3", "omega_4"):
            assert f"trace {name}" in out

    def test_toffoli_needs_second_control(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "toffoli", "--control", "R", "--target", "R"
        )
        assert code == 1
        assert "control2" in err

    def test_realistic_mode_survival(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "cnot", "--control", "R", "--target", "R",
            "--mode", "realistic", "--g", "2.4", "--kappa-s", "0.5",
        )
        assert code == 0
        survival = float(
            [line for line in out.splitlines() if line.startswith("survival")][0].split()[1]
        )
        assert abs(survival - 0.68) < 1e-12

    def test_bad_qubit_token(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "cnot", "--control", "Q", "--target", "R"
        )
        assert code == 1
        assert "qubit" in err

    def test_unnormalized_amplitudes_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "cnot", "--control", "1:1", "--target", "R"
        )
        assert code == 1
        assert "qubit" in err

    def test_negative_rate_rejected(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--g", "-1")
        assert code == 1
        assert "error" in err

    def test_non_finite_rate_rejected(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "cnot", "--control", "+", "--target", "R",
            "--mode", "realistic", "--kappa-s", "nan",
        )
        assert code == 1
        assert out == ""
        assert "kappa_s must be finite" in err

    def test_toffoli_trace_blocks(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "toffoli",
            "--control", "R", "--control2", "L", "--target", "+", "--trace",
        )
        assert code == 0
        for index in range(1, 8):
            assert f"trace xi_{index}" in out

    def test_explicit_amplitudes(self):
        q = parse_qubit("0.6:0.8j")
        assert abs(q.alpha - 0.6) < 1e-12
        assert abs(q.beta - 0.8j) < 1e-12


class TestTruthTable:
    @pytest.mark.parametrize("gate,rows", [("cnot", 4), ("toffoli", 8)])
    def test_all_pass(self, capsys, gate, rows):
        code, out, _ = run_cli(capsys, "truth-table", gate)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == rows + 1
        assert all("PASS" in line for line in lines[:-1])
        assert lines[-1] == "all PASS"

    def test_flip_row_present(self, capsys):
        _, out, _ = run_cli(capsys, "truth-table", "toffoli")
        assert "L L R -> L L L PASS" in out


class TestSweep:
    def test_small_grid_matches_closed_forms(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--g-min", "0", "--g-max", "2.4", "--g-steps", "2",
            "--ks-min", "0", "--ks-max", "0.5", "--ks-steps", "2",
            "--outputs", "f_cnot",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "g_over_kappa,kappa_s_over_kappa,f_cnot"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (0.0, 0.0), (0.0, 0.5), (2.4, 0.0), (2.4, 0.5),
        ]
        # Zero coupling collapses hot onto cold coefficients, and the two
        # cold magnitudes always sum to one, so those rows read exactly 1/4.
        assert float(rows[0][2]) == 0.25
        assert float(rows[1][2]) == 0.25
        expected = closed_form_figures(
            coefficients(CavityParams(g=2.4, kappa_s=0.5, gamma=0.1))
        ).f_cnot
        assert float(rows[3][2]) == expected

    def test_round_trip_full_precision(self):
        spec = SweepSpec(
            g_over_kappa=SweepRange(0.3, 4.7, 3),
            kappa_s_over_kappa=SweepRange(0.1, 0.9, 3),
        )
        rows = list(run_sweep(spec))
        import io

        buffer = io.StringIO()
        write_csv(spec, rows, buffer)
        parsed = [line.split(",") for line in buffer.getvalue().strip().splitlines()[1:]]
        for row, cells in zip(rows, parsed):
            assert float(cells[0]) == row.g_over_kappa
            assert float(cells[1]) == row.kappa_s_over_kappa
            for value, cell in zip(row.values, cells[2:]):
                assert float(cell) == value

    def test_deterministic_output(self, capsys):
        args = (
            "sweep", "--g-steps", "4", "--ks-steps", "4",
            "--outputs", "f_cnot,eta_toffoli",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--g-steps", "2", "--ks-steps", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 4
        assert set(payload[0]) == {
            "g_over_kappa", "kappa_s_over_kappa",
            "f_cnot", "f_toffoli", "eta_cnot", "eta_toffoli",
        }

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--g-steps", "2", "--ks-steps", "2", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("g_over_kappa,")

    def test_empty_outputs_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--outputs", "")
        assert code == 1
        assert "outputs" in err

    def test_unknown_output_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--outputs", "f_cnot,bogus")
        assert code == 1
        assert "bogus" in err

    def test_bad_range_names_the_field(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--g-steps", "1")
        assert code == 1
        assert "g_over_kappa.steps" in err
        code, _, err = run_cli(capsys, "sweep", "--ks-min", "0.5", "--ks-max", "0.2")
        assert code == 1
        assert "kappa_s_over_kappa" in err

    def test_singular_parameters_exit_internal(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--g-min", "0", "--g-max", "1", "--g-steps", "2", "--gamma", "0",
        )
        assert code == 2
        assert "invariant" in err

    def test_singular_parameters_write_nothing(self, capsys, tmp_path):
        args = ("sweep", "--g-min", "0", "--g-max", "1", "--g-steps", "2", "--gamma", "0")
        code, out, _ = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, *args, "--out", str(path))
        assert code == 2
        assert not path.exists()
        path.write_text("kept\n")
        code, _, _ = run_cli(capsys, *args, "--out", str(path))
        assert code == 2
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("outputs", ["f_cnot", "f_cnot,sim_f_cnot,sim_eta_toffoli"])
    def test_non_finite_gamma_rejected(self, capsys, tmp_path, outputs):
        path = tmp_path / "sweep.csv"
        base = ("sweep", "--g-steps", "2", "--ks-steps", "2", "--gamma", "nan", "--outputs", outputs)
        code, out, err = run_cli(capsys, *base)
        assert (code, out) == (1, "")
        assert "gamma must be finite" in err
        code, _, _ = run_cli(capsys, *base, "--out", str(path))
        assert code == 1
        assert not path.exists()

    def test_simulation_outputs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--g-min", "2.4", "--g-max", "4.8", "--g-steps", "2",
            "--ks-min", "0", "--ks-max", "0.5", "--ks-steps", "2",
            "--outputs", "f_cnot,sim_f_cnot,sim_eta_cnot",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for row in rows:
            assert 0.0 <= float(row[3]) <= 1.0 + 1e-9
            assert 0.0 <= float(row[4]) <= 1.0 + 1e-9

    def test_decoherence_multiplier(self, capsys):
        base_args = (
            "sweep", "--g-min", "2.4", "--g-max", "4.8", "--g-steps", "2",
            "--ks-steps", "2", "--outputs", "f_cnot,eta_cnot",
        )
        _, plain, _ = run_cli(capsys, *base_args)
        _, damped, _ = run_cli(capsys, *base_args, "--decohere", "spin")
        from spincavity.metrics import DecoherenceParams, spin_decoherence_factor

        factor = spin_decoherence_factor(DecoherenceParams())
        for p_line, d_line in zip(plain.splitlines()[1:], damped.splitlines()[1:]):
            p_cells, d_cells = p_line.split(","), d_line.split(",")
            assert abs(float(d_cells[2]) - float(p_cells[2]) * factor) < 1e-15
            assert float(d_cells[3]) == float(p_cells[3])  # efficiency untouched

    def test_hundred_by_hundred_under_a_second(self):
        spec = SweepSpec(
            g_over_kappa=SweepRange(0.0, 5.0, 100),
            kappa_s_over_kappa=SweepRange(0.0, 1.0, 100),
        )
        start = time.perf_counter()
        rows = list(run_sweep(spec))
        elapsed = time.perf_counter() - start
        assert len(rows) == 10000
        assert elapsed < 1.0


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("g_steps = 2\nks-steps = 2\noutputs = f_cnot\n")
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(config), "--outputs", "eta_cnot"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "g_over_kappa,kappa_s_over_kappa,eta_cnot"
        assert len(lines) == 5

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("bogus_flag = 1\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--config", "/nonexistent.cfg")
        assert code == 1
        assert "config" in err


class TestDecoherenceReport:
    def test_default_report(self, capsys):
        code, out, _ = run_cli(capsys, "decoherence")
        assert code == 0
        wanted = {
            "spin_decoherence_factor",
            "exciton_dephasing_factor",
            "exciton_multiplier_amount_reading",
            "exciton_multiplier_factor_reading",
        }
        values = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in wanted:
                values[parts[0]] = float(parts[1])
        assert abs(values["spin_decoherence_factor"] - 0.99925) < 5e-6
        assert abs(values["exciton_dephasing_factor"] - 0.09516258196404048) < 1e-12
        assert "trion_density_matrix t=0" in out
        assert "trion_density_matrix t=tau" in out
        assert "trion_density_matrix t=t2" in out

    def test_non_finite_time_scale_rejected(self, capsys):
        code, out, err = run_cli(capsys, "decoherence", "--t2e", "inf")
        assert (code, out) == (1, "")
        assert "t2e must be finite" in err

    def test_zero_interval(self, capsys):
        _, out, _ = run_cli(capsys, "decoherence", "--dt", "0")
        line = [l for l in out.splitlines() if l.startswith("spin_")][0]
        assert float(line.split()[1]) == 1.0

    def test_nonpositive_time_scale_rejected(self, capsys):
        code, _, err = run_cli(capsys, "decoherence", "--t2e", "0")
        assert code == 1
        assert "error" in err

    def test_zero_lifetime_factor(self, capsys):
        _, out, _ = run_cli(capsys, "decoherence", "--tau", "1e-12")
        line = [l for l in out.splitlines() if l.startswith("exciton_dephasing")][0]
        assert float(line.split()[1]) < 1e-12

    def test_adjusted_fidelity(self, capsys):
        _, out, _ = run_cli(capsys, "decoherence", "--fidelity", "0.8")
        assert "adjusted_fidelity_amount_reading" in out
        assert "adjusted_fidelity_factor_reading" in out


def test_spec_validation_directly():
    spec = SweepSpec(
        g_over_kappa=SweepRange(0.0, 5.0, 2),
        kappa_s_over_kappa=SweepRange(0.0, 1.0, 2),
        outputs=(),
    )
    with pytest.raises(ConfigError):
        spec.validate()
