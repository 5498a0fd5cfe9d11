"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.

Criterion 1 checks the closed forms against the published
three-significant-figure headline table at g/kappa = 2.4. Six of its eight
entries are asserted against the quoted values at +/-0.0005 (gamma/kappa =
0.1). The other two, the CNOT and Toffoli fidelities at half side leakage,
cannot be reached together with the quoted Toffoli efficiency of the same
row. On resonance kappa_s/kappa = 0.5 fixes |t0| = 4/5 and |r0| = 1/5, and
|t| = 1 - |r|, so the whole row depends on |r| alone. The quoted fidelities
need |r| >= 0.99165 and |r| >= 0.99245, while the quoted efficiency needs
|r| <= 0.99149. The test computes these |r| intervals from the quoted values
at the unchanged +/-0.0005 and asserts that they are disjoint. It asserts
the two fidelities themselves against an exact-rational evaluation of the
closed forms to 1e-12.
"""

from __future__ import annotations

import io
import math
import time
from fractions import Fraction

import numpy as np

from spincavity.cavity import (
    CavityParams,
    ScatterCoeffs,
    coefficients,
    ideal_scatter,
    realistic_scatter,
)
from spincavity.circuits import (
    Gate,
    QUBIT_PLUS,
    cnot,
    ideal_oracle,
    input_vector,
    output_modes,
    polarization_vector,
    toffoli,
)
from spincavity.cli import SweepRange, SweepSpec, run_sweep, write_csv
from spincavity.elements import (
    Pauli,
    RoutingRule,
    SwitchSchedule,
    feed_forward,
    hadamard_e,
    hadamard_p,
    pbs,
    phase_pi,
    switch_route,
)
from spincavity.hilbert import (
    BasisKet,
    PhotonLabel,
    PhotonSpinSite,
    Polarization,
    Propagation,
    SpinBasis,
    StateVector,
    apply_sited_map,
)
from spincavity.metrics import closed_form_figures, trion_density_matrix
from conftest import (
    allclose,
    equal_up_to_global_phase,
    exact_figures,
    fidelity,
    lincomb,
    parse_golden,
    random_qubit,
    random_state,
    scatter_as_sited_map,
)

import random

GAMMA = 0.1
POINT_LEAKY = CavityParams(g=2.4, kappa_s=0.5, gamma=GAMMA)
POINT_CLEAN = CavityParams(g=2.4, kappa_s=0.0, gamma=GAMMA)

# Published headline values, three significant figures.
QUOTED = {
    (0.5, "f_cnot"): 0.803,
    (0.5, "f_toffoli"): 0.484,
    (0.5, "eta_cnot"): 0.86,
    (0.5, "eta_toffoli"): 0.829,
    (0.0, "f_cnot"): 0.991,
    (0.0, "f_toffoli"): 0.958,
    (0.0, "eta_cnot"): 0.993,
    (0.0, "eta_toffoli"): 0.9905,
}
TOLERANCE = 0.0005

# Quoted entries that no |r| reaches together with the quoted eta_toffoli of
# the same row (README, "The half-leakage fidelities").
UNREACHABLE = {(0.5, "f_cnot"), (0.5, "f_toffoli")}

# Resonant coefficient magnitudes at POINT_LEAKY, by hand: |t| = (gamma/2) /
# ((gamma/2)(1 + kappa_s/2) + g^2) = 0.05 / 5.8225, |r| = 1 - |t|,
# |t0| = 1 / (1 + kappa_s/2), |r0| = 1 - |t0|.
HOT_LEAKY = (Fraction(20, 2329), Fraction(2309, 2329))
COLD_LEAKY = (Fraction(4, 5), Fraction(1, 5))


def leaky_row(ar: Fraction) -> dict[str, Fraction]:
    """The kappa_s = 0.5 row on resonance as a function of |r| alone."""
    return exact_figures(1 - ar, ar, *COLD_LEAKY)


def toffoli_root_quartic(ar: Fraction) -> Fraction:
    """sqrt(f_toffoli) of ``leaky_row``, expanded in |r|.

    Its slope 2r^3 - 9r^2/10 + 79r/125 + 351/1250 is positive on [0, 1]:
    the quadratic part is concave and positive at both ends.
    """
    return ar ** 4 / 2 - 3 * ar ** 3 / 10 + 79 * ar ** 2 / 250 + 351 * ar / 1250 - Fraction(54, 625)


def r_band(name: str) -> tuple[float, float]:
    """The |r| interval where the kappa_s = 0.5 entry ``name`` is within TOLERANCE of QUOTED.

    On |r| in [1/2, 1] each entry used here rises with |r|: f_cnot directly
    (its inverse is |r| = 2 sqrt(f) - 4/5); eta_toffoli because it rises
    with zeta, which rises with |r| above 1/2; f_toffoli because its root
    ``toffoli_root_quartic`` rises and is positive there. So each edge is a
    bisection. Below 1/2 the fidelities stay under 0.43 (the root lies
    between -54/625 and its value at 1/2), and eta_toffoli is symmetric
    under |r| -> 1 - |r|, so no intersection is lost by looking above 1/2.
    """
    quoted = Fraction(str(QUOTED[(0.5, name)]))
    tolerance = Fraction(str(TOLERANCE))

    def edge(target: Fraction) -> float:
        lo, hi = Fraction(1, 2), Fraction(1)
        assert leaky_row(lo)[name] < target < leaky_row(hi)[name], name
        for _ in range(40):
            mid = (lo + hi) / 2
            if leaky_row(mid)[name] < target:
                lo = mid
            else:
                hi = mid
        return float(lo)

    return edge(quoted - tolerance), edge(quoted + tolerance)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def gate_runner(gate):
    return cnot if gate is Gate.CNOT else toffoli


def branches_match_oracle(gate, inputs, tol=1e-9):
    result = gate_runner(gate)(*inputs)
    expected = ideal_oracle(gate) @ input_vector(inputs)
    return all(
        abs(expected.conj() @ polarization_vector(b.state, output_modes(gate))) ** 2
        >= 1.0 - tol
        for b in result.branches
    )


def test_criterion_1_closed_form_golden_numbers():
    failures = []
    details = []
    exact = exact_figures(*HOT_LEAKY, *COLD_LEAKY)
    # The expansion is checked at nine points, enough for the degree-8 f_toffoli.
    if any(
        leaky_row(Fraction(k, 8))["f_toffoli"] != toffoli_root_quartic(Fraction(k, 8)) ** 2
        for k in range(9)
    ):
        failures.append("f_toffoli at ks=0.5 no longer matches the quartic behind r_band")
    eta_band = r_band("eta_toffoli")
    for kappa_s, params in ((0.5, POINT_LEAKY), (0.0, POINT_CLEAN)):
        fig = closed_form_figures(coefficients(params))
        sweep_spec = SweepSpec(
            g_over_kappa=SweepRange(2.4, 4.8, 2),
            kappa_s_over_kappa=SweepRange(kappa_s, kappa_s + 0.5, 2)
            if kappa_s == 0.0
            else SweepRange(0.0, kappa_s, 2),
            gamma_over_kappa=GAMMA,
        )
        row_values = next(
            values for g, ks, values in run_sweep(sweep_spec) if g == 2.4 and ks == kappa_s
        )
        by_name = dict(zip(sweep_spec.outputs, row_values))
        for name, value in (
            ("f_cnot", fig.f_cnot),
            ("f_toffoli", fig.f_toffoli),
            ("eta_cnot", fig.eta_cnot),
            ("eta_toffoli", fig.eta_toffoli),
        ):
            assert by_name[name] == value  # sweep and metrics agree exactly
            quoted = QUOTED[(kappa_s, name)]
            entry = f"{name}@ks={kappa_s}"
            if (kappa_s, name) not in UNREACHABLE:
                ok = abs(value - quoted) <= TOLERANCE
                if not ok:
                    failures.append(f"{entry}: {value:.6f} vs {quoted} +/-{TOLERANCE}")
                details.append(f"{entry}={value:.4f}{'' if ok else '(FAIL)'}")
                continue
            reference = float(exact[name])
            band = r_band(name)
            disjoint = band[0] > eta_band[1] or band[1] < eta_band[0]
            if abs(value - reference) > 1e-12:
                failures.append(f"{entry}: {value!r} vs exact closed form {reference!r}")
            if not disjoint:
                failures.append(
                    f"{entry}: quoted {quoted} is reachable with eta_toffoli@ks=0.5 "
                    f"(|r| in [{band[0]:.5f}, {band[1]:.5f}] meets "
                    f"[{eta_band[0]:.5f}, {eta_band[1]:.5f}])"
                )
            details.append(
                f"{entry}={value:.4f} vs quoted {quoted} "
                f"(|r| in [{band[0]:.5f}, {band[1]:.5f}]"
                f"{', unreachable' if disjoint else ', REACHABLE'})"
            )
    ok = not failures
    report(
        1,
        ok,
        "headline table at gamma/kappa=0.1: "
        + ", ".join(details)
        + f"; eta_toffoli@ks=0.5 needs |r| in [{eta_band[0]:.5f}, {eta_band[1]:.5f}]",
    )
    assert ok, (
        "; ".join(failures)
        + " (see README, 'The half-leakage fidelities')"
    )


def test_criterion_2_coefficient_checks():
    co = coefficients(POINT_LEAKY)
    exact_t = Fraction(-20, 2329)  # hand evaluation of the resonant formula
    checks = {
        "t0 exact": abs(co.t0 - (-0.8)) < 1e-15,
        "r0 exact": abs(co.r0 - 0.2) < 1e-15,
        "t vs quoted": abs(co.t - (-0.0085880)) <= 1e-6,
        "t vs hand rational": abs(co.t - float(exact_t)) < 1e-15,
    }
    ok = all(checks.values())
    report(2, ok, f"t={co.t:.9f}, t0={co.t0}, r0={co.r0}")
    assert ok, checks


def test_criterion_3_truth_tables():
    rng = random.Random(424242)
    # CPU time of this process, so load from other processes does not count.
    start = time.process_time()
    basis = [
        (a, b)
        for a in (Polarization.R, Polarization.L)
        for b in (Polarization.R, Polarization.L)
    ]
    from spincavity.circuits import QUBIT_L, QUBIT_R

    lookup = {Polarization.R: QUBIT_R, Polarization.L: QUBIT_L}
    ok = True
    for a, b in basis:
        ok = ok and branches_match_oracle(Gate.CNOT, (lookup[a], lookup[b]))
    for _ in range(100):
        ok = ok and branches_match_oracle(
            Gate.CNOT, (random_qubit(rng), random_qubit(rng))
        )
    cnot_elapsed = time.process_time() - start
    start = time.process_time()
    for index in range(8):
        inputs = tuple(
            lookup[Polarization((index >> (2 - i)) & 1)] for i in range(3)
        )
        ok = ok and branches_match_oracle(Gate.TOFFOLI, inputs)
    for _ in range(100):
        ok = ok and branches_match_oracle(
            Gate.TOFFOLI, tuple(random_qubit(rng) for _ in range(3))
        )
    toffoli_elapsed = time.process_time() - start
    timing_ok = cnot_elapsed < 1.0 and toffoli_elapsed < 1.0
    report(
        3,
        ok and timing_ok,
        f"oracle agreement on 4+100 CNOT ({cnot_elapsed:.2f}s) "
        f"and 8+100 Toffoli ({toffoli_elapsed:.2f}s) inputs",
    )
    assert ok and timing_ok


def test_criterion_4_determinism():
    rng = random.Random(31415)
    ok = True
    for _ in range(100):
        result = cnot(random_qubit(rng), random_qubit(rng))
        a, b = (branch.state for branch in result.branches)
        ok = ok and fidelity(a, b) >= 1.0 - 1e-9
    for _ in range(100):
        result = toffoli(*(random_qubit(rng) for _ in range(3)))
        a, b = (branch.state for branch in result.branches)
        ok = ok and fidelity(a, b) >= 1.0 - 1e-9
    report(4, ok, "both readout branches agree after feed-forward, 100 runs per gate")
    assert ok


def test_criterion_5_trace_reproduction():
    cnot_golden = parse_golden("cnot_trace.txt")
    cnot_result = cnot(QUBIT_PLUS, QUBIT_PLUS)
    toffoli_golden = parse_golden("toffoli_trace.txt")
    toffoli_result = toffoli(QUBIT_PLUS, QUBIT_PLUS, QUBIT_PLUS)
    ok = True
    checked = 0
    for result, golden in (
        (cnot_result, cnot_golden),
        (toffoli_result, toffoli_golden),
    ):
        assert set(name for name, _ in result.trace) == set(golden)
        for name, state in result.trace:
            ok = ok and equal_up_to_global_phase(state, golden[name], 1e-9)
            checked += 1
    report(5, ok, f"{checked} staged states match their golden transcriptions")
    assert ok


def _unitarity_checks(rng):
    splitter = RoutingRule("acc split", {(0, Polarization.R): (2, Propagation.AGAINST_Z), (0, Polarization.L): (1, Propagation.AGAINST_Z)})
    schedule = SwitchSchedule("acc switch", ({0: 5},))
    scatter = scatter_as_sited_map(ideal_scatter())
    ff = {SpinBasis.UP: ((0, Pauli.MINUS_SIGMA_Z),), SpinBasis.DOWN: ((0, Pauli.SIGMA_X),)}

    def fixed_direction_state():
        amps = {}
        for pol in Polarization:
            for spin in SpinBasis:
                amps[BasisKet((PhotonLabel(pol, Propagation.AGAINST_Z, 0),), spin)] = complex(
                    rng.gauss(0, 1), rng.gauss(0, 1)
                )
        norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
        return StateVector({k: v / norm for k, v in amps.items()})

    for _ in range(10):
        state = random_state(rng, [[0]])
        for op in (
            lambda s: hadamard_p(s, 0),
            hadamard_e,
            lambda s: phase_pi(s, 0, 0),
            lambda s: switch_route(s, 0, schedule, 0),
            lambda s: apply_sited_map(s, PhotonSpinSite(0), scatter),
            lambda s: feed_forward(s, SpinBasis.UP, ff),
            lambda s: feed_forward(s, SpinBasis.DOWN, ff),
        ):
            out = op(state)
            if abs(out.norm_squared() - state.norm_squared()) > 1e-12:
                return False
        routed = pbs(fixed_direction_state(), 0, splitter)
        if abs(routed.norm_squared() - 1.0) > 1e-12:
            return False
    return True


def _contraction_checks(rng):
    for _ in range(10):
        t = -rng.uniform(0.0, 1.0)
        t0 = -rng.uniform(0.0, 1.0)
        table = scatter_as_sited_map(
            realistic_scatter(ScatterCoeffs(t=t, r=1 + t, t0=t0, r0=1 + t0))
        )
        state = random_state(rng, [[0]])
        out = apply_sited_map(state, PhotonSpinSite(0), table)
        if out.norm_squared() > state.norm_squared() + 1e-12:
            return False
    return True


def _linearity_checks(rng):
    scatter = scatter_as_sited_map(ideal_scatter())
    for _ in range(10):
        a = random_state(rng, [[0]])
        b = random_state(rng, [[0]])
        alpha, beta = complex(0.4, 0.2), complex(-0.3, 0.35)
        left = apply_sited_map(lincomb([(alpha, a), (beta, b)]), PhotonSpinSite(0), scatter)
        right = lincomb(
            [
                (alpha, apply_sited_map(a, PhotonSpinSite(0), scatter)),
                (beta, apply_sited_map(b, PhotonSpinSite(0), scatter)),
            ]
        )
        if not allclose(left, right, 1e-12):
            return False
    return True


def _monotonicity_checks():
    g_values = [0.2 + k * (5.0 - 0.2) / 9 for k in range(10)]
    ks_values = [k / 9 for k in range(10)]
    grid = {
        (g, ks): closed_form_figures(
            coefficients(CavityParams(g=g, kappa_s=ks, gamma=GAMMA))
        )
        for g in g_values
        for ks in ks_values
    }
    for g in g_values:
        for a, b in zip(ks_values, ks_values[1:]):
            x, y = grid[(g, a)], grid[(g, b)]
            if not (
                y.f_cnot <= x.f_cnot + 1e-12
                and y.f_toffoli <= x.f_toffoli + 1e-12
                and y.eta_cnot <= x.eta_cnot + 1e-12
                and y.eta_toffoli <= x.eta_toffoli + 1e-12
            ):
                return False
    for ks in ks_values:
        for a, b in zip(g_values, g_values[1:]):
            x, y = grid[(a, ks)], grid[(b, ks)]
            if not (
                y.f_cnot >= x.f_cnot - 1e-12
                and y.f_toffoli >= x.f_toffoli - 1e-12
                and y.eta_cnot >= x.eta_cnot - 1e-12
                and y.eta_toffoli >= x.eta_toffoli - 1e-12
            ):
                return False
    return True


def _trion_checks():
    for t in (0.0, 1.0, 10.0, 250.0):
        rho = trion_density_matrix(t, 100.0)
        if abs(np.trace(rho).real - 1.0) > 1e-12:
            return False
        if not np.allclose(rho, rho.conj().T):
            return False
        if np.linalg.eigvalsh(rho).min() < -1e-12:
            return False
    return True


def _surface_csv_checks():
    spec = SweepSpec(
        g_over_kappa=SweepRange(0.0, 5.0, 50),
        kappa_s_over_kappa=SweepRange(0.0, 1.0, 50),
        gamma_over_kappa=GAMMA,
    )
    rows = list(run_sweep(spec))
    if len(rows) != 2500:
        return False
    buffer = io.StringIO()
    write_csv(spec, rows, buffer)
    if len(buffer.getvalue().strip().splitlines()) != 2501:
        return False
    by_point = {(g, ks): values for g, ks, values in rows}
    # Zero-coupling collapse: hot coefficients equal the cold pair whose
    # magnitudes sum to one, so the fidelity corner reads exactly 1/4.
    for ks in (0.0, 1.0):
        f_cnot = by_point[(0.0, ks)][0]
        if abs(f_cnot - 0.25) > 1e-12:
            return False
    # Lossless corner at strong coupling approaches the ideal limit.
    top = by_point[(5.0, 0.0)]
    if not all(value > 0.99 for value in top):
        return False
    # Efficiency without side leakage is exactly one at zero coupling too.
    if abs(by_point[(0.0, 0.0)][2] - 1.0) > 1e-12:
        return False
    return True


def test_criterion_6_invariant_suites():
    rng = random.Random(987123)
    parts = {
        "unitarity": _unitarity_checks(rng),
        "contraction": _contraction_checks(rng),
        "linearity": _linearity_checks(rng),
        "monotonicity": _monotonicity_checks(),
        "trion": _trion_checks(),
        "surface-csv": _surface_csv_checks(),
    }
    ok = all(parts.values())
    report(6, ok, ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in parts.items()))
    assert ok, parts


def test_criterion_7_out_of_scope_exclusions():
    # Experimental device physics (measured coupling strengths, coherence
    # measurements) enters only through documented parameter defaults; there
    # is nothing to execute at desk scale.
    report(7, True, "device-physics inputs are documented defaults only")
