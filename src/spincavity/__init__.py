"""Photonic CNOT and Toffoli gates mediated by a quantum-dot spin in a
double-sided microcavity: sparse state-vector simulation, closed-form
figures of merit, and parameter-sweep tooling."""

from .cavity import (
    CavityParams,
    InvalidCoefficientError,
    ScatterCoeffs,
    SingularParameterError,
    coefficients,
    ideal_scatter,
    realistic_scatter,
)
from .circuits import (
    Branch,
    Gate,
    GateMode,
    GateResult,
    PreconditionError,
    QUBIT_L,
    QUBIT_MINUS,
    QUBIT_PLUS,
    QUBIT_R,
    QubitState,
    SimulatedFigures,
    cnot,
    gate_figures,
    ideal_oracle,
    simulated_efficiency,
    simulated_fidelity,
    toffoli,
)
from .elements import (
    Pauli,
    RoutingRule,
    ScheduleExhaustedError,
    SwitchSchedule,
    feed_forward,
    hadamard_e,
    hadamard_p,
    pbs,
    phase_pi,
    switch_route,
)
from .hilbert import (
    BasisKet,
    DegenerateStateError,
    IncompleteMapError,
    PhotonLabel,
    Polarization,
    Propagation,
    SpinBasis,
    StateVector,
    StructureError,
    apply_sited_map,
    inner_product,
    measure_spin,
)
from .metrics import (
    DecoherenceParams,
    GateFigures,
    closed_form_figures,
    exciton_dephasing_factor,
    spin_decoherence_factor,
    trion_density_matrix,
)

__version__ = "0.1.0"
