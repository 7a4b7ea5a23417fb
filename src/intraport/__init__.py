"""Statevector simulator and protocol engine for simultaneous transmission
of unknown qubit states through a fixed Hadamard/CNOT network split between
a sender and a receiver."""

from .circuit import Circuit, CircuitParseError, ParseErrorKind, parse_circuit, serialize_circuit
from .eavesdrop import (
    DetectionMode,
    EveStrategy,
    ExperimentStats,
    TrialOutcome,
    run_experiment,
    run_trial,
    splitmix64,
    trial_seed,
)
from .errors import (
    ChannelOutOfRange,
    ImpossibleBranch,
    IntraportError,
    InvalidGate,
    InvalidInput,
    InvalidLayout,
    NotNormalized,
    ShapeMismatch,
    UnknownScenario,
    UnsupportedSize,
)
from .protocol import (
    AuxValue,
    Layout,
    MessageOut,
    ProtocolCase,
    ResidueOut,
    VerificationReport,
    alice_encoder,
    bell_byproduct,
    bob_prefix,
    builtin_scenario,
    canonical_case,
    construct_psi,
    figure_circuit,
    post_swap_plan,
    protocol_table,
    relocated_case,
    run_scenario,
    swap_circuit,
    verify_case,
    verify_circuit_action_equal,
)
from .qsim import (
    ControlledNot,
    Gate,
    Hadamard,
    PureState,
    QUBIT_MINUS10,
    QUBIT_ONE,
    QUBIT_PLUS,
    QUBIT_ZERO,
    Segment,
    SingleQubit,
    apply_gate,
    channel_fidelity,
    equal_up_to_global_phase,
    factor_all,
    factor_channel,
    fidelity,
    make_state,
    project,
    random_qubit,
    reduced_density,
    run_circuit,
)
from .search import solve_bob_program
from .tableau import gate_alphabet

__version__ = "0.1.0"
