"""Core simulator: states, gates, projection, fidelity, factorization."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from intraport.errors import (
    ChannelOutOfRange,
    ImpossibleBranch,
    InvalidGate,
    InvalidInput,
    NotNormalized,
    ShapeMismatch,
    UnsupportedSize,
)
from intraport import circuit
from intraport.qsim import (
    MATRIX_CHANNELS,
    MAX_CHANNELS,
    ControlledNot,
    Hadamard,
    PureState,
    QUBIT_MINUS10,
    QUBIT_ONE,
    QUBIT_PLUS,
    QUBIT_ZERO,
    Segment,
    SingleQubit,
    _apply_cn,
    _apply_gates,
    _apply_h,
    apply_gate,
    channel_factors,
    channel_fidelity,
    column_states,
    equal_up_to_global_phase,
    factor_all,
    factor_channel,
    fidelity,
    make_state,
    project,
    random_qubit,
    reduced_density,
    run_circuit,
    word_matrix,
)
from intraport.circuit import Circuit

from helpers import (
    apply_circuit_oracle,
    gate_matrix_oracle,
    haar_qubit_array,
    product_oracle,
    random_state_vector,
)

SQ2 = 1 / np.sqrt(2)


def state_of(vec, n):
    return PureState(n, np.asarray(vec, dtype=complex))


# ---------------------------------------------------------------------------
# SingleQubit / PureState construction


def test_single_qubit_requires_normalization():
    with pytest.raises(NotNormalized):
        SingleQubit(1.0, 1.0)
    # squares past the float range are an infinite norm, not an OverflowError
    for coeffs in ((1e200, 0), (1e308, 1e308), (0, complex(1e308, 1e308))):
        with pytest.raises(NotNormalized, match="= inf"):
            SingleQubit(*coeffs)
    with pytest.raises(InvalidInput):
        SingleQubit(float("nan"), 0.0)


@pytest.mark.parametrize("coeff0, coeff1", [
    (complex(0, float("inf")), 0.0),
    (np.complex128(complex("nan")), 0.0),
    (0.0, float("-inf")),
], ids=["imaginary-inf", "numpy-complex-nan", "minus-inf-coeff1"])
def test_single_qubit_refuses_every_non_finite_part(coeff0, coeff1):
    """Infinite or NaN real and imaginary parts, Python or numpy, in either
    coefficient are refused before the norm is tested."""
    with pytest.raises(InvalidInput, match="non-finite"):
        SingleQubit(coeff0, coeff1)


def test_single_qubit_rescales_only_what_rounding_cannot_explain():
    """A norm^2 off by more than float rounding is divided out; the
    coefficients of an already normalised pair keep every bit."""
    short = SingleQubit(0.0, 0.9999999998)
    assert abs(abs(short.coeff1) ** 2 - 1) <= 4e-16
    rng = np.random.default_rng(5)
    for c0, c1 in [(0.6, 0.8), (1 / np.sqrt(2), 1j / np.sqrt(2)), (1.0, 0.0)] + [
            tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(200)]:
        if not isinstance(c0, float):
            norm = np.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
            c0, c1 = c0 / norm, c1 / norm
        q = SingleQubit(c0, c1)
        assert (q.coeff0, q.coeff1) == (c0, c1)


def test_pure_state_validation():
    with pytest.raises(ShapeMismatch):
        PureState(2, np.array([1.0, 0.0]))
    with pytest.raises(NotNormalized):
        PureState(1, np.array([1.0, 1.0]))
    with pytest.raises(InvalidInput):
        PureState(1, np.array([np.inf, 0.0]))


@pytest.mark.parametrize("call", [
    lambda: PureState(MAX_CHANNELS + 1, np.eye(1, 1 << (MAX_CHANNELS + 1))[0]),
    lambda: PureState(MAX_CHANNELS + 1, np.array([1.0, 0.0])),
    lambda: PureState(0, np.array([1.0])),
    lambda: PureState(10**20, np.array([1.0, 0.0])),
    lambda: make_state([QUBIT_ZERO] * (MAX_CHANNELS + 1)),
], ids=["17-channels", "17-channels-two-amplitudes", "0-channels", "10**20-channels",
        "make-state-17-factors"])
def test_states_past_the_channel_cap_are_refused_up_front(call):
    """A state has 1..MAX_CHANNELS channels, the cap of a .qc file and of
    swap; another count is refused before 2^n is computed or anything is
    allocated (at 10**20 channels computing 2^n alone never returns)."""
    with pytest.raises(UnsupportedSize, match=f"1..{MAX_CHANNELS} channels"):
        call()


def test_a_state_channel_count_is_an_integer():
    assert circuit.MAX_CHANNELS is MAX_CHANNELS
    for n in (True, 1.0, "1"):
        with pytest.raises(InvalidInput, match="channel count must be an integer"):
            PureState(n, np.array([1.0, 0.0]))
    s = PureState(np.int64(1), np.array([1.0, 0.0]))
    assert type(s.channel_count) is int


def test_pure_state_is_immutable():
    s = make_state([QUBIT_ZERO, QUBIT_ONE])
    with pytest.raises(AttributeError):
        s.channel_count = 5
    with pytest.raises(ValueError):
        s.amplitudes[0] = 1.0


# ---------------------------------------------------------------------------
# make_state


def test_make_state_basis_products():
    s = make_state([QUBIT_ZERO, QUBIT_ZERO])
    assert np.array_equal(s.amplitudes, [1, 0, 0, 0])
    # |10> sits at index 2 under the channel-1-most-significant convention
    s = make_state([QUBIT_ONE, QUBIT_ZERO])
    assert np.array_equal(s.amplitudes, [0, 0, 1, 0])


def test_make_state_matches_index_oracle():
    # (|0>+|1>)/sqrt2 x |1>: expected (0, 1/sqrt2, 0, 1/sqrt2)
    plus = np.array([SQ2, SQ2], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    expected = product_oracle([plus, one])
    np.testing.assert_allclose(expected, [0, SQ2, 0, SQ2], atol=1e-15)
    s = make_state([QUBIT_PLUS, QUBIT_ONE])
    np.testing.assert_allclose(s.amplitudes, expected, atol=1e-15)


def test_make_state_random_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        arrays = [haar_qubit_array(rng) for _ in range(4)]
        qubits = [SingleQubit(a[0], a[1]) for a in arrays]
        np.testing.assert_allclose(
            make_state(qubits).amplitudes, product_oracle(arrays), atol=1e-12
        )


@st.composite
def _signed_zero_qubits(draw):
    """A qubit whose real and imaginary parts may be signed zeros."""
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1, 1))
    parts = np.array([draw(part) for _ in range(4)])
    norm = np.sqrt(np.sum(parts**2))
    assume(norm > 1e-3)
    re0, im0, re1, im1 = parts / norm
    return SingleQubit(complex(re0, im0), complex(re1, im1))


@given(st.lists(_signed_zero_qubits(), min_size=1, max_size=5))
def test_make_state_is_the_one_row_column_state(qubits):
    """make_state's amplitudes equal column_states' on the qubits as one row
    of a batch, byte for byte, signed zeros included; so does the row of the
    same qubits reversed beside it."""
    k = len(qubits)
    batch = np.array([[q.as_array() for q in qubits], [q.as_array() for q in qubits[::-1]]])
    states = column_states(range(k), batch)
    assert make_state(qubits).amplitudes.tobytes() == states[0].tobytes()
    assert make_state(qubits[::-1]).amplitudes.tobytes() == states[1].tobytes()


def test_make_state_errors():
    with pytest.raises(InvalidInput):
        make_state([])
    bad = SingleQubit.__new__(SingleQubit)
    object.__setattr__(bad, "coeff0", 1.0)
    object.__setattr__(bad, "coeff1", 1.0)
    with pytest.raises(NotNormalized):
        make_state([bad])


# ---------------------------------------------------------------------------
# apply_gate


def test_hadamard_on_zero_and_one():
    s = apply_gate(make_state([QUBIT_ZERO]), Hadamard(1))
    np.testing.assert_allclose(s.amplitudes, [SQ2, SQ2], atol=1e-15)
    s = apply_gate(make_state([QUBIT_ONE]), Hadamard(1))
    np.testing.assert_allclose(s.amplitudes, [SQ2, -SQ2], atol=1e-15)


def test_cn_truth_table_exact():
    # |e1>|e2> -> |e1>|e1 xor e2> on every 2-channel basis state, exactly
    mapping = {0b00: 0b00, 0b01: 0b01, 0b10: 0b11, 0b11: 0b10}
    for src, dst in mapping.items():
        amps = np.zeros(4)
        amps[src] = 1.0
        out = apply_gate(state_of(amps, 2), ControlledNot(1, 2))
        expected = np.zeros(4)
        expected[dst] = 1.0
        assert np.array_equal(out.amplitudes, expected)


def test_gates_match_matrix_oracle():
    rng = np.random.default_rng(3)
    gates = [Hadamard(2), Hadamard(3), ControlledNot(3, 1), ControlledNot(1, 3),
             ControlledNot(2, 3)]
    for gate in gates:
        vec = random_state_vector(rng, 3)
        out = apply_gate(state_of(vec, 3), gate)
        np.testing.assert_allclose(
            out.amplitudes, gate_matrix_oracle(3, gate) @ vec, atol=1e-12
        )


def test_hadamard_involution_on_random_states():
    rng = np.random.default_rng(4)
    for k in (1, 2, 3):
        s = state_of(random_state_vector(rng, 3), 3)
        twice = apply_gate(apply_gate(s, Hadamard(k)), Hadamard(k))
        assert fidelity(s, twice) >= 1 - 1e-12


def test_gate_errors():
    s = make_state([QUBIT_ZERO, QUBIT_ZERO])
    with pytest.raises(ChannelOutOfRange):
        apply_gate(s, Hadamard(3))
    with pytest.raises(ChannelOutOfRange):
        apply_gate(s, ControlledNot(1, 5))
    with pytest.raises(InvalidGate):
        ControlledNot(2, 2)


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = state_of(random_state_vector(rng, 3), 3)
        for _ in range(10):
            if rng.random() < 0.5:
                s = apply_gate(s, Hadamard(int(rng.integers(1, 4))))
            else:
                c, t = rng.choice([1, 2, 3], size=2, replace=False)
                s = apply_gate(s, ControlledNot(int(c), int(t)))
        assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1) < 1e-12


# ---------------------------------------------------------------------------
# run_circuit


def test_run_circuit_empty_is_identity():
    s = make_state([QUBIT_PLUS, QUBIT_ONE])
    out = run_circuit(s, Circuit(2))
    np.testing.assert_array_equal(out.amplitudes, s.amplitudes)


def test_run_circuit_matches_gate_by_gate_oracle():
    gates = (Hadamard(2), ControlledNot(2, 3), ControlledNot(1, 2), Hadamard(1))
    circuit = Circuit(3, gates)
    rng = np.random.default_rng(6)
    for _ in range(10):
        vec = random_state_vector(rng, 3)
        out = run_circuit(state_of(vec, 3), circuit)
        np.testing.assert_allclose(
            out.amplitudes, apply_circuit_oracle(vec, 3, gates), atol=1e-12
        )


def test_run_circuit_segments_compose():
    gates = (Hadamard(2), ControlledNot(2, 3), ControlledNot(1, 2), Hadamard(1),
             ControlledNot(2, 3), Hadamard(3))
    circuit = Circuit(3, gates, border_index=4)
    rng = np.random.default_rng(7)
    vec = random_state_vector(rng, 3)
    s = state_of(vec, 3)
    alice = run_circuit(s, circuit, Segment.ALICE_ONLY)
    both = run_circuit(alice, circuit, Segment.BOB_ONLY)
    full = run_circuit(s, circuit, Segment.ALL)
    np.testing.assert_allclose(both.amplitudes, full.amplitudes, atol=1e-12)


def test_run_circuit_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        run_circuit(make_state([QUBIT_ZERO]), Circuit(2))


def test_raw_application_is_linear():
    # alpha*s + beta*t maps to alpha*U s + beta*U t, amplitude-wise
    rng = np.random.default_rng(8)
    gates = [Hadamard(1), ControlledNot(1, 3), Hadamard(3), ControlledNot(2, 1)]
    for _ in range(10):
        s = random_state_vector(rng, 3)
        t = random_state_vector(rng, 3)
        alpha, beta = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
        lhs = _apply_gates(alpha * s + beta * t, 3, gates)
        rhs = alpha * _apply_gates(s, 3, gates) + beta * _apply_gates(t, 3, gates)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@st.composite
def _words(draw):
    n = draw(st.integers(1, 6))
    gate = st.builds(Hadamard, st.integers(1, n))
    if n >= 2:
        pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        gate = gate | pair.map(lambda p: ControlledNot(*p))
    return n, draw(st.lists(gate, max_size=12))


@given(_words(), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_batched_application_matches_oracle_row_by_row(word, batch, seed):
    """Both paths, the kernels and the word's matrix, give each row the
    oracle's image and a state the bits of its row of a batch."""
    n, gates = word
    rng = np.random.default_rng(seed)
    states = np.array([random_state_vector(rng, n) for _ in range(batch)])
    for matrix in (None, word_matrix(n, gates)):
        out = _apply_gates(states, n, gates, matrix)
        assert out.shape == states.shape
        for vec, row in zip(states, out):
            np.testing.assert_allclose(row, apply_circuit_oracle(vec, n, gates), atol=1e-12)
        np.testing.assert_array_equal(_apply_gates(states[0], n, gates, matrix), out[0])


@given(_words())
def test_word_matrix_is_the_kernels_applied_to_the_identity(word):
    """Bit for bit: row i of a word's matrix is what the gate kernels make
    of basis state i, one gate at a time."""
    n, gates = word
    rows = np.eye(1 << n, dtype=complex)
    for g in gates:
        rows = (_apply_h(rows, n, g.channel) if isinstance(g, Hadamard)
                else _apply_cn(rows, n, g.control, g.target))
    m = word_matrix(n, gates)
    np.testing.assert_array_equal(m, rows)
    assert not m.flags.writeable
    # a basis input selects its row exactly
    np.testing.assert_array_equal(_apply_gates(np.eye(1 << n, dtype=complex), n, gates, m), m)


@pytest.mark.parametrize("n", [0, MATRIX_CHANNELS + 1])
def test_word_matrix_refuses_sizes_outside_its_range(n):
    """No channels is refused; past MATRIX_CHANNELS no matrix is built."""
    if n < 1:
        with pytest.raises(UnsupportedSize):
            word_matrix(n, ())
    else:
        assert word_matrix(n, ()) is None


def test_words_past_the_matrix_sizes_run_gate_by_gate():
    """Past MATRIX_CHANNELS no matrix is built: a batch and a single state
    still get the dense oracle's image, and the same bits for the same row."""
    n = MATRIX_CHANNELS + 1
    gates = [Hadamard(1), ControlledNot(1, n), Hadamard(n), ControlledNot(n, 2), Hadamard(4)]
    rng = np.random.default_rng(17)
    states = np.array([random_state_vector(rng, n) for _ in range(3)])
    out = _apply_gates(states, n, gates)
    for vec, row in zip(states, out):
        np.testing.assert_allclose(row, apply_circuit_oracle(vec, n, gates), atol=1e-12)
    np.testing.assert_array_equal(_apply_gates(states[1], n, gates), out[1])


@pytest.mark.parametrize("call", [
    lambda s: Hadamard(1.5),
    lambda s: Hadamard(True),
    lambda s: ControlledNot(1, 2.0),
    lambda s: ControlledNot(False, 2),
    lambda s: Circuit(3.5),
    lambda s: project(s, 1.5, 0),
    lambda s: reduced_density(s, 1.5),
    lambda s: channel_fidelity(s, 2.0, QUBIT_ONE),
    lambda s: factor_channel(s, 1.5),
    lambda s: apply_gate(s, Hadamard(1.5)),
], ids=["hadamard-1.5", "hadamard-True", "cn-target-2.0", "cn-control-False",
        "circuit-3.5", "project-1.5", "reduced-density-1.5", "channel-fidelity-2.0",
        "factor-channel-1.5", "apply-gate-1.5"])
def test_a_channel_that_is_not_an_integer_is_refused(call):
    """Gate channels, a circuit's channel count and the channel of each state
    operation go through require_integer: InvalidInput, not a TypeError."""
    with pytest.raises(InvalidInput, match="must be an integer"):
        call(make_state([QUBIT_PLUS, QUBIT_ONE, QUBIT_ZERO]))


def test_numpy_integer_channels_are_kept_as_ints():
    wide = np.int64
    gate = ControlledNot(wide(1), wide(3))
    assert (type(gate.control), type(gate.target)) == (int, int)
    assert type(Hadamard(wide(2)).channel) is int
    assert type(Circuit(wide(3)).channel_count) is int
    s = make_state([QUBIT_PLUS, QUBIT_ONE, QUBIT_ZERO])
    np.testing.assert_array_equal(reduced_density(s, wide(2)), reduced_density(s, 2))
    assert channel_fidelity(s, wide(1), QUBIT_PLUS) == channel_fidelity(s, 1, QUBIT_PLUS)


# ---------------------------------------------------------------------------
# project


def test_project_eigenstate():
    prob, collapsed = project(make_state([QUBIT_ZERO]), 1, 0)
    assert prob == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(collapsed.amplitudes, [1, 0], atol=1e-15)


def test_project_bell_branch():
    bell = state_of([SQ2, 0, 0, SQ2], 2)
    prob, collapsed = project(bell, 1, 1)
    assert prob == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(collapsed.amplitudes, [0, 0, 0, 1], atol=1e-12)


def test_projection_completeness():
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = state_of(random_state_vector(rng, 3), 3)
        for ch in (1, 2, 3):
            probs = []
            for outcome in (0, 1):
                try:
                    p, _ = project(s, ch, outcome)
                except ImpossibleBranch as exc:
                    p = exc.probability
                probs.append(p)
            assert abs(sum(probs) - 1) < 1e-12


def test_projection_reconstructs_densities():
    # The outcome mixture P(0) rho_0 + P(1) rho_1 reproduces the measured
    # channel's diagonal (measurement dephases it) and every other channel's
    # density exactly.
    rng = np.random.default_rng(10)
    for _ in range(10):
        s = state_of(random_state_vector(rng, 3), 3)
        for ch in (1, 2, 3):
            acc = {k: np.zeros((2, 2), dtype=complex) for k in (1, 2, 3)}
            for outcome in (0, 1):
                try:
                    p, collapsed = project(s, ch, outcome)
                except ImpossibleBranch:
                    continue
                for k in (1, 2, 3):
                    acc[k] += p * reduced_density(collapsed, k)
            np.testing.assert_allclose(
                acc[ch], np.diag(np.diag(reduced_density(s, ch))), atol=1e-10
            )
            for k in (1, 2, 3):
                if k != ch:
                    np.testing.assert_allclose(acc[k], reduced_density(s, k), atol=1e-10)


def test_project_impossible_branch():
    with pytest.raises(ImpossibleBranch) as exc_info:
        project(make_state([QUBIT_ZERO]), 1, 1)
    assert exc_info.value.probability == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ChannelOutOfRange):
        project(make_state([QUBIT_ZERO]), 2, 0)


@pytest.mark.parametrize("outcome", [True, False, 1.0, "1", np.int64(1)],
                         ids=["True", "False", "float-1", "str-1", "int64-1"])
def test_project_takes_an_integer_outcome(outcome):
    """The outcome goes through require_integer: a bool, a float or a string
    is refused, not read as a mask or an index; a numpy integer is its int."""
    s = make_state([QUBIT_PLUS] * 3)
    if isinstance(outcome, np.integer):
        prob, out = project(s, 2, outcome)
        want_prob, want = project(s, 2, int(outcome))
        assert prob == want_prob == pytest.approx(0.5)
        np.testing.assert_array_equal(out.amplitudes, want.amplitudes)
    else:
        with pytest.raises(InvalidInput, match="outcome must be an integer"):
            project(s, 2, outcome)


# ---------------------------------------------------------------------------
# fidelity / phase comparison


def test_fidelity_basics():
    zero = make_state([QUBIT_ZERO])
    one = make_state([QUBIT_ONE])
    plus = make_state([QUBIT_PLUS])
    assert fidelity(zero, zero) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-15)
    assert fidelity(zero, plus) == pytest.approx(0.5, abs=1e-12)
    assert fidelity(plus, zero) == fidelity(zero, plus)
    with pytest.raises(ShapeMismatch):
        fidelity(zero, make_state([QUBIT_ZERO, QUBIT_ZERO]))


def test_equal_up_to_global_phase():
    rng = np.random.default_rng(12)
    s = state_of(random_state_vector(rng, 2), 2)
    minus_s = PureState(2, -s.amplitudes)
    assert equal_up_to_global_phase(s, minus_s, 1e-12)
    assert not equal_up_to_global_phase(
        make_state([QUBIT_ZERO]), make_state([QUBIT_ONE]), 1e-12
    )
    # (|1>-|0>)/sqrt2 equals (|0>-|1>)/sqrt2 up to the phase -1
    a = make_state([QUBIT_MINUS10])
    b = state_of([SQ2, -SQ2], 1)
    assert equal_up_to_global_phase(a, b, 1e-12)


# ---------------------------------------------------------------------------
# factorization


def test_factor_channel_basis_product():
    s = make_state([QUBIT_ZERO, QUBIT_ONE])
    factor, remainder = factor_channel(s, 1)
    assert fidelity(make_state([factor]), make_state([QUBIT_ZERO])) >= 1 - 1e-12
    assert fidelity(remainder, make_state([QUBIT_ONE])) >= 1 - 1e-12


def test_factor_channel_entangled_returns_none():
    bell = state_of([SQ2, 0, 0, SQ2], 2)
    assert factor_channel(bell, 1) is None


def test_factor_channel_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(20):
        q = random_qubit(rng)
        s = make_state([q, QUBIT_PLUS])
        factor, remainder = factor_channel(s, 2)
        assert fidelity(make_state([factor]), make_state([QUBIT_PLUS])) >= 1 - 1e-10
        assert fidelity(remainder, make_state([q])) >= 1 - 1e-10


def test_factor_channel_errors():
    with pytest.raises(ChannelOutOfRange):
        factor_channel(make_state([QUBIT_ZERO, QUBIT_ZERO]), 3)
    with pytest.raises(InvalidInput):
        factor_channel(make_state([QUBIT_ZERO]), 1)


def test_factor_all_basis():
    s = make_state([QUBIT_ZERO, QUBIT_ONE, QUBIT_ZERO])
    factors = factor_all(s)
    expected = [QUBIT_ZERO, QUBIT_ONE, QUBIT_ZERO]
    for got, want in zip(factors, expected):
        assert fidelity(make_state([got]), make_state([want])) >= 1 - 1e-12


def test_factor_all_round_trip_random_products():
    rng = np.random.default_rng(14)
    for _ in range(20):
        qubits = [random_qubit(rng) for _ in range(4)]
        s = make_state(qubits)
        factors = factor_all(s)
        assert factors is not None
        for got, want in zip(factors, qubits):
            assert fidelity(make_state([got]), make_state([want])) >= 1 - 1e-10
        assert fidelity(make_state(factors), s) >= 1 - 1e-9


def test_factor_all_entangled_returns_none():
    bell = state_of([SQ2, 0, 0, SQ2], 2)
    assert factor_all(bell) is None


def test_channel_factors_match_factor_channel():
    rng = np.random.default_rng(16)
    product = make_state([random_qubit(rng) for _ in range(4)])
    # channels 1 and 3 entangled, 2 and 4 pure
    mixed = apply_gate(make_state([QUBIT_PLUS, random_qubit(rng), QUBIT_ZERO, QUBIT_ONE]),
                       ControlledNot(1, 3))
    for s in (product, mixed):
        for ch, factor in enumerate(channel_factors(s), start=1):
            split = factor_channel(s, ch)
            assert (factor is None) == (split is None)
            if factor is not None:
                assert factor.as_array() == pytest.approx(split[0].as_array(), abs=1e-15)
    assert channel_factors(mixed)[0] is None and channel_factors(mixed)[2] is None
    assert None not in channel_factors(product)


def test_channel_fidelity_matches_reduced_density():
    rng = np.random.default_rng(15)
    for _ in range(10):
        s = state_of(random_state_vector(rng, 3), 3)
        q = random_qubit(rng)
        for ch in (1, 2, 3):
            rho = reduced_density(s, ch)
            v = q.as_array()
            expected = float((v.conj() @ rho @ v).real)
            assert channel_fidelity(s, ch, q) == pytest.approx(expected, abs=1e-12)
