"""Protocol engine: encoders, scenarios, psi, swapping, table, byproduct."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from intraport.circuit import MAX_CHANNELS, Circuit
from intraport import protocol, tableau
from intraport.errors import (
    ChannelOutOfRange,
    ImpossibleBranch,
    InvalidGate,
    InvalidInput,
    InvalidLayout,
    NotNormalized,
    ShapeMismatch,
    UnsupportedSize,
)
from intraport.protocol import (
    AuxValue,
    Layout,
    MessageOut,
    ResidueOut,
    SCENARIO_FIGURES,
    alice_encoder,
    bell_byproduct,
    bob_prefix,
    builtin_scenario,
    canonical_case,
    construct_psi,
    figure_circuit,
    general_extension,
    layout_rows,
    layout_states,
    message_batch,
    post_swap_plan,
    protocol_table,
    relocated_case,
    run_scenario,
    stabilizer_row,
    swap_circuit,
    verify_case,
    verify_circuit_action_equal,
)
from intraport.qsim import (
    DEFAULT_TOL,
    ControlledNot,
    Hadamard,
    PureState,
    QUBIT_MINUS10,
    QUBIT_ONE,
    QUBIT_PLUS,
    QUBIT_ZERO,
    Segment,
    SingleQubit,
    _apply_gates,
    channel_fidelity,
    factor_all,
    factor_channel,
    fidelity,
    gates_commute,
    make_state,
    random_qubit,
    reduced_density,
    run_circuit,
)

from intraport.search import gate_alphabet, solve_bob_program

from helpers import (
    apply_circuit_oracle,
    circuit_matrix_oracle,
    nearly_product_case,
    permute_channels_oracle,
    random_state_vector,
)

SQ2 = 1 / np.sqrt(2)


# ---------------------------------------------------------------------------
# Encoder and receiver prefix


def test_alice_encoder_three_channels():
    assert alice_encoder(3) == [
        Hadamard(2), ControlledNot(2, 3), ControlledNot(1, 2), Hadamard(1),
    ]
    assert alice_encoder(3) == list(figure_circuit(1).alice_gates)


def test_alice_encoder_four_channels():
    assert alice_encoder(4) == [
        Hadamard(3), ControlledNot(3, 4), Hadamard(2), ControlledNot(2, 3),
        ControlledNot(1, 2), Hadamard(1),
    ]
    assert alice_encoder(4) == list(figure_circuit(7).alice_gates)


def test_alice_encoder_five_channels_extends_pattern():
    assert alice_encoder(5) == [
        Hadamard(4), ControlledNot(4, 5), Hadamard(3), ControlledNot(3, 4),
        Hadamard(2), ControlledNot(2, 3), ControlledNot(1, 2), Hadamard(1),
    ]


def test_encoder_is_common_to_all_figures():
    for fig, n in ((2, 3), (3, 3), (4, 3), (6, 3), (8, 4), (9, 4)):
        assert list(figure_circuit(fig).alice_gates) == alice_encoder(n)


def test_bob_prefix():
    assert bob_prefix(3) == [
        ControlledNot(2, 3), Hadamard(3), ControlledNot(1, 3), Hadamard(1), Hadamard(3),
    ]
    assert bob_prefix(3) == list(figure_circuit(1).bob_gates[:5])
    assert bob_prefix(4) == [
        ControlledNot(3, 4), Hadamard(4), ControlledNot(1, 4), Hadamard(1), Hadamard(4),
    ]
    for n in range(3, 9):
        for gate in bob_prefix(n):
            assert all(1 <= ch <= n for ch in gate.channels())


def test_bob_prefix_starts_every_figure_up_to_commuting_exchange():
    # The first five receiver gates match each figure's opening segment after
    # bubbling commuting gates forward.
    from intraport.qsim import gates_commute

    for fig in (1, 2, 3, 4, 6, 7, 8, 9):
        circuit = figure_circuit(fig)
        n = circuit.channel_count
        remaining = list(circuit.bob_gates)
        for wanted in bob_prefix(n):
            pos = None
            for i, g in enumerate(remaining):
                if g == wanted and all(gates_commute(g, h) for h in remaining[:i]):
                    pos = i
                    break
            assert pos is not None, (fig, wanted)
            remaining.pop(pos)


def test_encoder_size_errors():
    with pytest.raises(UnsupportedSize):
        alice_encoder(2)
    with pytest.raises(UnsupportedSize):
        bob_prefix(2)


# ---------------------------------------------------------------------------
# Scenarios


def test_run_scenario_fig1_basis_instance():
    # a=1,b=0 and e=0,f=1: outputs |0>, |1>, (|0>+|1>)/sqrt2
    msgs = [SingleQubit(0, 1), SingleQubit(1, 0)]
    report = run_scenario(1, msgs)
    assert report.passed
    sc = builtin_scenario(1)
    state = PureState(3, layout_states(sc.input_layout, message_batch(msgs))[0])
    out = run_circuit(state, sc.circuit, Segment.ALL)
    assert channel_fidelity(out, 1, QUBIT_ZERO) == pytest.approx(1.0, abs=1e-12)
    assert channel_fidelity(out, 2, QUBIT_ONE) == pytest.approx(1.0, abs=1e-12)
    assert channel_fidelity(out, 3, QUBIT_PLUS) == pytest.approx(1.0, abs=1e-12)


def test_run_scenario_fig4_classical_inputs():
    report = run_scenario(4, [SingleQubit(1, 0), SingleQubit(1, 0)])
    assert report.passed
    assert report.product_ok


def test_one_tolerance_sets_the_purity_and_the_fidelity_tests():
    """A nearly product output factors only under a loose tolerance, and
    then passes: verify_case's tol reaches the purity test too."""
    case, msgs = nearly_product_case()
    strict = verify_case(case, msgs)
    assert not strict.product_ok and not strict.passed
    assert strict.factors.count(None) == 2  # the two channels the CN joined
    loose = verify_case(case, msgs, tol=1e-6)
    assert loose.product_ok and loose.passed
    assert None not in loose.factors
    assert loose.per_channel_fidelity == strict.per_channel_fidelity


def test_run_scenario_message_count_mismatch():
    with pytest.raises(ShapeMismatch):
        run_scenario(1, [SingleQubit(1, 0)])


def test_run_scenario_reports_relative_phase_unit():
    rng = np.random.default_rng(23)
    for fig in (1, 3, 6, 9):
        sc = builtin_scenario(fig)
        msgs = [random_qubit(rng) for _ in sc.message_channels]
        report = run_scenario(fig, msgs)
        assert abs(abs(report.relative_phase) - 1) < 1e-9


def test_mid_circuit_entanglement_after_encoder():
    # With |0> or |1> auxiliaries no channel factors out for generic
    # messages.  The plus auxiliary is the documented structural escape: the
    # encoder's H turns it into |0>, its CN never fires, and the second
    # message channel stays exactly product while channels 1-2 entangle.
    rng = np.random.default_rng(29)
    enc = alice_encoder(3)
    for value, escaped in ((AuxValue.ZERO, None), (AuxValue.ONE, None),
                           (AuxValue.PLUS, 3)):
        for _ in range(20):
            msgs = [random_qubit(rng), random_qubit(rng)]
            state = make_state([msgs[0], value.qubit, msgs[1]])
            out = PureState(3, _apply_gates(state.amplitudes, 3, enc), _trust=True)
            for ch in (1, 2, 3):
                rho = reduced_density(out, ch)
                purity = float(np.trace(rho @ rho).real)
                if ch == escaped:
                    assert purity >= 1 - 1e-10
                else:
                    assert purity < 1 - 1e-10


# ---------------------------------------------------------------------------
# construct_psi


def test_psi_equal_weights_is_product():
    e, f = 0.6, 0.8
    psi = construct_psi(SQ2, SQ2, e, f)
    split = factor_channel(psi, 1)
    assert split is not None
    factor, remainder = split
    assert fidelity(make_state([factor]), make_state([QUBIT_ZERO])) >= 1 - 1e-12
    assert fidelity(remainder, make_state([SingleQubit(f, e)])) >= 1 - 1e-12


def test_psi_c0_d1_amplitudes():
    e = complex(0.6, 0.0)
    f = complex(0.0, 0.8)
    psi = construct_psi(0, 1, e, f)
    expected = np.array([f, e, e, f]) * SQ2
    np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-12)


def test_psi_norm_is_one_for_random_inputs():
    rng = np.random.default_rng(31)
    for _ in range(50):
        cd = random_qubit(rng)
        ef = random_qubit(rng)
        psi = construct_psi(cd.coeff1, cd.coeff0, ef.coeff1, ef.coeff0)
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1) < 1e-12


def test_psi_matches_h_then_cn():
    rng = np.random.default_rng(32)
    gates = [Hadamard(1), ControlledNot(1, 2)]
    for _ in range(50):
        cd = random_qubit(rng)
        ef = random_qubit(rng)
        direct = _apply_gates(make_state([cd, ef]).amplitudes, 2, gates)
        psi = construct_psi(cd.coeff1, cd.coeff0, ef.coeff1, ef.coeff0)
        assert abs(np.vdot(psi.amplitudes, direct)) ** 2 >= 1 - 1e-12


def test_psi_entangled_iff_weights_differ():
    rng = np.random.default_rng(33)
    # generic c != +-d: entangled
    for _ in range(20):
        cd = random_qubit(rng)
        ef = random_qubit(rng)
        if abs(abs(cd.coeff1) - abs(cd.coeff0)) < 1e-3:
            continue
        psi = construct_psi(cd.coeff1, cd.coeff0, ef.coeff1, ef.coeff0)
        assert factor_channel(psi, 1) is None
    # c = d and c = -d both kill one branch, leaving a product
    for c, d in ((SQ2, SQ2), (SQ2, -SQ2)):
        psi = construct_psi(c, d, 0.6, 0.8)
        assert factor_channel(psi, 1) is not None


def test_psi_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        construct_psi(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(NotNormalized):
        construct_psi(1.0, 0.0, 0.5, 0.5)
    for args in ((1e200, 0, 1, 0), (1, 0, 0, 1e308 + 1e308j)):  # squares past the float range
        with pytest.raises(NotNormalized):
            construct_psi(*args)


# ---------------------------------------------------------------------------
# Swapping


def test_swap_circuit_gates():
    assert swap_circuit(1, 2) == [
        ControlledNot(1, 2), ControlledNot(2, 1), ControlledNot(1, 2),
    ]
    with pytest.raises(InvalidGate):
        swap_circuit(2, 2)


def test_swap_exchanges_random_product_states():
    rng = np.random.default_rng(34)
    gates = swap_circuit(1, 2)
    for _ in range(20):
        a, b = random_qubit(rng), random_qubit(rng)
        out = _apply_gates(make_state([a, b]).amplitudes, 2, gates)
        expected = make_state([b, a]).amplitudes
        assert abs(np.vdot(expected, out)) ** 2 >= 1 - 1e-12


def test_swap_truth_table_is_permutation():
    gates = swap_circuit(1, 2)
    expect = {0b00: 0b00, 0b01: 0b10, 0b10: 0b01, 0b11: 0b11}
    for src, dst in expect.items():
        amps = np.zeros(4)
        amps[src] = 1.0
        out = _apply_gates(amps, 2, gates)
        expected = np.zeros(4)
        expected[dst] = 1.0
        assert np.array_equal(out, expected)


def test_swap_on_entangled_block_matches_reindexing_oracle():
    rng = np.random.default_rng(35)
    gates = swap_circuit(1, 3)
    for _ in range(20):
        vec = random_state_vector(rng, 3)
        out = _apply_gates(vec.copy(), 3, gates)
        expected = permute_channels_oracle(vec, 3, {1: 3, 2: 2, 3: 1})
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_post_swap_plan_identity_is_empty():
    layout = {1: "x", 2: "y", 3: "z"}
    assert post_swap_plan(layout, layout) == []


def test_post_swap_plan_cycle_uses_two_triples():
    current = {1: "a", 2: "b", 3: "c"}
    desired = {1: "c", 2: "a", 3: "b"}  # content of 1 -> 2 -> 3 -> 1
    gates = post_swap_plan(current, desired)
    assert len(gates) == 6
    rng = np.random.default_rng(36)
    qubits = [random_qubit(rng) for _ in range(3)]
    out = _apply_gates(make_state(qubits).amplitudes, 3, gates)
    expected = make_state([qubits[2], qubits[0], qubits[1]]).amplitudes
    assert abs(np.vdot(expected, out)) ** 2 >= 1 - 1e-12


def test_post_swap_plan_random_permutations_five_channels():
    rng = np.random.default_rng(37)
    for _ in range(50):
        perm = rng.permutation(5)
        current = {ch: ("t", ch) for ch in range(1, 6)}
        desired = {int(perm[ch - 1]) + 1: ("t", ch) for ch in range(1, 6)}
        gates = post_swap_plan(current, desired)
        vec = random_state_vector(rng, 5)
        out = _apply_gates(vec.copy(), 5, gates)
        expected = permute_channels_oracle(
            vec, 5, {ch: int(perm[ch - 1]) + 1 for ch in range(1, 6)}
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)


@st.composite
def _permutations(draw):
    n = draw(st.integers(2, 6))
    return n, draw(st.permutations(range(1, n + 1)))


@given(_permutations(), st.integers(0, 2**32 - 1))
def test_post_swap_plan_moves_every_channel_property(case, seed):
    n, perm = case
    current = {ch: ("t", ch) for ch in range(1, n + 1)}
    desired = {perm[ch - 1]: ("t", ch) for ch in range(1, n + 1)}
    gates = post_swap_plan(current, desired)
    vec = random_state_vector(np.random.default_rng(seed), n)
    expected = permute_channels_oracle(vec, n, {ch: perm[ch - 1] for ch in range(1, n + 1)})
    np.testing.assert_allclose(apply_circuit_oracle(vec, n, gates), expected, atol=1e-12)


def test_post_swap_plan_compares_tokens_by_value():
    # equal tokens with different reprs: 1 and 1.0, np.float64(2.0) and 2.0
    assert post_swap_plan({1: 1, 2: np.float64(2.0)}, {1: 2.0, 2: 1.0}) == swap_circuit(1, 2)
    assert post_swap_plan({1: 1, 2: 2}, {1: 1.0, 2: 2.0}) == []


def test_post_swap_plan_rejects_bad_layouts():
    with pytest.raises(InvalidLayout):
        post_swap_plan({1: "a", 2: "a"}, {1: "a", 2: "b"})
    with pytest.raises(InvalidLayout):
        post_swap_plan({1: "a", 2: "b"}, {1: "a", 3: "b"})
    with pytest.raises(InvalidLayout):
        post_swap_plan({1: "a", 2: "b"}, {1: "a", 2: "c"})


# ---------------------------------------------------------------------------
# Protocol table


def test_protocol_table_shape():
    cases = protocol_table(3)
    assert len(cases) == 9
    reduced = protocol_table(3, reduced=True)
    assert len(reduced) == 3
    assert {c.case_id for c in reduced} <= {c.case_id for c in cases}
    assert len({c.case_id for c in cases}) == 9
    with pytest.raises(UnsupportedSize):
        protocol_table(4)


def test_protocol_table_base_cases_use_figure_programs():
    cases = {c.case_id: c for c in protocol_table(3)}
    assert cases["n3-aux2-plus-a"].bob_program == figure_circuit(1).bob_gates
    assert cases["n3-aux2-zero-c"].bob_program == figure_circuit(2).bob_gates
    assert cases["n3-aux2-one-c"].bob_program == figure_circuit(3).bob_gates


def test_protocol_table_every_case_decodes():
    rng = np.random.default_rng(38)
    for case in protocol_table(3):
        for _ in range(20):
            msgs = [random_qubit(rng), random_qubit(rng)]
            report = verify_case(case, msgs)
            assert report.passed, case.case_id


def test_protocol_table_arrangements_cover_all_three():
    by_value = {}
    for case in protocol_table(3):
        arrangement = tuple(
            ("m", out.index) if isinstance(out, MessageOut) else ("r",)
            for ch, out in sorted(case.expected_layout.items())
        )
        by_value.setdefault(case.aux_value, set()).add(arrangement)
    for value, arrangements in by_value.items():
        assert len(arrangements) == 3, value


# ---------------------------------------------------------------------------
# Bell byproduct


def test_bell_byproduct_deterministic_inputs():
    # inputs |1>, |1>: only the outcome-0 branch survives and equals |11>
    prob, state = bell_byproduct(1, 0, 1, 0, outcome=0)
    assert prob == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-12)
    with pytest.raises(ImpossibleBranch):
        bell_byproduct(1, 0, 1, 0, outcome=1)


def test_bell_byproduct_uniform_inputs_give_bell_pairs():
    prob0, s0 = bell_byproduct(SQ2, SQ2, SQ2, SQ2, outcome=0)
    prob1, s1 = bell_byproduct(SQ2, SQ2, SQ2, SQ2, outcome=1)
    assert prob0 == pytest.approx(0.5, abs=1e-12)
    assert prob1 == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(np.abs(s0.amplitudes), [SQ2, 0, 0, SQ2], atol=1e-12)
    np.testing.assert_allclose(np.abs(s1.amplitudes), [0, SQ2, SQ2, 0], atol=1e-12)


def test_bell_byproduct_branches_match_formulas():
    # outcome 0 carries ea|11>+fb|00>, outcome 1 carries eb|10>+fa|01>
    rng = np.random.default_rng(39)
    for _ in range(50):
        m1, m3 = random_qubit(rng), random_qubit(rng)
        a, b = m1.coeff1, m1.coeff0
        e, f = m3.coeff1, m3.coeff0
        total = 0.0
        expected = {
            0: np.array([f * b, 0, 0, e * a]),
            1: np.array([0, f * a, e * b, 0]),
        }
        for outcome in (0, 1):
            prob, state = bell_byproduct(a, b, e, f, outcome)
            total += prob
            want = expected[outcome]
            norm = np.linalg.norm(want)
            assert prob == pytest.approx(float(norm**2), abs=1e-12)
            assert abs(np.vdot(want / norm, state.amplitudes)) ** 2 >= 1 - 1e-10
        assert abs(total - 1) < 1e-12


def test_bell_byproduct_validates_inputs():
    with pytest.raises(NotNormalized):
        bell_byproduct(1, 1, 1, 0, outcome=0)


# ---------------------------------------------------------------------------
# Registered decoders


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_canonical_cases_decode(n):
    rng = np.random.default_rng(40 + n)
    for value in AuxValue:
        case = canonical_case(n, value)
        for _ in range(10):
            msgs = [random_qubit(rng) for _ in range(n - 1)]
            assert verify_case(case, msgs).passed, case.case_id


@pytest.mark.parametrize("n", [3, 4, 5])
def test_relocated_cases_decode(n):
    rng = np.random.default_rng(44 + n)
    for g in range(1, n + 1):
        for value in AuxValue:
            case = relocated_case(n, g, value)
            assert case.aux_channel == g
            msgs = [random_qubit(rng) for _ in range(n - 1)]
            assert verify_case(case, msgs).passed, case.case_id


@pytest.mark.parametrize("build, error", [
    (lambda: relocated_case(3, True, AuxValue.ZERO), InvalidInput),
    (lambda: relocated_case(3, 1.0, AuxValue.ZERO), InvalidInput),
    (lambda: relocated_case(3, 1, "zero"), InvalidInput),
    (lambda: canonical_case(4, "zero"), InvalidInput),
    (lambda: canonical_case(5, "zero"), InvalidInput),
    (lambda: canonical_case(3.0, AuxValue.ZERO), InvalidInput),
    (lambda: canonical_case(True, AuxValue.ZERO), InvalidInput),
    (lambda: canonical_case(2, AuxValue.ZERO), UnsupportedSize),
    (lambda: canonical_case(np.int64(7), AuxValue.ZERO), UnsupportedSize),
    (lambda: replace(canonical_case(3, AuxValue.ZERO), aux_value="zero"), InvalidInput),
], ids=["bool-channel", "float-channel", "str-value-relocated", "str-value-n4",
        "str-value-n5", "float-size", "bool-size", "size-2", "numpy-size-7", "str-value-case"])
def test_registry_refuses_arguments_of_the_wrong_type(build, error):
    """A bool or non-integer channel or size and a value that is not an
    AuxValue are refused as InvalidInput, not built or failed on later; an
    integer size out of range keeps UnsupportedSize."""
    with pytest.raises(error):
        build()


def test_numpy_integer_sizes_and_channels_build_the_int_cases():
    """A numpy size or auxiliary channel builds the case its ints build,
    with Python ints in it."""
    for n in (3, 4, 5):
        for g in (1, n):
            case = relocated_case(np.int64(n), np.int64(g), AuxValue.ONE)
            assert case == relocated_case(n, g, AuxValue.ONE)
            assert type(case.channel_count) is int and type(case.aux_channel) is int


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_an_aux_channel_out_of_range_is_channel_out_of_range(n):
    """relocated_case refuses channels 0 and n+1 as solve_bob_program does."""
    for channel in (0, n + 1):
        with pytest.raises(ChannelOutOfRange):
            relocated_case(n, channel, AuxValue.ZERO)
        with pytest.raises(ChannelOutOfRange):
            solve_bob_program(n, channel, AuxValue.ZERO, 6)


def _with_index(layout, index):
    """The layout with its first message's index replaced by `index`."""
    first = min(ch for ch, out in layout.items() if isinstance(out, MessageOut))
    return {**layout, first: MessageOut(index)}


_MESSAGE_INDEX_ENTRIES = {
    "layout_states": lambda case, layout: layout_states(
        layout, message_batch([QUBIT_PLUS, QUBIT_ONE])),
    "layout_rows": lambda case, layout: layout_rows(3, layout),
    "ProtocolCase": lambda case, layout: replace(case, expected_layout=layout),
    "solve_bob_program": lambda case, layout: solve_bob_program(
        3, case.aux_channel, case.aux_value, 6, target=layout),
}


@pytest.mark.parametrize("entry", sorted(_MESSAGE_INDEX_ENTRIES))
@pytest.mark.parametrize("index", [True, 0.0, "0", -1], ids=["bool", "float", "str", "negative"])
def test_a_message_index_must_be_an_integer(entry, index):
    """A bool, float or string message index is refused, not read as a
    numpy boolean mask or a position, and so is a negative one, not read
    as Python's index from the end."""
    case = canonical_case(3, AuxValue.ZERO)
    with pytest.raises(InvalidInput, match="message index"):
        _MESSAGE_INDEX_ENTRIES[entry](case, _with_index(case.expected_layout, index))


def test_a_numpy_message_index_is_accepted_as_an_int():
    case = canonical_case(3, AuxValue.ZERO)
    first = min(ch for ch, out in case.expected_layout.items() if isinstance(out, MessageOut))
    layout = _with_index(case.expected_layout, np.int64(case.expected_layout[first].index))
    assert type(layout[first].index) is int
    batch = message_batch([QUBIT_PLUS, QUBIT_ONE])
    assert layout_states(layout, batch).shape == (1, 8)
    np.testing.assert_array_equal(layout_states(layout, batch),
                                  layout_states(case.expected_layout, batch))
    np.testing.assert_array_equal(layout_rows(3, layout), layout_rows(3, case.expected_layout))
    assert verify_case(replace(case, expected_layout=layout), [QUBIT_PLUS, QUBIT_ONE]).passed


# ---------------------------------------------------------------------------
# Layouts


_KNOWN_QUBITS = [QUBIT_ZERO, QUBIT_ONE, QUBIT_PLUS, QUBIT_MINUS10, SingleQubit(0.6, 0.8)]


@st.composite
def layout_entries(draw):
    """(n, entries): a channel -> entry mapping for n = 3..6, drawn well
    formed (each message on one channel, the residue on the last of a
    random channel order) and then, in three draws of four, changed: a
    channel dropped or added, or one entry replaced by None, a residue or a
    message index from -1 to n."""
    n = draw(st.integers(3, 6))
    order = draw(st.permutations(range(1, n + 1)))
    entries = {ch: MessageOut(j) for j, ch in enumerate(order[:-1])}
    entries[order[-1]] = ResidueOut(draw(st.sampled_from(_KNOWN_QUBITS)))
    entry = st.one_of(st.none(), st.builds(ResidueOut, st.sampled_from(_KNOWN_QUBITS)),
                      st.builds(MessageOut, st.integers(-1, n)))
    change = draw(st.sampled_from(["none", "drop", "add", "replace"]))
    if change == "drop":
        del entries[draw(st.sampled_from(sorted(entries)))]
    elif change == "add":
        entries[draw(st.sampled_from([0, n + 1]))] = draw(entry)
    elif change == "replace":
        entries[draw(st.sampled_from(sorted(entries)))] = draw(entry)
    return n, entries


def _well_formed(n, entries):
    """The rule a layout keeps, told from the entries directly: channels
    1..n, one residue, and message indices 0..n-2 once each."""
    residues = [out for out in entries.values() if isinstance(out, ResidueOut)]
    indices = sorted(out.index for out in entries.values() if isinstance(out, MessageOut))
    return (sorted(entries) == list(range(1, n + 1)) and len(residues) == 1
            and indices == list(range(n - 1)))


@given(layout_entries(), st.integers(0, 2**32 - 1))
def test_layout_accepts_exactly_the_well_formed_entries(drawn, seed):
    """Layout refuses every malformed mapping with InvalidLayout; for the
    others, layout_states is the Kronecker product of the entries' qubits
    and layout_rows the tableau input rows of the residue and messages."""
    n, entries = drawn
    if not _well_formed(n, entries):
        with pytest.raises(InvalidLayout):
            Layout(entries, channels=n)
        for build in (lambda: layout_rows(n, entries), lambda: replace(
                canonical_case(n, AuxValue.ZERO), expected_layout=entries)):
            with pytest.raises(InvalidLayout):
                build()
        return
    layout = Layout(entries, channels=n)
    rng = np.random.default_rng(seed)
    messages = [[random_qubit(rng) for _ in range(n - 1)] for _ in range(2)]
    batch = np.array([[(q.coeff0, q.coeff1) for q in trial] for trial in messages])
    for trial, state in zip(messages, layout_states(layout, batch)):
        factors = [trial[out.index] if isinstance(out, MessageOut) else out.state
                   for _, out in sorted(entries.items())]
        expected = np.ones(1, dtype=complex)
        for q in factors:
            expected = np.kron(expected, q.as_array())
        np.testing.assert_array_equal(state, expected)
    (res,) = [ch for ch, out in entries.items() if isinstance(out, ResidueOut)]
    by_index = {out.index: ch for ch, out in entries.items() if isinstance(out, MessageOut)}
    rows = tableau.input_rows(n, stabilizer_row(entries[res].state, res, n),
                              [by_index[j] for j in range(n - 1)])
    np.testing.assert_array_equal(layout_rows(n, layout), rows)
    np.testing.assert_array_equal(layout_rows(n, entries), rows)


def test_invalid_layout_is_invalid_input():
    """One error type covers a bad layout, for callers that catch InvalidInput."""
    assert issubclass(InvalidLayout, InvalidInput)
    with pytest.raises(InvalidInput, match="one residue"):
        Layout({1: MessageOut(0), 2: MessageOut(1), 3: MessageOut(2)})


def test_a_layout_is_read_only_hashable_and_keeps_its_block():
    layout = builtin_scenario(6).expected_layout
    with pytest.raises(AttributeError):
        layout.block = ()
    same = Layout(dict(layout), layout.block)
    assert same == layout and hash(same) == hash(layout)
    assert Layout(dict(layout)) != layout  # the block tells them apart
    assert layout != dict(layout)
    assert (layout.residue_channel, layout.message_channels, layout.columns) == (3, (1, 2),
                                                                              (0, 1, 2))
    assert list(layout) == [1, 2, 3] and layout[3].state == layout.residue == QUBIT_ZERO


def test_a_layout_block_must_act_on_its_channels():
    """A block acts on channels 1..n other than the residue's: figure 6's
    block with CN 1 3 on its residue channel 3 appended is refused, since
    no output could show the residue as a factor."""
    layout = builtin_scenario(6).expected_layout
    entries = dict(layout)
    with pytest.raises(InvalidLayout, match="block"):
        Layout(entries, [Hadamard(4)])
    assert layout.residue_channel == 3
    with pytest.raises(InvalidLayout, match="block"):
        Layout(entries, layout.block + (ControlledNot(1, 3),))


def test_a_case_refuses_inputs_that_do_not_cover_its_channels():
    """The input layout (messages on message_channels, the auxiliary on its
    channel) is a Layout too, so overlapping or missing channels are refused."""
    case = canonical_case(3, AuxValue.ZERO)
    for channels in [(1, 2), (1, 1), (1, 4), (1, 3, 2), (2, 1, 3)]:
        with pytest.raises(InvalidLayout):
            replace(case, message_channels=channels)
    with pytest.raises(InvalidLayout):
        replace(case, channel_count=4)


def test_the_case_hash_covers_the_expected_layout():
    """Cases that differ only in their layout hash apart."""
    for value in AuxValue:
        cases = [replace(case, case_id="x", bob_program=())
                 for case in protocol_table(3) if case.aux_value is value]
        assert len({hash(case) for case in cases}) == len(set(cases)) == 3


def test_figure6_layout_states_are_construct_psi_with_the_residue():
    """The block word H 1, CN 1 2 on messages 0 and 1 is construct_psi's pair."""
    layout = builtin_scenario(6).expected_layout
    rng = np.random.default_rng(61)
    for _ in range(20):
        m0, m1 = random_qubit(rng), random_qubit(rng)
        psi = construct_psi(m0.coeff1, m0.coeff0, m1.coeff1, m1.coeff0)
        np.testing.assert_allclose(layout_states(layout, message_batch([m0, m1]))[0],
                                   np.kron(psi.amplitudes, QUBIT_ZERO.as_array()), atol=1e-15)


def test_verify_case_fails_a_block_word_the_decoder_does_not_reach():
    """Figure 6's decoder with the block word H 2, CN 1 2 claimed instead of
    H 1, CN 1 2 fails through its own block fidelity: the overlap of the
    output's pair (the residue's channel 3 factored off) with the claimed
    pair, which is below 1 - tol."""
    figure = builtin_scenario(6)
    other = replace(figure, expected_layout=Layout(dict(figure.expected_layout),
                                                   [Hadamard(2), ControlledNot(1, 2)]))
    rng = np.random.default_rng(62)
    for _ in range(20):
        messages = [random_qubit(rng), random_qubit(rng)]
        assert verify_case(figure, messages).passed
        report = verify_case(other, messages)
        assert not report.passed
        assert report.entangled_block_fidelity < 1 - DEFAULT_TOL
        # the residue is |0> on channel 3, so the claimed pair is its 0 half
        claimed = layout_states(other.expected_layout, message_batch(messages))[0][0::2]
        _, pair = factor_channel(report.output, 3)
        assert report.entangled_block_fidelity == pytest.approx(
            abs(np.vdot(claimed, pair.amplitudes)) ** 2, rel=0, abs=1e-15)


@pytest.mark.parametrize("figure_id", [6, 1])
def test_verify_case_builds_the_input_and_expected_states_once(monkeypatch, figure_id):
    """verify_case calls layout_states twice per call, for the input and
    for the expected state, whether or not the layout has a block word."""
    case, calls = builtin_scenario(figure_id), []
    real = protocol.layout_states
    monkeypatch.setattr(protocol, "layout_states",
                        lambda layout, batch: calls.append(layout) or real(layout, batch))
    rng = np.random.default_rng(5)
    for count in (1, 2, 3):
        assert verify_case(case, [random_qubit(rng) for _ in case.message_channels]).passed
        assert len(calls) == 2 * count
    assert calls[:2] == [case.input_layout, case.expected_layout]


def test_gate_word_is_built_once_per_case(monkeypatch):
    """verify_case runs the encoder then the program, and builds that word
    once per case, not on every call."""
    case = replace(canonical_case(4, AuxValue.PLUS))  # a fresh instance: no cached word
    calls = []
    real = protocol.alice_encoder
    monkeypatch.setattr(protocol, "alice_encoder", lambda n: calls.append(n) or real(n))
    rng = np.random.default_rng(3)
    for _ in range(3):
        assert verify_case(case, [random_qubit(rng) for _ in range(3)]).passed
    assert calls == [4]
    assert case.gate_word == tuple(real(4)) + tuple(case.bob_program)


def test_stabilizer_row_of_the_known_qubits():
    """+Z, -Z, +X and -X for |0>, |1>, |+> and (|1>-|0>)/sqrt(2), on any
    channel and whatever the global phase; 0 for a state that is no
    stabilizer state."""
    n = 3
    for channel in (1, 2, 3):
        expected = [(QUBIT_ZERO, 0, 1, 0), (QUBIT_ONE, 0, 1, 1),
                    (QUBIT_PLUS, 1, 0, 0), (QUBIT_MINUS10, 1, 0, 1)]
        for q, x, z, sign in expected:
            row = (x << (channel - 1)) | (z << (n + channel - 1)) | (sign << (2 * n))
            assert stabilizer_row(q, channel, n) == row
            turned = SingleQubit(-1j * q.coeff0, -1j * q.coeff1)
            assert stabilizer_row(turned, channel, n) == row
        assert stabilizer_row(SingleQubit(0.6, 0.8), channel, n) == 0


def test_cases_are_hashable_and_equal_cases_hash_equal():
    sizes = (3, 4, 5, 6)
    canonical = [canonical_case(n, v) for n in sizes for v in AuxValue]
    relocated = [relocated_case(n, g, v) for n in sizes for g in range(1, n + 1) for v in AuxValue]
    figures = [builtin_scenario(f) for f in SCENARIO_FIGURES]
    cases = set(canonical + relocated + figures)
    # each canonical case is the relocated case of its canonical channel
    assert len(cases) == len(relocated) + len(figures)
    rebuilt = (
        [canonical_case(c.channel_count, c.aux_value) for c in canonical]
        + [relocated_case(c.channel_count, c.aux_channel, c.aux_value) for c in relocated]
        + [replace(c, expected_layout=Layout(dict(c.expected_layout), c.expected_layout.block))
           for c in figures]
    )
    for original, again in zip(canonical + relocated + figures, rebuilt):
        assert again == original
        assert hash(again) == hash(original)
        assert again in cases


def test_general_extension_residues():
    for n in (4, 5, 6):
        plus_len = len(general_extension(n, AuxValue.PLUS))
        zero_len = len(general_extension(n, AuxValue.ZERO))
        assert plus_len == 2 * n - 3
        assert zero_len == 2 * n - 2


# ---------------------------------------------------------------------------
# Circuit action comparison


def test_verify_circuit_action_equal_self():
    fig1 = figure_circuit(1)
    assert verify_circuit_action_equal(fig1, fig1)


def test_verify_circuit_action_equal_distinguishes_figures():
    assert not verify_circuit_action_equal(figure_circuit(1), figure_circuit(2))


def test_verify_circuit_action_equal_commuting_exchange():
    base = figure_circuit(2)
    gates = list(base.gates)
    # gates 7 and 8 are h 1 / h 3: commuting, exchange preserves the action
    assert gates[7] == Hadamard(1) and gates[8] == Hadamard(3)
    swapped = gates[:7] + [gates[8], gates[7]] + gates[9:]
    assert verify_circuit_action_equal(base, Circuit(3, tuple(swapped)))


def test_verify_circuit_action_equal_global_phase_blind():
    # XZ differs from ZX by a global -1: HXH = Z, so compare via two routes
    c1 = Circuit(1, (Hadamard(1),))
    c2 = Circuit(1, (Hadamard(1), Hadamard(1), Hadamard(1)))
    assert verify_circuit_action_equal(c1, c2)


def test_verify_circuit_action_equal_sees_per_column_signs():
    # CZ (h 2; cn 1 2; h 2) maps every basis state to +-itself: it differs
    # from the identity only by a sign on one column of the unitary
    cz = Circuit(2, (Hadamard(2), ControlledNot(1, 2), Hadamard(2)))
    assert not verify_circuit_action_equal(cz, Circuit(2))


def test_verify_circuit_action_equal_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        verify_circuit_action_equal(figure_circuit(1), figure_circuit(7))


def _rewrite(draw, n, word):
    """The word with 1-3 identity rewrites: H k H k inserted, or two
    commuting neighbours exchanged."""
    word = list(word)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, max(len(word) - 2, 0)))
        if len(word) >= 2 and gates_commute(word[i], word[i + 1]) and draw(st.booleans()):
            word[i], word[i + 1] = word[i + 1], word[i]
        else:
            k = draw(st.integers(1, n))
            word[i:i] = [Hadamard(k), Hadamard(k)]
    return word


@st.composite
def circuit_pairs(draw, low, high):
    """(n, word, other word, equal): about half of the pairs are equal by
    construction (equal=True); the rest draw the second word afresh."""
    n = draw(st.integers(low, high))
    gates = st.sampled_from(gate_alphabet(n))
    word = draw(st.lists(gates, max_size=12))
    if draw(st.booleans()):
        return n, word, _rewrite(draw, n, word), True
    return n, word, draw(st.lists(gates, max_size=12)), None


@given(circuit_pairs(1, 6))
def test_verify_circuit_action_equal_matches_the_dense_oracle(pair):
    n, w1, w2, equal = pair
    u1, u2 = circuit_matrix_oracle(n, w1), circuit_matrix_oracle(n, w2)
    dense = abs(abs(np.vdot(u2, u1)) - 2**n) <= 1e-9
    assert verify_circuit_action_equal(Circuit(n, tuple(w1)), Circuit(n, tuple(w2))) == dense
    assert equal is None or dense


@given(circuit_pairs(7, MAX_CHANNELS).filter(lambda pair: pair[3]), st.data())
def test_verify_circuit_action_equal_beyond_dense_sizes(pair, data):
    """Rewritten words stay equal at 7..16 channels; one extra gate, which
    is never a multiple of the identity, makes them differ."""
    n, w1, w2, _ = pair
    assert verify_circuit_action_equal(Circuit(n, tuple(w1)), Circuit(n, tuple(w2)))
    i = data.draw(st.integers(0, len(w2)))
    extra = w2[:i] + [data.draw(st.sampled_from(gate_alphabet(n)))] + w2[i:]
    assert not verify_circuit_action_equal(Circuit(n, tuple(w1)), Circuit(n, tuple(extra)))


@pytest.mark.parametrize("n", [2, MAX_CHANNELS])
def test_verify_circuit_action_equal_sees_signs_alone(n):
    # (h 1; cn 1 2) four times is a Pauli operator: its tableau differs
    # from the identity's in the signs alone
    word = (Hadamard(1), ControlledNot(1, 2)) * 4
    if n == 2:
        assert abs(abs(np.trace(circuit_matrix_oracle(2, word))) - 4) > 1
    assert not verify_circuit_action_equal(Circuit(n, word), Circuit(n))
    assert verify_circuit_action_equal(Circuit(n, word * 2), Circuit(n))


def test_verify_circuit_action_equal_refuses_more_than_16_channels():
    with pytest.raises(UnsupportedSize):
        verify_circuit_action_equal(Circuit(17, ()), Circuit(17, ()))
