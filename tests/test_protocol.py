"""Protocol engine: encoders, scenarios, psi, swapping, table, byproduct."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from intraport.circuit import MAX_CHANNELS, Circuit
from intraport.errors import (
    ImpossibleBranch,
    InvalidGate,
    InvalidLayout,
    NotNormalized,
    ShapeMismatch,
    UnsupportedSize,
)
from intraport.protocol import (
    AuxValue,
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
    general_residue,
    layout_states,
    message_batch,
    post_swap_plan,
    protocol_table,
    relocated_case,
    run_scenario,
    swap_circuit,
    verify_case,
    verify_circuit_action_equal,
)
from intraport.qsim import (
    ControlledNot,
    Hadamard,
    PureState,
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

from intraport.search import gate_alphabet

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
        + [replace(c, expected_layout=dict(c.expected_layout)) for c in figures]
    )
    for original, again in zip(canonical + relocated + figures, rebuilt):
        assert again == original
        assert hash(again) == hash(original)
        assert again in cases


def test_general_extension_residues():
    assert general_residue(AuxValue.PLUS) == QUBIT_PLUS
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
