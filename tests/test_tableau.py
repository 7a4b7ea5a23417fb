"""The Clifford core: the conjugation rule against dense matrices, and every
registered decoder checked exactly against its own layout."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import circuit_matrix_oracle, gate_matrix_oracle

from intraport import tableau
from intraport.protocol import (
    SCENARIO_FIGURES,
    AuxValue,
    Layout,
    MessageOut,
    alice_encoder,
    bob_prefix,
    builtin_scenario,
    canonical_case,
    general_extension,
    input_layout,
    layout_rows,
    protocol_table,
    relocated_case,
)
from intraport.qsim import ControlledNot, Hadamard
from intraport.search import gate_alphabet

_X = np.array([[0, 1], [1, 0]])
_Z = np.array([[1, 0], [0, -1]])


def _pauli_matrix(row, n):
    """The dense Pauli of a packed row, channel 1 as the most significant
    factor; x = z = 1 is Y = iXZ."""
    out = np.array([[(-1.0) ** (row >> (2 * n))]], dtype=complex)
    for k in range(n):
        x, z = (row >> k) & 1, (row >> (n + k)) & 1
        factor = np.linalg.matrix_power(_X, x) @ np.linalg.matrix_power(_Z, z) * 1j ** (x & z)
        out = np.kron(out, factor)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugate_matches_dense_conjugation(n):
    """U P U^dagger equals the image row's Pauli, sign included, for every
    packed row and every gate of the alphabet."""
    rows = np.arange(1 << (2 * n + 1))
    for gate in gate_alphabet(n):
        u = gate_matrix_oracle(n, gate)
        for row, image in zip(rows, tableau.conjugate(rows, n, gate)):
            p = _pauli_matrix(int(row), n)
            np.testing.assert_allclose(u @ p @ u.conj().T, _pauli_matrix(int(image), n),
                                       atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sampled_from(gate_alphabet(n)), max_size=8))))
def test_pull_back_is_the_word_s_heisenberg_picture(word):
    """U^dagger P U equals the pulled-back row's Pauli, sign included, for
    every packed row P, where U runs the word first gate first."""
    n, gates = word
    u = circuit_matrix_oracle(n, gates)
    for row, image in enumerate(tableau.pull_back(n, gates).tolist()):
        np.testing.assert_allclose(u.conj().T @ _pauli_matrix(row, n) @ u,
                                   _pauli_matrix(image, n), atol=1e-12)


@st.composite
def row_pairs(draw):
    """(n, a, b): two packed rows on 1..3 channels."""
    n = draw(st.integers(1, 3))
    row = st.integers(0, (1 << (2 * n + 1)) - 1)
    return n, draw(row), draw(row)


@given(row_pairs())
def test_multiply_matches_dense_products_of_commuting_rows(pair):
    """The phase rule: for commuting Paulis A and B, multiply gives the row
    of the dense product A B, sign included."""
    n, a, b = pair
    pa, pb = _pauli_matrix(a, n), _pauli_matrix(b, n)
    assume(np.allclose(pa @ pb, pb @ pa))
    np.testing.assert_allclose(_pauli_matrix(int(tableau.multiply(a, b, n)), n), pa @ pb,
                               atol=1e-12)
    rows = np.array([a, b], dtype=np.uint16)
    assert tableau.multiply(rows[:1], rows[1:], n)[0] == tableau.multiply(a, b, n)


def _registered_cases():
    """The figures (figure 6 with its block word), the 9 protocol_table(3)
    cases, canonical_case for n=3..6 and the 54 relocated cases."""
    cases = [builtin_scenario(f) for f in SCENARIO_FIGURES]
    cases += protocol_table(3)
    cases += [canonical_case(n, value) for n in range(3, 7) for value in AuxValue]
    cases += [relocated_case(n, aux, value)
              for n in range(3, 7) for aux in range(1, n + 1) for value in AuxValue]
    return cases


@pytest.mark.parametrize("case", _registered_cases(), ids=lambda case: case.case_id)
def test_registered_decoder_reaches_exactly_its_layout(case):
    """Target mode accepts the decoder for its own layout, and not for the
    layout with two messages exchanged."""
    n, layout = case.channel_count, case.expected_layout
    rows = tableau.apply_word(layout_rows(n, case.input_layout), n,
                              alice_encoder(n) + list(case.bob_program))[None]
    assert tableau.accepts(rows, n, layout_rows(n, layout))[0]
    a, b = [ch for ch, out in layout.items() if isinstance(out, MessageOut)][:2]
    swapped = Layout({**layout, a: layout[b], b: layout[a]}, layout.block)
    assert not tableau.accepts(rows, n, layout_rows(n, swapped))[0]


def test_registered_decoder_count():
    assert len(_registered_cases()) == 8 + 9 + 12 + 54


def test_figure6_reaches_no_other_block():
    """Figure 6's decoder leaves construct_psi's pair (H 1, CN 1 2 on
    messages 0 and 1), not the pair that H 2, CN 1 2 makes, nor the two
    messages unentangled."""
    case = builtin_scenario(6)
    rows = tableau.apply_word(layout_rows(3, case.input_layout), 3, case.gate_word)[None]
    for block in ([Hadamard(2), ControlledNot(1, 2)], []):
        other = Layout(dict(case.expected_layout), block)
        assert not tableau.accepts(rows, 3, layout_rows(3, other))[0]


@pytest.mark.parametrize("n", range(4, 17))
def test_general_extension_decodes_exactly_up_to_16_channels(n):
    """The general extension leaves message j on channel j+1 and the
    auxiliary value on channel n, with no 2^n state; without its last gate
    the map decodes to no layout at all."""
    for value in AuxValue:
        rows = layout_rows(n, input_layout(range(1, n), n, value))
        word = alice_encoder(n) + bob_prefix(n) + general_extension(n, value)
        assert tableau.accepts(tableau.apply_word(rows, n, word)[None], n, rows)[0]
        assert not tableau.accepts(tableau.apply_word(rows, n, word[:-1])[None], n)[0]

