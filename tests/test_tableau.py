"""The Clifford core: the conjugation rule against dense matrices, and every
registered decoder checked exactly against its own layout."""

import numpy as np
import pytest

from helpers import gate_matrix_oracle

from intraport import tableau
from intraport.protocol import (
    SCENARIO_FIGURES,
    AuxValue,
    MessageOut,
    alice_encoder,
    bob_prefix,
    builtin_scenario,
    canonical_case,
    general_extension,
    input_layout,
    protocol_table,
    relocated_case,
)
from intraport.search import _layout_rows, gate_alphabet

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


def _registered_cases():
    """The figures with a product output, the 9 protocol_table(3) cases,
    canonical_case for n=3..6 and the 54 relocated cases."""
    cases = [builtin_scenario(f) for f in SCENARIO_FIGURES if f != 6]
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
    rows = tableau.apply_word(_layout_rows(n, case.input_layout), n,
                              alice_encoder(n) + list(case.bob_program))[None]
    assert tableau.accepts(rows, n, _layout_rows(n, layout))[0]
    a, b = [ch for ch, out in layout.items() if isinstance(out, MessageOut)][:2]
    assert not tableau.accepts(rows, n, _layout_rows(n, {**layout, a: layout[b], b: layout[a]}))[0]


def test_registered_decoder_count():
    assert len(_registered_cases()) == 7 + 9 + 12 + 54


@pytest.mark.parametrize("n", range(4, 17))
def test_general_extension_decodes_exactly_up_to_16_channels(n):
    """The general extension leaves message j on channel j+1 and the
    auxiliary value on channel n, with no 2^n state; without its last gate
    the map decodes to no layout at all."""
    for value in AuxValue:
        rows = _layout_rows(n, input_layout(range(1, n), n, value))
        word = alice_encoder(n) + bob_prefix(n) + general_extension(n, value)
        assert tableau.accepts(tableau.apply_word(rows, n, word)[None], n, rows)[0]
        assert not tableau.accepts(tableau.apply_word(rows, n, word[:-1])[None], n)[0]

