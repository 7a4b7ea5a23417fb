"""The Clifford core: the conjugation rule against dense matrices, and every
registered decoder checked exactly against its own layout."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import circuit_matrix_oracle, gate_matrix_oracle, y_parity

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


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_every_gate_keeps_each_rows_y_parity(n):
    """Every entry of every row table keeps its row's Y-count parity, over
    all 2^(2n+1) packed rows: no word changes q(x, z) = x . z of a row."""
    rows = np.arange(1 << (2 * n + 1))
    for image in tableau.row_tables(n):
        assert np.array_equal(y_parity(image, n), y_parity(rows, n))


def _group_order(n, signed):
    """The number of distinct tableaux, the images of X_1..X_n and then
    Z_1..Z_n, that words over gate_alphabet(n) make from the identity: a
    breadth-first walk over the row tables, signs dropped unless `signed`.
    The gates are involutions, so the words reach a group."""
    tables = tableau.row_tables(n).astype(np.int64)
    if not signed:
        tables &= (1 << (2 * n)) - 1
    bits = 2 * n + 1
    places = np.arange(0, 2 * n * bits, bits)  # 42 bits of key at n=3

    def unpack(keys):
        return (keys[:, None] >> places) & ((1 << bits) - 1)

    seen = frontier = (np.array([1 << k for k in range(2 * n)]) << places).sum(keepdims=True)
    while len(frontier):
        found = []
        for start in range(0, len(frontier), 1 << 14):
            rows = tables[:, unpack(frontier[start:start + (1 << 14)])].reshape(-1, 2 * n)
            keys = np.unique((rows << places).sum(axis=1))
            found.append(keys[seen.take(seen.searchsorted(keys), mode="clip") != keys])
        frontier = np.unique(np.concatenate(found))
        seen = np.union1d(seen, frontier)
    return len(seen)


@pytest.mark.parametrize("n, signed, order", [(1, True, 2), (1, False, 2), (2, True, 1152),
                                              (2, False, 72), (3, False, 40320)])
def test_the_words_generate_the_real_clifford_group(n, signed, order):
    """From n = 2 on, H and CNOT generate 4^n |O+(2n, 2)| signed tableaux
    and |O+(2n, 2)| unsigned ones, |O+(2n, 2)| = 2 2^(n(n-1)) (2^n - 1)
    prod_{0<i<n} (4^i - 1) being the orthogonal group of q(x, z) = x . z:
    every Pauli frame on top of it, the real Clifford group (Nebe, Rains and
    Sloane, arXiv:math/0001038).  At n = 1 the alphabet is H alone."""
    if n > 1:
        orthogonal = 2 * 2 ** (n * (n - 1)) * (2 ** n - 1)
        orthogonal *= math.prod(4 ** i - 1 for i in range(1, n))
        assert order == (4 ** n if signed else 1) * orthogonal
    assert _group_order(n, signed) == order


@pytest.mark.slow
def test_the_signed_n3_group_has_2580480_elements():
    """The signed n=3 walk of the test above: 64 times 40,320 tableaux."""
    assert _group_order(3, True) == 2580480


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

