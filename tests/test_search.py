"""Decoder-program search: correctness, determinism, canonical order."""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import decoder_layout_oracle

from intraport import tableau
from intraport.circuit import Circuit, parse_circuit
from intraport.errors import ChannelOutOfRange, InvalidInput, UnsupportedSize
from intraport.protocol import (
    SCENARIO_FIGURES,
    AuxValue,
    MessageOut,
    ResidueOut,
    alice_encoder,
    bob_prefix,
    builtin_scenario,
    canonical_case,
    input_layout,
    relocated_case,
    swap_circuit,
    verify_circuit_action_equal,
)
from intraport.qsim import (
    ControlledNot,
    Hadamard,
    PureState,
    SingleQubit,
    _apply_gates,
    factor_all,
    fidelity,
    make_state,
    random_qubit,
)
from intraport.search import (
    _Task,
    _distances,
    _layout_rows,
    _row_tables,
    _weights,
    gate_alphabet,
    solve_bob_program,
)


def assert_decodes(n, aux_channel, value, extension, trials=20):
    """Independent check: the program returns every message on a fixed channel."""
    rng = np.random.default_rng(77)
    gates = alice_encoder(n) + bob_prefix(n) + list(extension)
    assignment = None
    for _ in range(trials):
        msgs = [random_qubit(rng) for _ in range(n - 1)]
        qubits = []
        mi = 0
        for ch in range(1, n + 1):
            if ch == aux_channel:
                qubits.append(value.qubit)
            else:
                qubits.append(msgs[mi])
                mi += 1
        out = PureState(n, _apply_gates(make_state(qubits).amplitudes, n, gates),
                        _trust=True)
        factors = factor_all(out)
        assert factors is not None
        found = {}
        for j, msg in enumerate(msgs):
            target = make_state([msg])
            hits = [
                ch for ch in range(1, n + 1)
                if fidelity(make_state([factors[ch - 1]]), target) >= 1 - 1e-9
            ]
            assert len(hits) >= 1, f"message {j} lost"
            found[j] = hits
        pick = tuple(found[j][0] for j in range(len(msgs)))
        if assignment is None:
            assignment = pick
        else:
            assert all(assignment[j] in found[j] for j in range(len(msgs)))


def test_free_search_three_channels_plus():
    program = solve_bob_program(3, 2, AuxValue.PLUS, 6)
    assert program == [ControlledNot(1, 3), ControlledNot(2, 3)]
    assert_decodes(3, 2, AuxValue.PLUS, program)


def test_free_search_three_channels_zero_reproduces_figure_gate():
    program = solve_bob_program(3, 2, AuxValue.ZERO, 6)
    assert program == [ControlledNot(1, 3)]
    assert list(builtin_scenario(2).circuit.bob_gates[5:]) == program


def test_free_search_three_channels_one():
    program = solve_bob_program(3, 2, AuxValue.ONE, 6)
    assert program == [ControlledNot(1, 3), ControlledNot(3, 2)]
    assert_decodes(3, 2, AuxValue.ONE, program)


def test_search_not_found_within_one_gate():
    assert solve_bob_program(3, 2, AuxValue.PLUS, 1) is None


def test_free_search_four_channels_zero():
    program = solve_bob_program(4, 4, AuxValue.ZERO, 10)
    assert program is not None and len(program) == 5
    assert_decodes(4, 4, AuxValue.ZERO, program)


def _solve_pinned(name):
    """(case, solved program as a tuple or None, pinned program or None)
    for each call in a golden file."""
    path = Path(__file__).parent / "golden" / name
    for case in json.loads(path.read_text(encoding="utf-8")):
        n = case["channels"]
        target = (None if case["target_figure"] is None
                  else builtin_scenario(case["target_figure"]).expected_layout)
        program = solve_bob_program(n, case["aux_channel"], AuxValue(case["aux_value"]),
                                    case["max_gates"], target=target)
        pinned = (None if case["program"] is None
                  else parse_circuit("\n".join([f"channels {n}"] + case["program"])).gates)
        yield case, None if program is None else tuple(program), pinned


def test_search_returns_pinned_least_words():
    """Exact words pinned in golden/search_programs.json: a traversal that
    returns any other word of the same length fails here."""
    for case, program, pinned in _solve_pinned("search_programs.json"):
        assert program is not None and program == pinned, case


def test_search_results_are_pinned_over_bounds_and_targets():
    """golden/search_results.json pins 283 more calls (null for a miss):
    every n=3 and n=4 case at max_gates 0..3 and 10, target mode for
    figures 1-3 over every auxiliary channel and value at max_gates 6 and
    10, n=5 and n=6 at max_gates 0..3, (5,5,zero,12), (6,1,plus,10) and
    (6,6,plus,10)."""
    for case, program, pinned in _solve_pinned("search_results.json"):
        assert program == pinned, case


def test_search_is_deterministic():
    first = solve_bob_program(3, 2, AuxValue.ONE, 6)
    second = solve_bob_program(3, 2, AuxValue.ONE, 6)
    assert first == second


def test_constrained_search_reproduces_figure_decoders():
    for fig, value in ((2, AuxValue.ZERO), (3, AuxValue.ONE)):
        scenario = builtin_scenario(fig)
        program = solve_bob_program(3, 2, value, 6, target=scenario.expected_layout)
        assert program is not None
        decoder = Circuit(3, tuple(bob_prefix(3)) + tuple(program))
        figure_bob = Circuit(3, tuple(scenario.circuit.bob_gates))
        assert verify_circuit_action_equal(decoder, figure_bob)


def test_search_beyond_horizon_returns_registered_decoder():
    program = solve_bob_program(5, 5, AuxValue.ZERO, 12)
    assert program is not None
    assert len(program) <= 12
    assert_decodes(5, 5, AuxValue.ZERO, program, trials=10)


def test_search_argument_validation():
    with pytest.raises(UnsupportedSize):
        solve_bob_program(7, 1, AuxValue.ZERO, 6)
    with pytest.raises(ChannelOutOfRange):
        solve_bob_program(3, 4, AuxValue.ZERO, 6)
    with pytest.raises(InvalidInput):
        solve_bob_program(3, 2, AuxValue.ZERO, 15)
    with pytest.raises(InvalidInput):
        solve_bob_program(3, 2, AuxValue.ZERO, 6, target={1: None})


def test_gate_alphabet_order():
    gates = gate_alphabet(3)
    assert gates[:3] == [Hadamard(1), Hadamard(2), Hadamard(3)]
    assert gates[3:] == [
        ControlledNot(1, 2), ControlledNot(1, 3), ControlledNot(2, 1),
        ControlledNot(2, 3), ControlledNot(3, 1), ControlledNot(3, 2),
    ]


@st.composite
def protocol_words(draw):
    """(n, aux channel, value, extension): a random word, or the registered
    decoder followed by random gates and swap triples, which may or may not
    still decode."""
    n = draw(st.integers(3, 6))
    aux = draw(st.integers(1, n))
    value = draw(st.sampled_from(list(AuxValue)))
    channel = st.integers(1, n)
    pairs = st.tuples(channel, channel).filter(lambda p: p[0] != p[1])
    pieces = st.one_of(
        st.sampled_from(gate_alphabet(n)).map(lambda g: [g]),
        pairs.map(lambda p: swap_circuit(*p)),
    )
    word = []
    if draw(st.booleans()):
        # relocated_case's program includes the prefix, which undoes itself
        word = list(reversed(bob_prefix(n))) + list(relocated_case(n, aux, value).bob_program)
    for piece in draw(st.lists(pieces, max_size=4)):
        word += piece
    return n, aux, value, word


@given(protocol_words())
def test_tableau_test_matches_the_dense_oracle(case):
    """Exact acceptance: the word decodes by the dense matrix iff the
    tableau core says so, and target mode accepts exactly its layout."""
    n, aux, value, word = case
    gates = alice_encoder(n) + bob_prefix(n) + word
    layout = decoder_layout_oracle(n, aux, value.qubit.as_array(), gates)
    messages = [c for c in range(1, n + 1) if c != aux]
    rows = tableau.apply_word(_layout_rows(n, input_layout(messages, aux, value)), n, gates)

    def decodes(target=None):
        return tableau.accepts(rows[None], n, None if target is None else _layout_rows(n, target))[0]

    assert decodes() == (layout is not None)
    if layout is None:
        return
    assert decodes(layout)
    # two messages exchanged, the orthogonal residue or a residue that is
    # not a stabilizer state is another layout
    a, b = [ch for ch, out in layout.items() if isinstance(out, MessageOut)][:2]
    assert not decodes({**layout, a: layout[b], b: layout[a]})
    res = next(ch for ch, out in layout.items() if isinstance(out, ResidueOut))
    q = layout[res].state
    for other in (SingleQubit(-np.conj(q.coeff1), np.conj(q.coeff0)), SingleQubit(0.6, 0.8)):
        assert not decodes({**layout, res: ResidueOut(other)})


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_one_gate_changes_a_weight_by_at_most_one(n):
    """The lemma behind the search's lower bound, over every packed row
    and every alphabet gate; the weight is recounted channel by channel."""
    row = np.arange(1 << (2 * n + 1))
    weight = sum(((row >> k) | (row >> (n + k))) & 1 for k in range(n))
    assert np.array_equal(_weights(n), weight)
    for image in _row_tables(n):
        assert np.abs(weight[image] - weight).max() <= 1


@pytest.mark.parametrize("n, reach, above", [(3, 4, 44), (4, 6, 234), (5, 7, 1112), (6, 9, 5022)])
def test_distances_are_exact(n, reach, above):
    """d is 0 exactly on the rows of weight at most 1, one gate changes it
    by at most one (the lemma behind the search's bound), and every row at
    d = k > 0 has a gate image at k - 1.  The lemma gives d <= the true
    distance along any path, the descent d >= it, so d is exact.  It is
    at least the weight minus one, strictly more on `above` rows (the
    identity, of weight 0, aside), and never depends on the sign bit."""
    d = _distances(n).astype(int)
    weight = _weights(n).astype(int)
    images = d[_row_tables(n)]  # (g, rows): d of each row's image by each gate
    assert np.array_equal(d == 0, weight <= 1)
    assert np.abs(images - d).max() <= 1
    assert np.all((d == 0) | (images.min(axis=0) == d - 1))
    assert np.all(d >= weight - 1)
    assert np.count_nonzero(d > np.maximum(weight - 1, 0)) == above
    assert d.max() == reach
    half = len(d) // 2
    assert np.array_equal(d[:half], d[half:])


def _registered_decoders():
    """Every registered decoder: the relocated cases at n=3..6 (the
    canonical ones among them) and the figures whose outputs are a product."""
    for n in range(3, 7):
        for aux in range(1, n + 1):
            for value in AuxValue:
                yield relocated_case(n, aux, value)
    for figure in SCENARIO_FIGURES:
        case = builtin_scenario(figure)
        if case.psi_block is None:
            yield case


def test_lower_bound_holds_along_every_registered_decoder():
    """h never exceeds the gates left, on every prefix of every registered
    decoder, and the whole decoder is accepted.  Relocated programs do not
    start with bob_prefix, so each walk starts from the encoder's image."""
    checks = 0
    for case in _registered_decoders():
        n = case.channel_count
        task = _Task(n, case.aux_channel, case.aux_value, None)
        rows = task._apply(task.root, list(reversed(bob_prefix(n))))
        program = list(case.bob_program)
        for k, gate in enumerate(program + [None]):
            assert task.lower_bound(rows[None])[0] <= len(program) - k, (case.case_id, k)
            checks += 1
            if gate is not None:
                rows = task._apply(rows, [gate])
        assert task.accepts(rows[None])[0], case.case_id
    assert checks == 1565


def test_root_bound_settles_the_n6_horizon_walks():
    for aux in (1, 6):
        task = _Task(6, aux, AuxValue.PLUS, None)
        assert task.lower_bound(task.root[None])[0] == 5
        assert task.search(4) is None


@pytest.mark.parametrize("aux", [1, 6])
def test_no_n6_plus_decoder_has_seven_gates_or_fewer(aux):
    """Past the n=6 horizon of 4 gates, the walk to 7 proves that no
    extension of 7 gates or fewer decodes (6, aux, plus); it takes about a
    second.  The registered n=6 decoders have 9-10 gates."""
    assert _Task(6, aux, AuxValue.PLUS, None).search(7) is None


@lru_cache(maxsize=None)
def _short_decoders(n, aux, value):
    """Every word of at most 5 alphabet gates that the tableau test accepts
    for the case, found by trying all g^L words of each length L."""
    task = _Task(n, aux, value, None)
    g = len(task.gates)
    words = []
    level = task.root[None]  # row i: the word spelled by the base-g digits of i, first gate lowest
    for size in range(6):
        if size:
            level = task.tables[:, level].reshape(-1, level.shape[1])
        for i in np.flatnonzero(task.accepts(level)):
            digits = [(int(i) // g**k) % g for k in range(size)]
            words.append(tuple(task.gates[d] for d in digits))
    return words


def _same_layout(a, b):
    """Equal layouts: the same messages on the same channels, and residues
    equal up to a global phase."""
    if a.keys() != b.keys():
        return False
    for ch, out in a.items():
        if isinstance(out, MessageOut) != isinstance(b[ch], MessageOut):
            return False
        if isinstance(out, MessageOut):
            if out != b[ch]:
                return False
        elif abs(np.vdot(out.state.as_array(), b[ch].state.as_array())) < 1 - 1e-9:
            return False
    return True


@st.composite
def short_decoding_words(draw):
    """(n, aux channel, value, word): a word of at most 5 gates that decodes
    the case, at n=3..4."""
    n = draw(st.integers(3, 4))
    cases = [(aux, value) for aux in range(1, n + 1) for value in AuxValue
             if _short_decoders(n, aux, value)]
    aux, value = draw(st.sampled_from(cases))
    return n, aux, value, list(draw(st.sampled_from(_short_decoders(n, aux, value))))


@given(short_decoding_words())
def test_pruned_search_never_loses_a_witness(case):
    """A decoding word of L gates is a witness: the target-mode search
    bounded by L finds a word of at most L gates with the same layout."""
    n, aux, value, word = case
    prefix = alice_encoder(n) + bob_prefix(n)
    layout = decoder_layout_oracle(n, aux, value.qubit.as_array(), prefix + word)
    assert layout is not None
    found = solve_bob_program(n, aux, value, max_gates=len(word), target=layout)
    assert found is not None and len(found) <= len(word)
    found_layout = decoder_layout_oracle(n, aux, value.qubit.as_array(), prefix + found)
    assert found_layout is not None and _same_layout(found_layout, layout)


@pytest.mark.parametrize("value, registered", [
    (AuxValue.ZERO, 8), (AuxValue.ONE, 8), (AuxValue.PLUS, 7),
])
def test_registered_n5_aux5_decoders_are_minimal(value, registered):
    """Past the n=5 horizon, no word shorter than the registered extension
    decodes.  For plus the 7-gate walk also finds a decoder; the 8-gate
    walks for zero and one take 5-9 s each and are marked slow (below)."""
    assert len(canonical_case(5, value).bob_program) - len(bob_prefix(5)) == registered
    task = _Task(5, 5, value, None)
    assert task.search(registered - 1) is None
    if registered == 7:
        word = task.search(7)
        assert word is not None and len(word) == 7
        assert decoder_layout_oracle(5, 5, value.qubit.as_array(),
                                     alice_encoder(5) + bob_prefix(5) + word) is not None


@pytest.mark.slow
@pytest.mark.parametrize("value", [AuxValue.ZERO, AuxValue.ONE])
def test_n5_aux5_eight_gate_walks_find_a_decoder(value):
    """The 8-gate walks for (5, aux 5, zero) and (5, aux 5, one) find a
    decoder of the registered length, and the dense oracle agrees; so the
    registered 8-gate decoders are minimal and not unique."""
    word = _Task(5, 5, value, None).search(8)
    assert word is not None and len(word) == 8
    assert decoder_layout_oracle(5, 5, value.qubit.as_array(),
                                 alice_encoder(5) + bob_prefix(5) + word) is not None
