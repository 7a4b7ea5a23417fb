"""Decoder-program search: correctness, determinism, canonical order."""

import contextlib
import io
import json
import tracemalloc
from functools import lru_cache
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import decoder_layout_oracle

from intraport import cli, tableau
from intraport import search as search_module
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
    gates_commute,
    make_state,
    random_qubit,
)
from intraport.search import (
    _BALL_RADIUS,
    _DEPTH_HORIZON,
    _Task,
    _ball,
    _class_key,
    _class_keys,
    _distances,
    _follows,
    _layout_rows,
    _pack,
    _row_tables,
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
    """golden/search_results.json pins 418 more calls (null for a miss):
    every n=3 and n=4 case at max_gates 0..10, target mode for
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


def _weights(n):
    """Every packed row's weight, the number of channels its Pauli acts
    on, counted channel by channel."""
    row = np.arange(1 << (2 * n + 1))
    return sum(((row >> k) | (row >> (n + k))) & 1 for k in range(n))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_one_gate_changes_a_weight_by_at_most_one(n):
    """The lemma behind the search's lower bound, over every packed row
    and every alphabet gate."""
    weight = _weights(n)
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
    weight = _weights(n)
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
        rows = tableau.apply_word(task.root, n, list(reversed(bob_prefix(n))))
        program = list(case.bob_program)
        for k, gate in enumerate(program + [None]):
            assert task.lower_bound(rows[None])[0] <= len(program) - k, (case.case_id, k)
            checks += 1
            if gate is not None:
                rows = tableau.conjugate(rows, n, gate)
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


@pytest.mark.parametrize("n", [3, 4])
def test_pack_equals_the_shift_and_or_of_its_rows(n):
    """_pack's matrix product equals shifting each row to its place and
    OR-ing, for random rows and for rows with every bit set (63 bits at
    n=4), with one row fewer (the message rows of a class key) or all."""
    bits = 2 * n + 1
    rows = np.random.default_rng(n).integers(0, 1 << bits, size=(500, 2 * n - 1))
    rows = np.vstack([rows, np.full((1, 2 * n - 1), (1 << bits) - 1)]).astype(np.uint16)
    for r in (2 * n - 2, 2 * n - 1):
        expected = np.zeros(len(rows), dtype=np.uint64)
        for i in range(r):
            expected |= rows[:, i].astype(np.uint64) << np.uint64(bits * i)
        assert np.array_equal(_pack(rows[:, :r], n), expected)


def _unpack(keys, n):
    """The (K, 2n-1) tableaux of class keys: S' in the lowest bits, then
    each message row in its canonical form."""
    bits = 2 * n + 1
    return np.stack([(keys >> np.uint64(bits * i)) & np.uint64((1 << bits) - 1)
                     for i in range(2 * n - 1)], axis=1).astype(np.uint16)


def _accepted_tableaux(n):
    """(6 n!, 2n-1): every accepted tableau whose message rows are +X_p and
    +Z_p, message j on channel perm[j-1] and a signed X, Y or Z residue on
    perm[n-1]."""
    return np.array([tableau.input_rows(n, tableau.pauli(n, perm[-1], x, z, sign), perm[:-1])
                     for perm in permutations(range(1, n + 1))
                     for x, z in ((1, 0), (1, 1), (0, 1)) for sign in (0, 1)], dtype=np.uint16)


@pytest.mark.parametrize("n, sizes", [(3, [36, 252, 1224, 4248]),
                                      (4, [144, 1944, 17496, 120120])])
def test_ball_distance_zero_is_exactly_acceptance(n, sizes):
    """A key is at distance 0 iff tableau.accepts accepts its tableau, and
    the accepted classes are the 6 n! of every channel arrangement."""
    ball = _ball(n)
    assert np.array_equal(np.bincount(ball.dist), sizes)
    assert np.all(ball.keys[1:] > ball.keys[:-1])
    assert np.array_equal(ball.dist == 0, tableau.accepts(_unpack(ball.keys, n), n))
    accepted = _class_keys(_accepted_tableaux(n), n, ball.signs)
    assert np.array_equal(np.sort(accepted), ball.keys[ball.dist == 0])


@pytest.mark.parametrize("n", [3, 4])
def test_ball_distances_are_exact(n):
    """One gate changes a key's distance by at most one (an image outside
    the ball comes only from its rim), and every key at k > 0 has a gate
    image at k - 1.  With distance 0 exactly on acceptance, the first
    gives at most the true distance and completeness, the second at least
    it, as for the per-row distances."""
    ball = _ball(n)
    rows, d = _unpack(ball.keys, n), ball.dist.astype(int)
    best = np.full(len(d), _BALL_RADIUS + 1)
    for table in _row_tables(n):
        image = ball.distance(table[rows]).astype(int)
        assert np.abs(image - d).max() <= 1
        best = np.minimum(best, image)
    assert np.all((d == 0) | (best == d - 1))


@pytest.mark.parametrize("n", [3, 4])
def test_class_key_ignores_message_rows_times_s(n):
    """Multiplying any message row by S' (in either order; they commute)
    leaves the key of every tableau in the ball unchanged."""
    ball = _ball(n)
    rows = _unpack(ball.keys, n)
    for j in range(1, 2 * n - 1):
        other = rows.copy()
        other[:, j] = tableau.multiply(rows[:, 0], rows[:, j], n)
        assert np.array_equal(_class_keys(other, n, ball.signs), ball.keys)


def test_relabelled_ball_equals_the_direct_walk():
    """At n=3, a breadth-first walk from all 36 accepted classes gives the
    same keys at the same distances as the ball built from the 6 canonical
    ones and relabelled."""
    n, ball = 3, _ball(3)
    level = _accepted_tableaux(n)
    seen = np.unique(_class_keys(level, n, ball.signs))
    keys, dist = [seen], [np.zeros(len(seen), dtype=int)]
    for d in range(1, _BALL_RADIUS + 1):
        kids = _row_tables(n)[:, level].reshape(-1, level.shape[1])
        uniq, first = np.unique(_class_keys(kids, n, ball.signs), return_index=True)
        fresh = ~np.isin(uniq, seen)
        level = kids[first[fresh]]
        keys.append(uniq[fresh])
        dist.append(np.full(fresh.sum(), d))
        seen = np.union1d(seen, uniq[fresh])
    keys, dist = np.concatenate(keys), np.concatenate(dist)
    order = np.argsort(keys)
    assert np.array_equal(keys[order], ball.keys)
    assert np.array_equal(dist[order], ball.dist)


@st.composite
def scrambled_roots(draw, most=None):
    """(n, rows): an accepted tableau at n=3 or n=4 with up to `most` (by
    default 7 or 6) random alphabet gates applied."""
    n = draw(st.integers(3, 4))
    rows = draw(st.sampled_from(list(_accepted_tableaux(n))))
    for gate in draw(st.lists(st.sampled_from(gate_alphabet(n)), max_size=most or 10 - n)):
        rows = tableau.conjugate(rows, n, gate)
    return n, rows


@settings(max_examples=150, deadline=None)
@given(scrambled_roots())
def test_exact_length_walk_equals_the_walk_without_the_ball(case):
    """From any root, at every depth up to the horizon, the walk that takes
    its length from the ball returns the same word as the walk pruned by h
    alone, never longer than the depth, and that word decodes."""
    n, rows = case
    task = _Task(n, n, AuxValue.ZERO, None)
    task.root = rows
    for depth in range(_DEPTH_HORIZON[n] + 1):
        found = task.search(depth)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "_BALL_CHANNELS", 0)
            assert task.search(depth) == found, depth
        if found is not None:
            assert len(found) <= depth
            assert task.verify(found)


@lru_cache(maxsize=None)
def _canonical_words(n, length):
    """(W, length): the alphabet indices of every canonical word of `length`
    gates, in lexicographic order.  A word is canonical when no gate follows
    itself and each pair of adjacent commuting gates is in alphabet order."""
    gates = gate_alphabet(n)
    may_follow = {(a, b): a != b and not (b < a and gates_commute(gates[a], gates[b]))
                  for a in range(len(gates)) for b in range(len(gates))}
    words = [w for w in product(range(len(gates)), repeat=length)
             if all(may_follow[pair] for pair in zip(w, w[1:]))]
    return np.array(words, dtype=np.intp).reshape(len(words), length)


def _least_decoders(n, rows, most):
    """Per length 0..most, the least canonical word of that length that the
    tableau test accepts from `rows`, or None: every word is applied."""
    tables, gates = _row_tables(n), gate_alphabet(n)
    least = []
    for length in range(most + 1):
        words = _canonical_words(n, length)
        images = np.broadcast_to(rows, (len(words), len(rows)))
        for column in words.T:
            images = tables[column[:, None], images]
        hit = np.flatnonzero(tableau.accepts(images, n))
        least.append([gates[j] for j in words[hit[0]]] if hit.size else None)
    return least


@settings(max_examples=100, deadline=None)
@given(scrambled_roots(most=5))
def test_search_returns_the_least_word_of_every_canonical_word(case):
    """At every depth up to 4, with the ball and without it, the search
    returns the least accepted word of the shortest accepted length, as
    found by applying every canonical word in lexicographic order."""
    n, rows = case
    task = _Task(n, n, AuxValue.ZERO, None)
    task.root = rows
    least = _least_decoders(n, rows, 4)
    for depth in range(5):
        expected = next((word for word in least[:depth + 1] if word is not None), None)
        assert task.search(depth) == expected, depth
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_module, "_BALL_CHANNELS", 0)
            assert task.search(depth) == expected, depth


@st.composite
def ball_lookups(draw):
    """(n, rows) at n=3 or n=4: an accepted tableau scrambled by up to 5
    gates, so inside the ball or outside it, or arbitrary rows with any
    sign bits."""
    n = draw(st.integers(3, 4))
    if draw(st.booleans()):
        rows = draw(st.sampled_from(list(_accepted_tableaux(n))))
        return n, tableau.apply_word(rows, n, draw(st.lists(st.sampled_from(gate_alphabet(n)),
                                                            max_size=5)))
    rows = st.integers(0, (1 << (2 * n + 1)) - 1)
    return n, np.array(draw(st.lists(rows, min_size=2 * n - 1, max_size=2 * n - 1)),
                       dtype=np.uint16)


@given(ball_lookups())
def test_scalar_class_key_and_distance_equal_the_vectorised_ones(case):
    """The walk's one-tableau lookup, a key built from Python ints and found
    by bisection, agrees with _class_keys and _Ball.distance."""
    n, rows = case
    ball = _ball(n)
    key = _class_key(rows.tolist(), n, memoryview(ball.signs))
    assert key == int(_class_keys(rows[None], n, ball.signs)[0])
    assert ball.scalar_distance()(rows.tolist()) == int(ball.distance(rows[None])[0])


def _dead_ends(level, links, n):
    """The tableaux at the least distance of a level that meets the ball,
    after its first, whose first downhill child in canonical order has no
    canonical completion: every shortest word from it breaks the order."""
    ball, tables, follows = _ball(n), _row_tables(n), _follows(n)
    dist = ball.distance(level)
    least = int(dist.min())
    dead = []
    for i in np.flatnonzero(dist == least)[1:]:
        kids = tables[:, level[i]]
        downhill = follows[links[-1][1][i] + 1] & (ball.distance(kids) == least - 1)
        gate = int(np.argmax(downhill))
        words = _canonical_words(n, least - 1)
        if least > 1:
            words = words[follows[gate + 1][words[:, 0]]]
        images = np.broadcast_to(kids[gate], (len(words), 2 * n - 1))
        for column in words.T:
            images = tables[column[:, None], images]
        if downhill.any() and not tableau.accepts(images, n).any():
            dead.append(int(i))
    return dead


@pytest.mark.parametrize("accepted, scramble, word", [
    (7, [Hadamard(1), Hadamard(4), ControlledNot(4, 1), Hadamard(2)],
     [Hadamard(1), Hadamard(2), Hadamard(4), ControlledNot(1, 4)]),
    (63, [ControlledNot(4, 3), ControlledNot(1, 2), ControlledNot(4, 1), Hadamard(3)],
     [Hadamard(3), ControlledNot(4, 1), ControlledNot(1, 2), ControlledNot(4, 3)]),
])
def test_the_walk_passes_over_meeting_tableaux_that_dead_end(accepted, scramble, word):
    """From these scrambled n=4 roots the level that meets the ball holds a
    later tableau at the least distance whose first downhill child has no
    canonical completion, where a depth-first descent would backtrack.  The
    walk descends from the first one only and returns the word of the walk
    without the ball."""
    n = 4
    task = _Task(n, n, AuxValue.ZERO, None)
    task.root = tableau.apply_word(_accepted_tableaux(n)[accepted], n, scramble)
    steps, step = [], task._step

    def recorded(level, links, left, keep):
        steps.append((step(level, links, left, keep), links))
        return steps[-1][0]

    task._step = recorded
    assert task.search(_DEPTH_HORIZON[n]) == word
    assert _dead_ends(*steps[-1], n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_module, "_BALL_CHANNELS", 0)
        assert task.search(_DEPTH_HORIZON[n]) == word


def test_shallow_solves_build_only_the_n3_ball():
    """The benchmark's warm-ups, one n=3 solve and an in-process n=3
    solve-bob, build the n=3 ball that fixes their decoders' lengths (5,760
    keys, under 64 KiB kept and 512 KiB at the peak of its build), never
    the n=4 one."""
    _row_tables(3)  # numpy's first-call allocations, outside the measurement
    _ball.cache_clear()
    tracemalloc.start()
    try:
        ball = _ball(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ball.keys) == 5760 and peak <= 512 << 10
    assert ball.keys.nbytes + ball.dist.nbytes + ball.signs.nbytes <= 64 << 10
    _ball.cache_clear()
    assert solve_bob_program(3, 2, AuxValue.PLUS, 10) == [ControlledNot(1, 3), ControlledNot(2, 3)]
    for aux in range(1, 4):
        for value in AuxValue:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["solve-bob", "--channels", "3", "--aux-channel", str(aux),
                                 "--aux-value", value.value]) == 0
    assert _ball.cache_info().currsize == 1
    _ball(3)  # a hit: the one ball built is the n=3 one
    assert _ball.cache_info().currsize == 1


def test_ball_build_memory_is_bounded():
    """Building the n=4 ball allocates at most 4 MiB at its peak, and it
    keeps at most 2 MiB (keys, distances and the table of product signs)."""
    _ball(3)  # numpy's first-call allocations, outside the measurement
    _row_tables(4)
    _ball.cache_clear()
    tracemalloc.start()
    try:
        ball = _ball(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20
    assert ball.keys.nbytes + ball.dist.nbytes + ball.signs.nbytes <= 2 << 20
