"""Decoder-program search: correctness, determinism, canonical order."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from itertools import combinations, permutations, product
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
    CANONICAL_AUX_CHANNEL,
    SCENARIO_FIGURES,
    AuxValue,
    MessageOut,
    ResidueOut,
    alice_encoder,
    bob_prefix,
    builtin_scenario,
    canonical_case,
    input_layout,
    layout_rows,
    relocated_case,
    swap_circuit,
    verify_circuit_action_equal,
)
from intraport.qsim import (
    ControlledNot,
    Hadamard,
    PureState,
    QUBIT_ONE,
    QUBIT_ZERO,
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
    _FIRST_LOOKUP,
    _Task,
    _ball,
    _ball_walk,
    _canon,
    _class_keys,
    _distances,
    _follows,
    _registered_extension,
    _row_places,
    _root,
    _root_key,
    _word_table,
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
    """golden/search_results.json pins 431 more calls (null for a miss):
    every n=3 and n=4 case at max_gates 0..10, target mode for
    figures 1-3 over every auxiliary channel and value at max_gates 6 and
    10, n=5 and n=6 at max_gates 0..3, (5,5,zero,12), (6,1,plus,10),
    (6,6,plus,10), and at max_gates 10 the 12 n=5 cases off the canonical
    channel and (5,5,plus), which the n=5 horizon of 7 answers."""
    for case, program, pinned in _solve_pinned("search_results.json"):
        assert program == pinned, case


def test_pinned_n5_decoders_decode():
    """Each pinned n=5 word at max_gates 10 decodes, by the tableau core and
    by the dense oracle; only (5, aux 1, one) and (5, aux 1, plus), whose
    least decoders have 8 gates, stay misses."""
    path = Path(__file__).parent / "golden" / "search_results.json"
    pins = [case for case in json.loads(path.read_text(encoding="utf-8"))
            if case["channels"] == 5 and case["max_gates"] == 10]
    assert len(pins) == 13
    misses = set()
    for case in pins:
        aux, value = case["aux_channel"], AuxValue(case["aux_value"])
        if case["program"] is None:
            misses.add((aux, value))
            continue
        word = list(parse_circuit("\n".join(["channels 5"] + case["program"])).gates)
        assert len(word) <= _DEPTH_HORIZON[5]
        gates = alice_encoder(5) + bob_prefix(5) + word
        messages = [c for c in range(1, 6) if c != aux]
        rows = tableau.apply_word(layout_rows(5, input_layout(messages, aux, value)), 5, gates)
        assert tableau.accepts(rows[None], 5, None)[0], case
        assert decoder_layout_oracle(5, aux, value.qubit.as_array(), gates) is not None, case
    assert misses == {(1, AuxValue.ONE), (1, AuxValue.PLUS)}


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


def test_root_holds_the_auxiliary_stabilizer_and_the_message_rows():
    """The root is +Z, -Z or +X on the auxiliary channel for |0>, |1> and
    |+>, then X_c and Z_c of each message channel c, mapped through the
    encoder and the prefix."""
    for n in range(3, 7):
        for aux in range(1, n + 1):
            messages = [c for c in range(1, n + 1) if c != aux]
            rows = [1 << (c - 1) for c in messages] + [1 << (n + c - 1) for c in messages]
            for value, x, z, sign in ((AuxValue.ZERO, 0, 1, 0), (AuxValue.ONE, 0, 1, 1),
                                      (AuxValue.PLUS, 1, 0, 0)):
                s = (x << (aux - 1)) | (z << (n + aux - 1)) | (sign << (2 * n))
                expected = tableau.apply_word(np.array([s] + rows), n,
                                              alice_encoder(n) + bob_prefix(n))
                assert _root(n, aux, value).tolist() == expected.tolist()


@pytest.mark.parametrize("target", [
    lambda: {1: MessageOut(1), 2: None, 3: MessageOut(0)},
    lambda: {1: MessageOut(1), 2: ResidueOut(QUBIT_ZERO), 3: ResidueOut(QUBIT_ZERO)},
    lambda: {1: MessageOut(1), 2: ResidueOut(QUBIT_ZERO), 3: MessageOut("0")},
    lambda: {1: MessageOut(1), 2: ResidueOut(QUBIT_ZERO), 3: MessageOut(1)},
    lambda: builtin_scenario(6).expected_layout,
], ids=["none-entry", "two-residues", "string-index", "missing-message", "block"])
def test_search_refuses_a_malformed_target(target):
    """A target that does not hold one residue and each message once is
    refused as InvalidInput before any walk (a string index already by
    MessageOut, so each target is built inside the check), and so is one
    with a block word, which the bound h does not cover."""
    with pytest.raises(InvalidInput):
        solve_bob_program(3, 2, AuxValue.ZERO, 6, target=target())


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_unreachable_targets_return_none_before_any_walk(n):
    """A residue whose row has an odd Y count (|+i>), or whose row is 0 (a
    residue that is not a stabilizer state), lies beyond every H and CNOT
    word, so the solve builds no task, not even for the registered
    fallback; a reachable residue (|0> or |1>, whose sign bit lands on
    channel 1's z bit when the row is shifted) still does."""
    def target(q):
        return {1: ResidueOut(q), **{ch: MessageOut(ch - 2) for ch in range(2, n + 1)}}

    def no_task(*args):
        raise AssertionError("a task was built")

    plus_i = SingleQubit(2**-0.5, 1j * 2**-0.5)
    tilted = SingleQubit(np.cos(0.3), np.sin(0.3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Task, "__init__", no_task)
        for q in (plus_i, tilted):
            for value in AuxValue:
                assert solve_bob_program(n, n, value, 14, target=target(q)) is None
        for q in (QUBIT_ZERO, QUBIT_ONE):
            with pytest.raises(AssertionError, match="a task was built"):
                solve_bob_program(n, n, AuxValue.ZERO, 14, target=target(q))


@pytest.mark.parametrize("wrong", [{"aux_value": "zero"}, {"max_gates": 3.5},
                                   {"max_gates": True}, {"aux_channel": 2.0},
                                   {"aux_channel": True}, {"channel_count": 4.0},
                                   {"channel_count": True}])
def test_search_refuses_arguments_of_the_wrong_type(wrong):
    """A non-AuxValue value, a float or a bool is refused before any walk,
    as InvalidInput; out-of-range integers keep their own errors above."""
    args = {"channel_count": 3, "aux_channel": 2, "aux_value": AuxValue.ZERO, "max_gates": 6}
    with pytest.raises(InvalidInput):
        solve_bob_program(**{**args, **wrong})


def test_numpy_integer_arguments_solve_as_python_ints():
    """numpy integers are taken as the Python ints they equal.  In a fresh
    process, so that no cache holds the int cases yet, each numpy call
    (first) gives the same word as the int call; a numpy channel count
    used to key the caches apart and reach the uint16 tables as int64."""
    script = (
        "import numpy as np\n"
        "from intraport import AuxValue, solve_bob_program\n"
        "for args in [(3, 2, AuxValue.ZERO), (4, 3, AuxValue.ONE, 6),\n"
        "             (5, 5, AuxValue.ZERO, 3)]:\n"
        "    wide = [np.int64(a) if type(a) is int else a for a in args]\n"
        "    print(solve_bob_program(*wide) == solve_bob_program(*args))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True"] * 3


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
    rows = tableau.apply_word(layout_rows(n, input_layout(messages, aux, value)), n, gates)

    def decodes(target=None):
        return tableau.accepts(rows[None], n, None if target is None else layout_rows(n, target))[0]

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
    for image in tableau.row_tables(n):
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
    images = d[tableau.row_tables(n)]  # (g, rows): d of each row's image by each gate
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
    canonical ones among them) and every figure."""
    for n in range(3, 7):
        for aux in range(1, n + 1):
            for value in AuxValue:
                yield relocated_case(n, aux, value)
    for figure in SCENARIO_FIGURES:
        yield builtin_scenario(figure)


def test_lower_bound_holds_along_every_registered_decoder():
    """h never exceeds the gates left, on every prefix of every registered
    decoder with a product output, and every whole decoder reaches exactly
    its layout, figure 6's block included (h bounds the gates to a product
    output only).  Relocated programs do not start with bob_prefix, so each
    walk starts from the encoder's image."""
    checks = 0
    for case in _registered_decoders():
        n, layout = case.channel_count, case.expected_layout
        task = _Task(n, case.aux_channel, case.aux_value, layout)
        rows = tableau.apply_word(task.root, n, list(reversed(bob_prefix(n))))
        program = list(case.bob_program)
        for k, gate in enumerate(program + [None]):
            if not layout.block:
                assert task.lower_bound(rows[None])[0] <= len(program) - k, (case.case_id, k)
                checks += 1
            if gate is not None:
                rows = tableau.conjugate(rows, n, gate)
        assert task.accepts(rows[None])[0], case.case_id
        assert tableau.accepts(rows[None], n)[0] == (not layout.block), case.case_id
    assert checks == 1565


def test_root_bound_settles_the_n6_horizon_walks():
    for aux in (1, 6):
        task = _Task(6, aux, AuxValue.PLUS, None)
        assert task.lower_bound(task.root[None])[0] == 5
        assert task._general_walk(4) is None


@pytest.mark.parametrize("aux", [1, 6])
def test_no_n6_plus_decoder_has_seven_gates_or_fewer(aux):
    """Past the n=6 horizon of 4 gates, the walk to 7 proves that no
    extension of 7 gates or fewer decodes (6, aux, plus); it takes about a
    second.  The registered n=6 decoders have 9-10 gates."""
    assert _Task(6, aux, AuxValue.PLUS, None)._general_walk(7) is None


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
    assert task._general_walk(registered - 1) is None
    if registered == 7:
        word = task._general_walk(7)
        assert word is not None and len(word) == 7
        assert decoder_layout_oracle(5, 5, value.qubit.as_array(),
                                     alice_encoder(5) + bob_prefix(5) + word) is not None


@pytest.mark.slow
@pytest.mark.parametrize("value", [AuxValue.ZERO, AuxValue.ONE])
def test_n5_aux5_eight_gate_walks_find_a_decoder(value):
    """The 8-gate walks for (5, aux 5, zero) and (5, aux 5, one) find a
    decoder of the registered length, and the dense oracle agrees; so the
    registered 8-gate decoders are minimal and not unique."""
    word = _Task(5, 5, value, None)._general_walk(8)
    assert word is not None and len(word) == 8
    assert decoder_layout_oracle(5, 5, value.qubit.as_array(),
                                 alice_encoder(5) + bob_prefix(5) + word) is not None


@pytest.mark.parametrize("n", [3, 4])
def test_pack_equals_the_shift_and_or_of_its_rows(n):
    """The matrix product with _row_places that _class_keys uses equals
    shifting each row to its place and OR-ing, for random rows and for rows
    with every bit set (63 bits at n=4), with one row fewer (the message
    rows of a class key) or all."""
    bits = 2 * n + 1
    rows = np.random.default_rng(n).integers(0, 1 << bits, size=(500, 2 * n - 1))
    rows = np.vstack([rows, np.full((1, 2 * n - 1), (1 << bits) - 1)]).astype(np.uint16)
    for r in (2 * n - 2, 2 * n - 1):
        expected = np.zeros(len(rows), dtype=np.uint64)
        for i in range(r):
            expected |= rows[:, i].astype(np.uint64) << np.uint64(bits * i)
        assert np.array_equal(rows[:, :r].astype(np.uint64) @ _row_places(n, r), expected)


def _accepted_tableaux(n):
    """(6 n!, 2n-1): every accepted tableau whose message rows are +X_p and
    +Z_p, message j on channel perm[j-1] and a signed X, Y or Z residue on
    perm[n-1]."""
    return np.array([tableau.input_rows(n, tableau.pauli(n, perm[-1], x, z, sign), perm[:-1])
                     for perm in permutations(range(1, n + 1))
                     for x, z in ((1, 0), (1, 1), (0, 1)) for sign in (0, 1)], dtype=np.uint16)


def _unpack(keys, n):
    """(K, 2n-1) uint16: a tableau of each class key, S' and then each
    message row as the key holds it, which lies in the key's class."""
    bits = 2 * n + 1
    rows = keys[:, None] >> np.arange(0, (2 * n - 1) * bits, bits, dtype=np.uint64)
    return (rows & np.uint64((1 << bits) - 1)).astype(np.uint16)


@pytest.mark.parametrize("n, sizes", [(3, [36, 252, 1224, 4248]),
                                      (4, [144, 1944, 17496, 120120])])
def test_ball_distance_zero_is_exactly_acceptance(n, sizes):
    """A key is at distance 0 iff tableau.accepts accepts its tableau, and
    the accepted classes are the 6 n! of every channel arrangement."""
    ball = _ball(n)
    dist = ball.distance_of(ball.steps)
    assert np.array_equal(np.bincount(dist), sizes)
    assert np.all(ball.keys[1:] > ball.keys[:-1])
    assert np.array_equal(dist == 0, tableau.accepts(_unpack(ball.keys, n), n))
    accepted = _class_keys(_accepted_tableaux(n), n)
    assert np.array_equal(np.sort(accepted), ball.keys[dist == 0])


@pytest.mark.parametrize("n", [3, 4])
def test_ball_distances_are_exact(n):
    """One gate changes a key's distance by at most one (an image outside
    the ball comes only from its rim), and every key at k > 0 has a gate
    image at k - 1.  With distance 0 exactly on acceptance, the first
    gives at most the true distance and completeness, the second at least
    it, as for the per-row distances."""
    ball = _ball(n)
    rows, d = _unpack(ball.keys, n), ball.distance_of(ball.steps).astype(int)
    best = np.full(len(d), _BALL_RADIUS + 1)
    for table in tableau.row_tables(n):
        image = ball.distance_of(ball.lookup(table[rows])).astype(int)
        assert np.abs(image - d).max() <= 1
        best = np.minimum(best, image)
    assert np.all((d == 0) | (best == d - 1))


@pytest.mark.parametrize("n", [3, 4])
def test_ball_stores_each_keys_first_downhill_gate(n):
    """Every key stores a least completion of exactly d gates.  At d > 0 it
    starts with the least alphabet gate whose image _Ball.lookup puts at
    d - 1 and continues with the completion stored for that image's key,
    and following it from the key's tableau reaches one that
    tableau.accepts accepts in exactly d steps."""
    ball, tables = _ball(n), tableau.row_tables(n)
    rows, d = _unpack(ball.keys, n), ball.distance_of(ball.steps).astype(int)
    completions = [ball.completion(step) for step in ball.steps.tolist()]
    assert [len(word) for word in completions] == d.tolist()
    first = np.full(len(d), -1)
    for gate in reversed(range(len(tables))):
        first[ball.distance_of(ball.lookup(tables[gate][rows])) == d - 1] = gate
    gates = np.array([word + [-1] * (_BALL_RADIUS - len(word)) for word in completions])
    assert np.array_equal(first[d > 0], gates[d > 0, 0])
    down = np.flatnonzero(d > 0)
    image = tables[first[down][:, None], rows[down]]
    at = ball.keys.searchsorted(_class_keys(image, n))
    assert np.array_equal(ball.keys[at], _class_keys(image, n))
    assert all(completions[i][1:] == completions[j] for i, j in zip(down, at))
    for step, column in enumerate(gates.T):
        assert np.array_equal(tableau.accepts(rows, n), d <= step)
        live = d > step
        rows[live] = tables[column[live][:, None], rows[live]]
    assert np.all(tableau.accepts(rows, n))


@pytest.mark.parametrize("n", [3, 4])
def test_class_key_ignores_message_rows_times_s(n):
    """Multiplying any message row by S' (in either order; they commute)
    leaves the key of every tableau in the ball unchanged."""
    ball = _ball(n)
    rows = _unpack(ball.keys, n)
    for j in range(1, 2 * n - 1):
        other = rows.copy()
        other[:, j] = tableau.multiply(rows[:, 0], rows[:, j], n)
        assert np.array_equal(_class_keys(other, n), ball.keys)


@pytest.mark.parametrize("n", [3, 4])
def test_ball_distances_are_kept_by_every_channel_swap(n):
    """Swapping two channels by three CNOTs relabels every row, maps the
    alphabet onto itself and accepted classes onto accepted ones, so the
    swapped tableau of every key looks up at that key's distance."""
    ball = _ball(n)
    rows = _unpack(ball.keys, n)
    for a, b in combinations(range(1, n + 1), 2):
        swapped = tableau.apply_word(rows, n, swap_circuit(a, b))
        assert np.array_equal(ball.distance_of(ball.lookup(swapped)),
                              ball.distance_of(ball.steps))


@st.composite
def scrambled_roots(draw, most=None):
    """(n, rows): an accepted tableau at n=3 or n=4 with up to `most` (by
    default 7 or 6) random alphabet gates applied."""
    n = draw(st.integers(3, 4))
    rows = draw(st.sampled_from(list(_accepted_tableaux(n))))
    for gate in draw(st.lists(st.sampled_from(gate_alphabet(n)), max_size=most or 10 - n)):
        rows = tableau.conjugate(rows, n, gate)
    return n, rows


def _walk(n, rows, depth):
    """The ball walk from the tableau `rows`, with its class key."""
    return _ball_walk(n, rows, int(_class_keys(rows[None], n)[0]), depth)


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
        found = _walk(n, rows, depth)
        assert task._general_walk(depth) == found, depth
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


def _images(n, rows, words):
    """(W, 2n-1): the tableau `rows` mapped through each of the (W, k)
    words of alphabet indices, in order."""
    tables = tableau.row_tables(n)
    images = np.broadcast_to(rows, (len(words), 2 * n - 1))
    for column in words.T:
        images = tables[column[:, None], images]
    return images


def _least_decoders(n, rows, most):
    """Per length 0..most, the least canonical word of that length that the
    tableau test accepts from `rows`, or None: every word is applied."""
    gates, least = gate_alphabet(n), []
    for length in range(most + 1):
        words = _canonical_words(n, length)
        hit = np.flatnonzero(tableau.accepts(_images(n, rows, words), n))
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
        assert _walk(n, rows, depth) == expected, depth
        assert task._general_walk(depth) == expected, depth


@st.composite
def ball_lookups(draw, n):
    """A tableau at n=3 or n=4: an accepted one scrambled by up to 5 gates,
    so inside the ball or outside it, or arbitrary rows with any sign
    bits."""
    if draw(st.booleans()):
        rows = draw(st.sampled_from(list(_accepted_tableaux(n))))
        return tableau.apply_word(rows, n, draw(st.lists(st.sampled_from(gate_alphabet(n)),
                                                         max_size=5)))
    rows = st.integers(0, (1 << (2 * n + 1)) - 1)
    return np.array(draw(st.lists(rows, min_size=2 * n - 1, max_size=2 * n - 1)),
                    dtype=np.uint16)


@given(st.data())
def test_scalar_class_key_and_distance_equal_the_vectorised_ones(data):
    """The walk's one-tableau lookup, a class key from _class_keys found by
    bisection, agrees with _Ball.lookup in the whole step, distance and
    completion."""
    n = data.draw(st.integers(3, 4))
    rows = data.draw(ball_lookups(n))
    ball = _ball(n)
    key = int(_class_keys(rows[None], n)[0])
    assert ball.step_of(key) == int(ball.lookup(rows[None])[0])


@st.composite
def signed_tableaux(draw):
    """(n, rows): a batch of 1 to 8 tableaux at n=3 or n=4 whose rows are
    any packed Paulis, signs included, commuting with S' or not."""
    n = draw(st.integers(3, 4))
    row = st.integers(0, (1 << (2 * n + 1)) - 1)
    tableaux = st.lists(row, min_size=2 * n - 1, max_size=2 * n - 1)
    return n, np.array(draw(st.lists(tableaux, min_size=1, max_size=8)), dtype=np.uint16)


@given(signed_tableaux())
def test_class_keys_from_the_table_follow_their_definition(case):
    """_class_keys reads each message row's part of the key from _canon; it
    equals the arithmetic key: S', then for each message row the smaller of
    row and tableau.multiply(row, S') at its place."""
    n, rows = case
    width = 2 * n + 1
    expected = []
    for tab in rows.tolist():
        s, key = tab[0], tab[0]
        for i, row in enumerate(tab[1:], 1):
            key |= min(row, int(tableau.multiply(row, s, n))) << (i * width)
        expected.append(key)
    assert _class_keys(rows, n).tolist() == expected


def test_the_class_key_table_stops_at_the_ball_channels():
    """_canon is read-only, 2^(4n+2) entries (32 KiB at n=3, 512 KiB at
    n=4), and refuses n=5, where it would take 8 MiB."""
    for n, size in ((3, 32 << 10), (4, 512 << 10)):
        assert _canon(n).nbytes == size and not _canon(n).flags.writeable
    with pytest.raises(UnsupportedSize):
        _canon(5)


@contextlib.contextmanager
def _recorded_lookups(name="lookup"):
    """A list that gains the rows of every call of the _Ball method `name`
    made inside."""
    calls, lookup = [], getattr(search_module._Ball, name)

    def recorded(ball, rows):
        calls.append(rows.copy() if isinstance(rows, np.ndarray) else rows)
        return lookup(ball, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_module._Ball, name, recorded)
        yield calls


@contextlib.contextmanager
def _recorded_gathers(n):
    """A list that gains the number of tableaux of every gather from the
    row tables of n channels made inside."""
    gathers = []

    class Recording(np.ndarray):
        def take(self, indices, *args, **kwargs):
            gathers.append(len(indices))
            return np.asarray(self).take(indices, *args, **kwargs)

    tables, row_tables = tableau.row_tables(n).view(Recording), tableau.row_tables
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tableau, "row_tables", lambda m: tables if m == n else row_tables(m))
        yield gathers


def _stream_hit(n, chunks):
    """(k, i, at): the level, the index in it and the stream position of the
    first tableau in the ball among one ball walk's looked-up chunks."""
    ball = _ball(n)
    at = int(np.argmax(ball.distance_of(ball.lookup(np.concatenate(chunks))) <= _BALL_RADIUS))
    i = at
    for k, level in enumerate(_word_table(n), 1):
        if i < len(level.words):
            return k, i, at
        i -= len(level.words)
    raise AssertionError("the stream holds no tableau in the ball")


def _dead_ends(level, last_gates, n):
    """The tableaux at the least distance of a level that meets the ball,
    after its first, whose first downhill child in canonical order has no
    canonical completion: every shortest word from it breaks the order.
    last_gates holds the last gate of each tableau's word."""
    ball, tables, follows = _ball(n), tableau.row_tables(n), _follows(n)
    dist = ball.distance_of(ball.lookup(level))
    least = int(dist.min())
    dead = []
    for i in np.flatnonzero(dist == least)[1:]:
        kids = tables[:, level[i]]
        image = ball.distance_of(ball.lookup(kids))
        downhill = follows[last_gates[i] + 1] & (image == least - 1)
        gate = int(np.argmax(downhill))
        words = _canonical_words(n, least - 1)
        if least > 1:
            words = words[follows[gate + 1][words[:, 0]]]
        if downhill.any() and not tableau.accepts(_images(n, kids[gate], words), n).any():
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
    walk completes the first one only and returns the word of the walk
    without the ball."""
    n = 4
    task = _Task(n, n, AuxValue.ZERO, None)
    task.root = tableau.apply_word(_accepted_tableaux(n)[accepted], n, scramble)
    with _recorded_lookups() as chunks:
        assert _walk(n, task.root, _DEPTH_HORIZON[n]) == word
    meeting = _word_table(n)[_stream_hit(n, chunks)[0] - 1]
    assert _dead_ends(_images(n, task.root, meeting.words), meeting.words[:, -1], n)
    assert task._general_walk(_DEPTH_HORIZON[n]) == word


@pytest.mark.parametrize("n", [3, 4])
def test_word_table_lists_every_canonical_word_in_order(n):
    """Level k of the word table holds every canonical word of k gates in
    lexicographic order, k = 1..horizon - R, each with the index of its
    prefix in level k - 1 and its last gate's place in the flat row tables;
    its arrays are read-only, and both tables take under 128 KiB."""
    levels = _word_table(n)
    assert len(levels) == _DEPTH_HORIZON[n] - _BALL_RADIUS
    prefixes = np.zeros((1, 0), dtype=np.uint8)
    for k, level in enumerate(levels, 1):
        assert np.array_equal(level.words, _canonical_words(n, k))
        assert np.array_equal(prefixes[level.parent], level.words[:, :-1])
        assert np.array_equal(level.at[:, 0], level.words[:, -1].astype(int) << (2 * n + 1))
        assert not any(table.flags.writeable for table in level)
        prefixes = level.words
    assert [len(level.words) for level in levels] == (
        [9, 57, 351, 2164] if n == 3 else [16, 174, 1792])
    tables = [table for m in (3, 4) for level in _word_table(m) for table in level]
    assert sum(table.nbytes for table in tables) < 128 << 10


def test_untargeted_n4_solves_stop_at_the_first_chunk_that_meets_the_ball():
    """After a warm-up, no untargeted n=4 solve calls _Task._step, and each
    makes one scalar lookup, of the root's key.  Outside the ball it looks
    levels 1, 2, ... of the word table up as one stream, _FIRST_LOOKUP
    tableaux and then twice as many each time, a chunk free to cross from
    one level into the next: the chunks, joined, are a prefix of the root
    mapped through every level's words, joined in word order.  The last
    chunk holds the stream's first tableau in the ball, on level L - R, and
    the walk gathers only the tableaux it looks up, so both 6-gate solves
    gather and look up fewer than the 1,792 tableaux of level 3.  A shuffled
    level 3, with repeats, looks up to the bytes of its tableaux looked up
    one at a time."""
    n, ball, levels = 4, _ball(4), _word_table(4)
    solve_bob_program(n, 1, AuxValue.ONE, 10)
    deep = []
    for aux in range(1, n + 1):
        for value in AuxValue:
            root, key = _root(n, aux, value), _root_key(n, aux, value)
            with pytest.MonkeyPatch.context() as mp, _recorded_lookups() as chunks, \
                    _recorded_lookups("step_of") as scalars, _recorded_gathers(n) as gathers:
                mp.setattr(_Task, "_step", lambda *args: pytest.fail("the ball walk stepped"))
                program = _ball_walk(n, root, key, _DEPTH_HORIZON[n])
            assert program == solve_bob_program(n, aux, value, 10)
            assert scalars == [key]
            stream = np.concatenate([_images(n, root, level.words) for level in levels])
            joined = np.concatenate(chunks) if chunks else stream[:0]
            assert np.array_equal(joined, stream[:len(joined)])
            sizes = [_FIRST_LOOKUP << i for i in range(len(chunks))]
            assert [len(chunk) for chunk in chunks[:-1]] == sizes[:-1]
            assert sum(gathers) == len(joined)
            if chunks:
                assert len(chunks[-1]) == min(sizes[-1], len(stream) - sum(sizes[:-1]))
                k, _, at = _stream_hit(n, chunks)
                assert at >= len(joined) - len(chunks[-1]) and k == len(program) - _BALL_RADIUS
            if len(program) == 6:
                assert k == 3 and len(joined) < 1792
                deep.append(program)
    assert len(deep) == 2
    deepest = _images(n, _root(n, 1, AuxValue.ONE), levels[2].words)
    batch = deepest[np.random.default_rng(5).integers(0, len(deepest), 3000)]
    assert ball.lookup(batch).tobytes() == b"".join(ball.lookup(row[None]).tobytes()
                                                    for row in batch)


_CASES_N3_N4 = [(n, aux, value) for n in (3, 4) for aux in range(1, n + 1) for value in AuxValue]


def test_untargeted_n3_and_n4_solves_build_no_task_and_key_each_root_once():
    """An untargeted solve at n <= 4 looks its case's root up in the ball by
    a class key computed once per (n, aux channel, value), and builds no
    _Task: solving all 21 cases twice computes 21 keys."""
    _root_key.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Task, "__init__", lambda *args: pytest.fail("an untargeted solve built a task"))
        first = [solve_bob_program(*case, 10) for case in _CASES_N3_N4]
        assert [solve_bob_program(*case, 10) for case in _CASES_N3_N4] == first
    assert len(_CASES_N3_N4) == 21 and None not in first
    assert _root_key.cache_info().misses == 21


def test_untargeted_n3_and_n4_solves_past_the_goldens_equal_those_at_10():
    """The goldens stop at max_gates 10; every n <= 4 case is solved within
    its horizon, so at 11..14 it returns what it returns at 10."""
    for case in _CASES_N3_N4:
        at_10 = solve_bob_program(*case, 10)
        assert len(at_10) <= _DEPTH_HORIZON[case[0]]
        for max_gates in range(11, 15):
            assert solve_bob_program(*case, max_gates) == at_10


def test_an_in_ball_root_returns_none_below_its_distance():
    """A case whose root lies in the ball (every n=3 case and (4, aux 2,
    plus)) returns None when max_gates is below the root's distance, and
    its stored completion, a word of that many gates, from there on."""
    inside = 0
    for n, aux, value in _CASES_N3_N4:
        ball = _ball(n)
        distance = ball.distance_of(ball.step_of(_root_key(n, aux, value)))
        if distance <= _BALL_RADIUS:
            inside += 1
            for max_gates in range(distance):
                assert solve_bob_program(n, aux, value, max_gates) is None
            word = solve_bob_program(n, aux, value, distance)
            assert len(word) == distance and solve_bob_program(n, aux, value, 10) == word
    assert inside == 10


@settings(max_examples=60)
@given(st.data())
def test_a_batch_looks_up_as_its_tableaux_one_at_a_time(data):
    """_Ball.lookup sorts a batch's keys before searching the ball (at
    256-1,024 keys, the chunks a walk looks up, it pays only when the
    ball's keys are out of cache) and puts each answer back in its place:
    any batch, in any order and with repeats, gives the bytes of its
    tableaux looked up one at a time."""
    n = data.draw(st.integers(3, 4))
    rows = data.draw(st.lists(ball_lookups(n), min_size=1, max_size=16))
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=48))
    batch, ball = np.array([rows[i] for i in picks]), _ball(n)
    assert ball.lookup(batch).tobytes() == b"".join(ball.lookup(row[None]).tobytes()
                                                    for row in batch)


def test_shallow_solves_build_only_the_n3_ball():
    """The benchmark's warm-ups, one n=3 solve and an in-process n=3
    solve-bob, build the n=3 ball that fixes their decoders' lengths (5,760
    keys and their steps, under 64 KiB kept, with a 32 KiB class-key table;
    under 512 KiB at the peak of both builds), never the n=4 one."""
    tableau.row_tables(3)  # numpy's first-call allocations, outside the measurement
    _ball.cache_clear()
    _canon.cache_clear()
    tracemalloc.start()
    try:
        ball = _ball(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ball.keys) == 5760 and peak <= 512 << 10
    assert ball.keys.nbytes + ball.steps.nbytes <= 64 << 10
    assert _canon(3).nbytes == 32 << 10
    _ball.cache_clear()
    _canon.cache_clear()
    assert solve_bob_program(3, 2, AuxValue.PLUS, 10) == [ControlledNot(1, 3), ControlledNot(2, 3)]
    for aux in range(1, 4):
        for value in AuxValue:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["solve-bob", "--channels", "3", "--aux-channel", str(aux),
                                 "--aux-value", value.value]) == 0
    assert _ball.cache_info().currsize == 1 and _canon.cache_info().currsize == 1
    _ball(3)  # a hit: the one ball built is the n=3 one
    _canon(3)
    assert _ball.cache_info().currsize == 1 and _canon.cache_info().currsize == 1


def test_ball_build_memory_is_bounded():
    """Building the n=4 ball and its class-key table allocates at most 4 MiB
    at its peak, and they keep at most 2 MiB (keys, steps and the table)."""
    _ball(3)  # numpy's first-call allocations, outside the measurement
    tableau.row_tables(4)
    _ball.cache_clear()
    _canon.cache_clear()
    tracemalloc.start()
    try:
        ball = _ball(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20
    assert ball.keys.nbytes + ball.steps.nbytes + _canon(4).nbytes <= 2 << 20


def test_row_table_verify_agrees_with_apply_word():
    """_Task.verify maps the root through the row tables.  On every
    registered decoder at n=3..6 (the relocated cases, the canonical ones
    among them) and on each of its one-gate-dropped mutants, it agrees with
    tableau.accepts of tableau.apply_word, without a target and with the
    case's layout.  Relocated programs do not start with bob_prefix, so each
    word first undoes it."""
    verdicts = []
    for n in range(3, 7):
        for aux in range(1, n + 1):
            for value in AuxValue:
                case = relocated_case(n, aux, value)
                ext = list(reversed(bob_prefix(n))) + list(case.bob_program)
                for target in (None, case.expected_layout):
                    task = _Task(n, aux, value, target)
                    assert task.verify(ext)
                    for i in range(len(ext)):
                        mutant = ext[:i] + ext[i + 1:]
                        rows = tableau.apply_word(task.root, n, mutant)[None]
                        verdicts.append(task.verify(mutant))
                        assert verdicts[-1] == tableau.accepts(rows, n, task.target)[0]
    assert not all(verdicts)


def test_an_n6_fallback_solve_verifies_its_word_once():
    """Past the n=6 horizon on the canonical channel, each solve checks the
    registered decoder with exactly one _Task.verify call; nothing is
    remembered between solves."""
    calls, verify = [], _Task.verify

    def counted(task, ext):
        calls.append(list(ext))
        return verify(task, ext)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Task, "verify", counted)
        programs = [solve_bob_program(6, 6, AuxValue.PLUS, 10) for _ in range(2)]
    assert len(programs[0]) == 9 and calls == programs
    assert programs[0] == list(canonical_case(6, AuxValue.PLUS).bob_program[len(bob_prefix(6)):])


def test_every_fallback_word_verifies():
    """The fallback word on the canonical channel decodes for every n=3..6
    and value: it is the registered program after the receiver prefix where
    the program starts with it, and otherwise (n=4, whose programs undo no
    prefix) the prefix undone and then the program."""
    for n in range(3, 7):
        prefix = bob_prefix(n)
        for value in AuxValue:
            program, ext = canonical_case(n, value).bob_program, _registered_extension(n, value)
            assert _Task(n, CANONICAL_AUX_CHANNEL[n], value, None).verify(list(ext))
            if n == 4:
                assert list(program[:len(prefix)]) != prefix
                assert list(ext) == prefix[::-1] + list(program)
            else:
                assert ext == program[len(prefix):]
