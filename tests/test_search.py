"""Decoder-program search: correctness, determinism, canonical order."""

import json
from pathlib import Path

import numpy as np
import pytest

from intraport.circuit import Circuit, parse_circuit
from intraport.errors import ChannelOutOfRange, InvalidInput, UnsupportedSize
from intraport.protocol import (
    AuxValue,
    alice_encoder,
    bob_prefix,
    builtin_scenario,
    verify_circuit_action_equal,
)
from intraport.qsim import (
    ControlledNot,
    Hadamard,
    PureState,
    _apply_gates,
    factor_all,
    fidelity,
    make_state,
    random_qubit,
)
from intraport.search import gate_alphabet, solve_bob_program


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


def test_search_returns_pinned_least_words():
    """Exact words pinned in golden/search_programs.json: a traversal that
    returns any other word of the same length fails here."""
    path = Path(__file__).parent / "golden" / "search_programs.json"
    for case in json.loads(path.read_text(encoding="utf-8")):
        n = case["channels"]
        target = (None if case["target_figure"] is None
                  else builtin_scenario(case["target_figure"]).claimed_outputs)
        program = solve_bob_program(n, case["aux_channel"], AuxValue(case["aux_value"]),
                                    case["max_gates"], target=target)
        pinned = parse_circuit("\n".join([f"channels {n}"] + case["program"])).gates
        assert program is not None and tuple(program) == pinned, case


def test_search_is_deterministic():
    first = solve_bob_program(3, 2, AuxValue.ONE, 6)
    second = solve_bob_program(3, 2, AuxValue.ONE, 6)
    assert first == second


def test_constrained_search_reproduces_figure_decoders():
    for fig, value in ((2, AuxValue.ZERO), (3, AuxValue.ONE)):
        scenario = builtin_scenario(fig)
        program = solve_bob_program(3, 2, value, 6, target=scenario.claimed_outputs)
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
