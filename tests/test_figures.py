"""Bundled figure circuits: frozen gate counts, bit-exact serialization,
scenario conformance, and the documented fig1 correction."""

import json
from importlib import resources

import numpy as np
import pytest

from intraport.circuit import parse_circuit, serialize_circuit
from intraport.errors import UnknownScenario
from intraport.protocol import (
    SCENARIO_FIGURES,
    builtin_scenario,
    figure_circuit,
    layout_states,
    message_batch,
    run_scenario,
)
from intraport.qsim import (
    QUBIT_MINUS10,
    ControlledNot,
    Hadamard,
    QUBIT_ONE,
    QUBIT_PLUS,
    PureState,
    Segment,
    channel_fidelity,
    fidelity,
    make_state,
    random_qubit,
    run_circuit,
)

EXPECTED_GATE_COUNTS = {
    "fig1": 12,
    "fig1_literal": 10,
    "fig2": 10,
    "fig3": 12,
    "fig4": 12,
    "fig5": 6,
    "fig6": 12,
    "fig7": 18,
    "fig8": 17,
    "fig9": 19,
}


def figure_text(name: str) -> str:
    return (
        resources.files("intraport").joinpath("figures").joinpath(f"{name}.qc")
        .read_text(encoding="utf-8")
    )


def test_all_bundled_files_parse_with_frozen_gate_counts():
    for name, count in EXPECTED_GATE_COUNTS.items():
        circuit = parse_circuit(figure_text(name))
        assert len(circuit.gates) == count, name


def test_bundled_files_are_bit_exact_canonical():
    for name in EXPECTED_GATE_COUNTS:
        text = figure_text(name)
        assert serialize_circuit(parse_circuit(text)) == text, name


def test_scenario_figures_have_borders():
    for fig in SCENARIO_FIGURES:
        assert figure_circuit(fig).border_index is not None
    assert figure_circuit(5).border_index is None


def test_builtin_scenario_rejects_non_scenarios():
    with pytest.raises(UnknownScenario):
        builtin_scenario(5)
    with pytest.raises(UnknownScenario):
        builtin_scenario(10)


def test_scenario_claims_match_quoted_outputs():
    # Figure 1 returns the first message on channel 2
    sc = builtin_scenario(1)
    assert sc.expected_layout[2].index == 0
    # Figure 3 leaves (|1>-|0>)/sqrt2 on the auxiliary channel
    res = builtin_scenario(3).expected_layout[2].state
    assert fidelity(make_state([res]), make_state([QUBIT_MINUS10])) >= 1 - 1e-12
    # Figure 9's residue is |1>
    res = builtin_scenario(9).expected_layout[1].state
    assert fidelity(make_state([res]), make_state([QUBIT_ONE])) >= 1 - 1e-12


@pytest.mark.parametrize("fig", SCENARIO_FIGURES)
def test_scenario_conformance_random_messages(fig):
    rng = np.random.default_rng(100 + fig)
    sc = builtin_scenario(fig)
    for _ in range(100):
        msgs = [random_qubit(rng) for _ in sc.message_channels]
        report = run_scenario(fig, msgs)
        assert report.passed
        assert min(report.per_channel_fidelity) >= 1 - 1e-10


def test_fig1_literal_fails_conformance():
    # The uncorrected receiver segment leaves the outputs entangled; the
    # bundled fig1.qc adds cn 1 3 and a final h 3 to make the claims hold.
    literal = parse_circuit(figure_text("fig1_literal"))
    sc = builtin_scenario(1)
    rng = np.random.default_rng(55)
    failures = 0
    for _ in range(20):
        msgs = [random_qubit(rng) for _ in range(2)]
        state = PureState(3, layout_states(sc.input_layout, message_batch(msgs))[0])
        out = run_circuit(state, literal, Segment.ALL)
        fid_ch3 = channel_fidelity(out, 3, sc.expected_layout[3].state)
        if fid_ch3 < 1 - 1e-10:
            failures += 1
    assert failures == 20


def test_fig1_shares_literal_prefix():
    fig1 = figure_circuit(1)
    literal = figure_circuit("fig1_literal")
    assert fig1.alice_gates == literal.alice_gates
    assert fig1.bob_gates[:5] == literal.bob_gates[:5]


def test_builtin_scenarios_are_loaded_from_the_manifest():
    doc = json.loads(
        resources.files("intraport").joinpath("figures").joinpath("manifest.json")
        .read_text(encoding="utf-8")
    )
    assert doc["version"] == 1
    assert SCENARIO_FIGURES == (1, 2, 3, 4, 6, 7, 8, 9)
    entries = {e["id"]: e for e in doc["figures"]}
    assert set(entries) == set(SCENARIO_FIGURES)
    for fig in SCENARIO_FIGURES:
        sc = builtin_scenario(fig)
        entry = entries[fig]
        assert entry["file"] == f"fig{fig}.qc"
        assert sc.figure_id == fig and sc.circuit == figure_circuit(fig)
        roles = {r["channel"]: r for r in entry["roles"]}
        assert set(roles) == set(range(1, sc.channel_count + 1))
        assert roles[sc.aux_channel] == {
            "channel": sc.aux_channel, "kind": "aux", "value": sc.aux_value.value,
        }
        for index, ch in enumerate(sc.message_channels):
            assert roles[ch] == {"channel": ch, "kind": "message", "index": index}
        outs = {o.get("channel"): o for o in entry["claimed_outputs"] if "channel" in o}
        blocks = [o for o in entry["claimed_outputs"] if o.get("kind") == "psi-block"]
        for block in blocks:  # message j on the block's channel j, then its block word
            outs.update({ch: {"channel": ch, "kind": "message", "index": j}
                         for j, ch in enumerate(block["channels"])})
        assert set(outs) == set(sc.expected_layout)
        for ch, claim in sc.expected_layout.items():
            if hasattr(claim, "index"):
                assert outs[ch] == {"channel": ch, "kind": "message", "index": claim.index}
            else:
                got = outs[ch]
                assert got["kind"] == "residue"
                state = [complex(*got["state"][0]), complex(*got["state"][1])]
                assert abs(state[0] - claim.state.coeff0) < 1e-12
                assert abs(state[1] - claim.state.coeff1) < 1e-12
        if fig == 6:
            assert blocks == [{"channels": [1, 2], "kind": "psi-block"}]
            assert sc.psi_block == (1, 2)
            assert sc.expected_layout.block == (Hadamard(1), ControlledNot(1, 2))
        else:
            assert blocks == [] and sc.psi_block is None and sc.expected_layout.block == ()
        if fig == 1:
            assert entry["literal_file"] == "fig1_literal.qc"
            assert "note" in entry
    # the manifest's literals round-trip exactly to the package's qubits
    assert builtin_scenario(1).expected_layout[3].state == QUBIT_PLUS
    assert builtin_scenario(3).expected_layout[2].state == QUBIT_MINUS10
