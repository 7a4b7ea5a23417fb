"""Intraportation protocol engine.

Covers the sender's encoder network, the receiver's universal five-gate
prefix, the protocol case model with the builtin figures, quantum swapping
and post-transmission channel rearrangement, the nine-case three-channel
protocol table, entangled-pair transmission, and the Bell-state measurement
byproduct.

Scheme summary: N channels carry N-1 unknown message qubits plus one known
auxiliary qubit (|0>, |1> or (|0>+|1>)/sqrt(2)).  The sender entangles all
channels with a fixed Hadamard/controlled-NOT ladder; which auxiliary value
was used travels as a classical token.  The receiver applies the decoding
program agreed for (auxiliary channel, auxiliary value) and every message
reappears, unmeasured, on some output channel, with a known residue state
left on one channel.

figures/manifest.json is the single source of the figure facts: which
channel carries the auxiliary state and its value, where each message
reappears, the residue left behind, and the entangled block of figure 6.
builtin_scenario loads each figure from it as a ProtocolCase, the same case
type the protocol table and the registered decoders use.  One builder
(layout_states) turns a layout into product states, and one routine
(verify_case) checks a case's output.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from . import tableau
from .circuit import MAX_CHANNELS, Circuit, parse_circuit
from .errors import (
    InvalidGate,
    InvalidInput,
    InvalidLayout,
    NotNormalized,
    ShapeMismatch,
    UnknownScenario,
    UnsupportedSize,
)
from .qsim import (
    DEFAULT_TOL,
    ControlledNot,
    Gate,
    Hadamard,
    NORM_TOL,
    PureState,
    QUBIT_ONE,
    QUBIT_PLUS,
    QUBIT_ZERO,
    SingleQubit,
    _apply_gates,
    channel_factors,
    channel_fidelity,
    factor_channel,
    factor_all,  # noqa: F401  (perfbench/tracer.py traces this name here)
    make_state,
    project,
)


class AuxValue(enum.Enum):
    """The three agreed auxiliary states."""

    ZERO = "zero"
    ONE = "one"
    PLUS = "plus"

    @property
    def qubit(self) -> SingleQubit:
        return _AUX_QUBITS[self]

    @staticmethod
    def parse(text: str) -> "AuxValue":
        try:
            return AuxValue(text.lower())
        except ValueError:
            raise InvalidInput(f"unknown auxiliary value '{text}'") from None


_AUX_QUBITS = {
    AuxValue.ZERO: QUBIT_ZERO,
    AuxValue.ONE: QUBIT_ONE,
    AuxValue.PLUS: QUBIT_PLUS,
}


# ---------------------------------------------------------------------------
# Layouts: what each channel carries, and the product states they describe


@dataclass(frozen=True)
class MessageOut:
    index: int

    def qubit(self, messages: Sequence[SingleQubit]) -> SingleQubit:
        return messages[self.index]


@dataclass(frozen=True)
class ResidueOut:
    state: SingleQubit

    def qubit(self, messages: Sequence[SingleQubit]) -> SingleQubit:
        return self.state


ExpectedOut = MessageOut | ResidueOut


def input_layout(
    message_channels: Sequence[int], aux_channel: int, value: AuxValue
) -> dict[int, ExpectedOut]:
    """A protocol input as a layout: message j on message_channels[j], and
    the auxiliary value as the known state of its channel."""
    layout: dict[int, ExpectedOut] = {
        ch: MessageOut(j) for j, ch in enumerate(message_channels)
    }
    layout[aux_channel] = ResidueOut(value.qubit)
    return layout


def message_batch(messages: Sequence[SingleQubit]) -> np.ndarray:
    """One message tuple as the (1, m, 2) batch layout_states takes."""
    return np.array([[(q.coeff0, q.coeff1) for q in messages]], dtype=complex)


def layout_states(layout: Mapping[int, ExpectedOut], messages: np.ndarray) -> np.ndarray:
    """(T, 2^n) product states of a layout over channels 1..n, one for each
    (m, 2) message tuple of the (T, m, 2) batch `messages`."""
    count = len(messages)
    out = np.ones((count, 1), dtype=complex)
    for ch in range(1, len(layout) + 1):
        entry = layout[ch]
        if isinstance(entry, MessageOut):
            q = messages[:, entry.index]
        else:
            q = entry.state.as_array()[None]  # broadcast over the batch
        out = (out[:, :, None] * q[:, None, :]).reshape(count, -1)
    return out


# ---------------------------------------------------------------------------
# Encoder / decoder-prefix generators


def alice_encoder(channel_count: int) -> list[Gate]:
    """Sender's gate ladder: [H_{N-1}, CN(N-1,N), ..., H_2, CN(2,3), CN(1,2), H_1].

    The same sequence is used no matter which channel carries the auxiliary
    state.
    """
    n = channel_count
    if n < 3:
        raise UnsupportedSize(f"encoder needs at least 3 channels, got {n}")
    gates: list[Gate] = []
    for k in range(n - 1, 1, -1):
        gates.append(Hadamard(k))
        gates.append(ControlledNot(k, k + 1))
    gates.append(ControlledNot(1, 2))
    gates.append(Hadamard(1))
    return gates


def bob_prefix(channel_count: int) -> list[Gate]:
    """Receiver's universal first five gates: CN(N-1,N), H_N, CN(1,N), H_1, H_N."""
    n = channel_count
    if n < 3:
        raise UnsupportedSize(f"decoder prefix needs at least 3 channels, got {n}")
    return [
        ControlledNot(n - 1, n),
        Hadamard(n),
        ControlledNot(1, n),
        Hadamard(1),
        Hadamard(n),
    ]


# ---------------------------------------------------------------------------
# Protocol cases


@dataclass(frozen=True)
class ProtocolCase:
    """One agreed (auxiliary channel, auxiliary value, program, layout) tuple.

    A builtin figure is a case that also carries its figure number and
    circuit.  Figure 6 claims an entangled pair on its psi_block channels
    instead of one factor per channel; its expected layout leaves those
    channels out.
    """

    case_id: str
    channel_count: int
    aux_channel: int
    aux_value: AuxValue
    message_channels: tuple[int, ...]
    bob_program: tuple[Gate, ...]
    # A dict or mappingproxy, so not hashable: compared, but left out of the hash.
    expected_layout: Mapping[int, ExpectedOut] = field(hash=False)
    figure_id: Optional[int] = None
    circuit: Optional[Circuit] = None
    psi_block: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        chans = set(range(1, self.channel_count + 1))
        if set(self.message_channels) | {self.aux_channel} != chans or len(
            self.message_channels
        ) != self.channel_count - 1:
            raise InvalidLayout("message channels plus auxiliary must cover all channels")
        if set(self.expected_layout) | set(self.psi_block or ()) != chans:
            raise InvalidLayout("expected layout must cover all output channels")

    @cached_property
    def input_layout(self) -> dict[int, ExpectedOut]:
        return input_layout(self.message_channels, self.aux_channel, self.aux_value)

    @property
    def residue_channel(self) -> int:
        for ch, out in self.expected_layout.items():
            if isinstance(out, ResidueOut):
                return ch
        raise InvalidLayout("case has no residue channel")

    @property
    def residue(self) -> SingleQubit:
        return self.expected_layout[self.residue_channel].state


@dataclass
class VerificationReport:
    per_channel_fidelity: list[float]
    product_ok: bool
    entangled_block_fidelity: Optional[float]
    passed: bool
    relative_phase: complex
    output: PureState
    factors: list[Optional[SingleQubit]]  # channel_factors of the output


# ---------------------------------------------------------------------------
# Builtin figures, loaded from figures/manifest.json


def _figures_file(name: str):
    return resources.files("intraport").joinpath("figures").joinpath(name)


_MANIFEST = {
    entry["id"]: entry
    for entry in json.loads(
        _figures_file("manifest.json").read_text(encoding="utf-8")
    )["figures"]
}

SCENARIO_FIGURES = tuple(_MANIFEST)


@lru_cache(maxsize=None)
def figure_circuit(name: int | str) -> Circuit:
    """Load a bundled circuit file: 1..9 or 'fig1_literal'.

    Circuits are immutable, so the parsed value is cached and shared.
    """
    fname = name if isinstance(name, str) else f"fig{name}"
    try:
        text = _figures_file(f"{fname}.qc").read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UnknownScenario(f"no bundled circuit '{fname}'") from None
    return parse_circuit(text)


@lru_cache(maxsize=None)
def builtin_scenario(figure_id: int) -> ProtocolCase:
    """A bundled figure as a case, with its roles, claimed outputs and
    entangled block read from the manifest."""
    if figure_id == 5:
        raise UnknownScenario("figure 5 is the swap demonstration, not a scenario")
    if figure_id not in _MANIFEST:
        raise UnknownScenario(f"no builtin scenario for figure {figure_id}")
    entry = _MANIFEST[figure_id]
    circuit = figure_circuit(figure_id)
    (aux,) = [r for r in entry["roles"] if r["kind"] == "aux"]
    messages = sorted(
        (r for r in entry["roles"] if r["kind"] == "message"), key=lambda r: r["index"]
    )
    layout: dict[int, ExpectedOut] = {}
    psi_block = None
    for claim in entry["claimed_outputs"]:
        if claim["kind"] == "psi-block":
            psi_block = tuple(claim["channels"])
        elif claim["kind"] == "message":
            layout[claim["channel"]] = MessageOut(claim["index"])
        else:
            coeff0, coeff1 = (complex(re, im) for re, im in claim["state"])
            layout[claim["channel"]] = ResidueOut(SingleQubit(coeff0, coeff1))
    return ProtocolCase(
        case_id=f"fig{figure_id}",
        channel_count=circuit.channel_count,
        aux_channel=aux["channel"],
        aux_value=AuxValue(aux["value"]),
        message_channels=tuple(r["channel"] for r in messages),
        bob_program=circuit.bob_gates,
        expected_layout=MappingProxyType(layout),
        figure_id=figure_id,
        circuit=circuit,
        psi_block=psi_block,
    )


# ---------------------------------------------------------------------------
# Running and verifying a case


def construct_psi(c: complex, d: complex, e: complex, f: complex) -> PureState:
    """Entangled pair produced from (c|1>+d|0>) x (e|1>+f|0>) by H then CN.

    Amplitudes: |00>: (c+d)f/sqrt2, |01>: (c+d)e/sqrt2,
                |10>: (d-c)e/sqrt2, |11>: (d-c)f/sqrt2.
    """
    if abs(abs(c) ** 2 + abs(d) ** 2 - 1) > NORM_TOL:
        raise NotNormalized("(c, d) is not a normalized qubit")
    if abs(abs(e) ** 2 + abs(f) ** 2 - 1) > NORM_TOL:
        raise NotNormalized("(e, f) is not a normalized qubit")
    s = 1 / np.sqrt(2)
    amps = np.array(
        [(c + d) * f * s, (c + d) * e * s, (d - c) * e * s, (d - c) * f * s],
        dtype=complex,
    )
    return PureState(2, amps)


def verify_case(
    case: ProtocolCase, messages: Sequence[SingleQubit], tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Encode, decode with the case's program, compare against its layout.

    Per-channel fidelities are computed against the expected factors through
    the channel's reduced density, so they stay meaningful even when the
    output fails to factor.  For the entangled-pair figure (block on
    channels 1-2, residue on channel 3) the joint block is compared against
    construct_psi and both block channels report the block fidelity.  One
    tolerance sets both tests: a channel factors when its purity is at least
    1 - tol, and the case passes when every fidelity is too.
    """
    m = len(case.message_channels)
    if len(messages) != m:
        raise ShapeMismatch(f"case {case.case_id} takes {m} messages, got {len(messages)}")
    n = case.channel_count
    batch = message_batch(messages)
    amps = _apply_gates(
        layout_states(case.input_layout, batch)[0], n, alice_encoder(n) + list(case.bob_program)
    )
    out = PureState(n, amps, _trust=True)
    factors = channel_factors(out, tol)

    block_fid: Optional[float] = None
    if case.psi_block is None:
        fids = [
            channel_fidelity(out, ch, case.expected_layout[ch].qubit(messages))
            for ch in range(1, n + 1)
        ]
        product_ok = None not in factors
        expected = layout_states(case.expected_layout, batch)[0]
    else:
        m0, m1 = messages
        psi = construct_psi(m0.coeff1, m0.coeff0, m1.coeff1, m1.coeff0)
        split = factor_channel(out, case.residue_channel, tol)
        product_ok = split is not None
        block_fid = (
            float(abs(np.vdot(psi.amplitudes, split[1].amplitudes)) ** 2) if product_ok else 0.0
        )
        res_fid = channel_fidelity(out, case.residue_channel, case.residue)
        fids = [block_fid, block_fid, res_fid]
        expected = np.kron(psi.amplitudes, case.residue.as_array())

    overlap = complex(np.vdot(expected, out.amplitudes))
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else overlap
    return VerificationReport(
        per_channel_fidelity=fids,
        product_ok=product_ok,
        entangled_block_fidelity=block_fid,
        passed=bool(product_ok and min(fids) >= 1 - tol),
        relative_phase=phase,
        output=out,
        factors=factors,
    )


def run_scenario(
    figure_id: int, messages: Sequence[SingleQubit], tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Run a builtin figure end to end and verify its claimed output layout."""
    return verify_case(builtin_scenario(figure_id), messages, tol)


# ---------------------------------------------------------------------------
# Swapping and post-transmission rearrangement


def swap_circuit(ch_a: int, ch_b: int) -> list[Gate]:
    """Three controlled-NOTs exchanging two channels' states."""
    if ch_a == ch_b:
        raise InvalidGate("swap needs two distinct channels")
    return [ControlledNot(ch_a, ch_b), ControlledNot(ch_b, ch_a), ControlledNot(ch_a, ch_b)]


def post_swap_plan(current: Mapping[int, object], desired: Mapping[int, object]) -> list[Gate]:
    """Swap triples moving each channel's content to its desired channel.

    Both layouts map channel -> token and must be bijections over the same
    channels and tokens.  Tokens are told apart by value (== and hash), so
    they must be hashable; 1 and 1.0 are the same token.  Cycles are
    decomposed into transpositions anchored at each cycle's smallest
    channel, giving a deterministic gate list.
    """
    chans = sorted(current)
    if sorted(desired) != chans:
        raise InvalidLayout("layouts cover different channel sets")
    if len(set(current.values())) != len(chans):
        raise InvalidLayout("current layout repeats a token")
    token_to_desired = {tok: ch for ch, tok in desired.items()}
    if len(token_to_desired) != len(chans):
        raise InvalidLayout("desired layout repeats a token")
    try:
        perm = {ch: token_to_desired[current[ch]] for ch in chans}
    except KeyError:
        raise InvalidLayout("layouts carry different tokens") from None

    gates: list[Gate] = []
    seen: set[int] = set()
    for start in chans:
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        # swap(start, c) walks start's current content along the cycle
        anchor = cycle[0]
        for ch in cycle[1:]:
            gates.extend(swap_circuit(anchor, ch))
    return gates


# ---------------------------------------------------------------------------
# Protocol table (three channels, auxiliary on channel 2)

# The three possible output arrangements for messages entering on channels
# 1 and 3 with the auxiliary on channel 2 (message 0 from channel 1); None
# marks the residue's channel.
_ARRANGEMENTS = {
    "a": (MessageOut(1), MessageOut(0), None),
    "b": (None, MessageOut(1), MessageOut(0)),
    "c": (MessageOut(1), None, MessageOut(0)),
}


def protocol_table(channel_count: int, reduced: bool = False) -> list[ProtocolCase]:
    """The nine agreed cases for three channels (auxiliary on channel 2).

    Three auxiliary values times three output arrangements.  Each value's
    base arrangement is the one its figure claims and uses the figure
    decoder as-is; the other arrangements append the swap plan moving the
    base outputs into place.  With reduced=True only the three base cases
    are returned.
    """
    if channel_count != 3:
        raise UnsupportedSize("the protocol table is enumerated for 3 channels only")
    cases = []
    for value in (AuxValue.PLUS, AuxValue.ZERO, AuxValue.ONE):
        base = canonical_case(3, value)
        layouts = {
            name: {ch: out or ResidueOut(base.residue) for ch, out in enumerate(slots, start=1)}
            for name, slots in _ARRANGEMENTS.items()
        }
        base_arr = next(name for name, lay in layouts.items() if lay == base.expected_layout)
        for arr in (base_arr,) if reduced else tuple(layouts):
            cases.append(
                ProtocolCase(
                    case_id=f"n3-aux2-{value.value}-{arr}",
                    channel_count=3,
                    aux_channel=2,
                    aux_value=value,
                    message_channels=(1, 3),
                    bob_program=base.bob_program
                    + tuple(post_swap_plan(layouts[base_arr], layouts[arr])),
                    expected_layout=layouts[arr],
                )
            )
    return cases


# ---------------------------------------------------------------------------
# Canonical decoder registry (used by the eavesdropping experiments)

def general_extension(channel_count: int, value: AuxValue) -> list[Gate]:
    """Constructive decoder extension for the auxiliary on the last channel.

    Appended after bob_prefix it leaves every message on its own input
    channel and the residue on channel N: CN(N,1) cleans channel 1, a CN
    cascade drains the shared path variables downward, CN(N-2,N) clears the
    auxiliary channel for the basis-state auxiliaries, and the closing H
    row turns the freed variables back into messages.  2N-3 gates for the
    plus auxiliary, 2N-2 for |0> and |1>.
    """
    n = channel_count
    if n < 4:
        raise UnsupportedSize("the general extension applies from 4 channels up")
    gates: list[Gate] = [ControlledNot(n, 1), ControlledNot(1, 2)]
    for k in range(2, n - 1):
        gates.append(ControlledNot(k, k + 1))
    if value is not AuxValue.PLUS:
        gates.append(ControlledNot(n - 2, n))
    for k in range(2, n):
        gates.append(Hadamard(k))
    return gates


def general_residue(value: AuxValue) -> SingleQubit:
    """Residue the general extension leaves on the auxiliary channel."""
    return value.qubit


CANONICAL_AUX_CHANNEL = {3: 2, 4: 4, 5: 5, 6: 6}

# Figures whose decoders are the registered ones for three and four channels.
_BASE_FIGURE = {
    3: {AuxValue.PLUS: 1, AuxValue.ZERO: 2, AuxValue.ONE: 3},
    4: {AuxValue.PLUS: 7, AuxValue.ZERO: 8, AuxValue.ONE: 9},
}


def canonical_case(channel_count: int, value: AuxValue) -> ProtocolCase:
    """The registered decoder for the canonical auxiliary placement."""
    n = channel_count
    if n in _BASE_FIGURE:
        figure = builtin_scenario(_BASE_FIGURE[n][value])
        return replace(figure, case_id=f"n{n}-aux{figure.aux_channel}-{value.value}")
    if n in (5, 6):
        # The general extension returns the input layout: every message on
        # its own channel, general_residue(value) on channel N.
        return ProtocolCase(
            case_id=f"n{n}-aux{n}-{value.value}",
            channel_count=n,
            aux_channel=n,
            aux_value=value,
            message_channels=tuple(range(1, n)),
            bob_program=tuple(bob_prefix(n)) + tuple(general_extension(n, value)),
            expected_layout=input_layout(range(1, n), n, value),
        )
    raise UnsupportedSize(f"no registered decoders for {n} channels")


def relocated_case(channel_count: int, aux_channel: int, value: AuxValue) -> ProtocolCase:
    """Decoder for the auxiliary on an arbitrary channel.

    Conjugation construction: undo the encoder, swap the auxiliary to the
    canonical channel, re-encode, then run the canonical decoder.  Valid
    because encoder gates are self-inverse and the encoder itself does not
    depend on the auxiliary placement.
    """
    n = channel_count
    base = canonical_case(n, value)
    m = base.aux_channel
    if aux_channel == m:
        return base
    if not 1 <= aux_channel <= n:
        raise InvalidInput(f"auxiliary channel {aux_channel} outside 1..{n}")
    enc = alice_encoder(n)
    program = (
        tuple(reversed(enc))
        + tuple(swap_circuit(aux_channel, m))
        + tuple(enc)
        + base.bob_program
    )
    message_channels = tuple(ch for ch in range(1, n + 1) if ch != aux_channel)
    # Input channel feeding each canonical message slot: the swap moves the
    # message sitting on the canonical aux channel to the guessed channel.
    layout: dict[int, ExpectedOut] = {}
    for ch, out in base.expected_layout.items():
        if isinstance(out, ResidueOut):
            layout[ch] = out
            continue
        source = base.message_channels[out.index]
        relocated_source = m if source == aux_channel else source
        layout[ch] = MessageOut(message_channels.index(relocated_source))
    return ProtocolCase(
        case_id=f"n{n}-aux{aux_channel}-{value.value}",
        channel_count=n,
        aux_channel=aux_channel,
        aux_value=value,
        message_channels=message_channels,
        bob_program=program,
        expected_layout=layout,
    )


# ---------------------------------------------------------------------------
# Bell-state measurement byproduct


def bell_byproduct(
    a: complex, b: complex, e: complex, f: complex, outcome: int
) -> tuple[float, PureState]:
    """Stop before the final decoder gate and measure channel 3 instead.

    Inputs a|1>+b|0> on channel 1 and e|1>+f|0> on channel 3 with the
    auxiliary (|0>+|1>)/sqrt(2): projecting channel 3 on |0> leaves
    ea|11>+fb|00> on channels 1-2 (probability |ea|^2+|fb|^2); projecting
    on |1> leaves eb|10>+fa|01> (probability |eb|^2+|fa|^2).  The
    outcome-to-branch pairing is fixed by simulation and frozen in tests.
    """
    state = make_state([SingleQubit(b, a), QUBIT_PLUS, SingleQubit(f, e)])
    amps = _apply_gates(state.amplitudes, 3, alice_encoder(3) + bob_prefix(3))
    prob, collapsed = project(PureState(3, amps, _trust=True), 3, outcome)
    return prob, PureState(2, collapsed.tensor()[:, :, outcome].reshape(-1), _trust=True)


# ---------------------------------------------------------------------------
# Circuit action comparison


def verify_circuit_action_equal(c1: Circuit, c2: Circuit) -> bool:
    """True iff the circuits' unitaries agree up to one global phase.

    Compares the circuits' tableaux exactly: the signed images of X_1..X_n
    and Z_1..Z_n, as int64 rows (see tableau).  No 2^n matrix is built.
    """
    if c1.channel_count != c2.channel_count:
        raise ShapeMismatch("channel counts differ")
    n = c1.channel_count
    if n > MAX_CHANNELS:
        raise UnsupportedSize(f"circuit comparison supports up to {MAX_CHANNELS} channels, got {n}")
    if n < 1:
        raise InvalidInput("channel count must be >= 1")
    paulis = 1 << np.arange(2 * n, dtype=np.int64)
    return np.array_equal(tableau.apply_word(paulis, n, c1.gates),
                          tableau.apply_word(paulis, n, c2.gates))
