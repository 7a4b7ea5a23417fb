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

That claim is a Layout: one known residue and each message once on channels
1..n, and optionally a block word applied to that product.  Figure 6 claims
an entangled pair, H 1 then CN 1 2 on messages 0 and 1, as its block.  A
Layout is validated once, when built, and every layout of the package is
one: the inputs and claimed outputs of every case, and the search's target.
figures/manifest.json is the single source of the figure facts: which
channel carries the auxiliary state and its value, where each message
reappears, the residue left behind, and the entangled block of figure 6.
builtin_scenario loads each figure from it as a ProtocolCase, the same case
type the protocol table and the registered decoders use.  One builder
(layout_states, through qsim.column_states, the package's one product-state
builder) turns a layout into states, one (layout_rows) into its
stabilizer-tableau rows, with stabilizer_row the one rule for a known
qubit's Pauli row (read from qsim.bloch_rows), and one routine
(verify_case) checks a case's output against its layout's own state.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from importlib import resources
from typing import Mapping, Optional, Sequence

import numpy as np

from . import tableau
from .circuit import MAX_CHANNELS, Circuit, parse_circuit
from .errors import (
    ChannelOutOfRange,
    InvalidGate,
    InvalidInput,
    InvalidLayout,
    NotNormalized,
    ShapeMismatch,
    UnknownScenario,
    UnsupportedSize,
    require_integer,
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
    _channel_rows,
    bloch_rows,
    channel_factors,
    channel_fidelity,
    column_states,
    factor_channel,
    factor_all,  # noqa: F401  (perfbench/tracer.py traces this name here)
    make_state,
    pair_norm2,
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

    def __post_init__(self):
        # Kept as a Python int: a bool would index a batch as a mask, and a
        # numpy integer is not JSON.
        object.__setattr__(self, "index", require_integer("message index", self.index))


@dataclass(frozen=True)
class ResidueOut:
    state: SingleQubit


ExpectedOut = MessageOut | ResidueOut


class Layout(Mapping[int, ExpectedOut]):
    """What channels 1..n carry: a read-only, hashable map from each channel
    to its MessageOut or ResidueOut, read as their product state, then the
    `block` word applied to that product (figure 6: H 1, CN 1 2).

    Every layout check is made here, once: the channels are exactly 1..n
    (n = `channels`, or the number of entries), one channel holds the
    residue, each message index 0..n-2 appears once, and the block acts on
    channels 1..n other than the residue's.  Anything else raises
    InvalidLayout.  `columns` holds each channel's message index, or n - 1
    for the residue, and `message_channels` each message's channel.
    """

    __slots__ = ("_entries", "block", "columns", "message_channels", "residue_channel")

    def __init__(self, entries: Mapping[int, ExpectedOut], block: Sequence[Gate] = (),
                 channels: Optional[int] = None):
        n = len(entries) if channels is None else channels
        if set(entries) != set(range(1, n + 1)):
            raise InvalidLayout(f"a layout must cover channels 1..{n} exactly")
        ordered = {ch: entries[ch] for ch in range(1, n + 1)}
        residues = [ch for ch, out in ordered.items() if isinstance(out, ResidueOut)]
        by_index = {out.index: ch for ch, out in ordered.items() if isinstance(out, MessageOut)}
        if len(residues) != 1 or sorted(by_index) != list(range(n - 1)):
            raise InvalidLayout("a layout must hold one residue and each message index "
                                f"0..{n - 2} once")
        # verify_case factors the residue's channel off, so a block on it could never pass
        if any(not 1 <= ch <= n or ch == residues[0] for gate in block for ch in gate.channels()):
            raise InvalidLayout(f"a layout's block must act on channels 1..{n} "
                                "other than the residue's")
        init = partial(object.__setattr__, self)
        init("_entries", ordered)
        init("block", tuple(block))
        init("residue_channel", residues[0])
        init("message_channels", tuple(by_index[j] for j in range(n - 1)))
        init("columns", tuple(getattr(out, "index", n - 1) for out in ordered.values()))

    @classmethod
    def of(cls, layout: Mapping[int, ExpectedOut], channels: Optional[int] = None) -> "Layout":
        """`layout` itself when it is a Layout over `channels`, else a new one."""
        if isinstance(layout, cls) and channels in (None, len(layout)):
            return layout
        return cls(layout, channels=channels)

    @property
    def residue(self) -> SingleQubit:
        return self._entries[self.residue_channel].state

    def __getitem__(self, channel: int) -> ExpectedOut:
        return self._entries[channel]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Layout) and self._entries == other._entries
                and self.block == other.block)

    def __hash__(self) -> int:
        return hash((tuple(self._entries.items()), self.block))

    def __setattr__(self, name, value):
        raise AttributeError("a Layout is read-only")

    def __repr__(self) -> str:
        return f"Layout({self._entries!r}, block={self.block!r})"


def input_layout(
    message_channels: Sequence[int], aux_channel: int, value: AuxValue
) -> Layout:
    """A protocol input as a layout: message j on message_channels[j], and
    the auxiliary value as the known state of its channel."""
    messages = {ch: MessageOut(j) for j, ch in enumerate(message_channels)}
    # a message on the auxiliary's channel takes the residue's place: refused
    return Layout({aux_channel: ResidueOut(value.qubit), **messages})


def message_batch(messages: Sequence[SingleQubit]) -> np.ndarray:
    """One message tuple as the (1, m, 2) batch layout_states takes."""
    return np.array([[(q.coeff0, q.coeff1) for q in messages]], dtype=complex)


def layout_states(layout: Mapping[int, ExpectedOut], messages: np.ndarray) -> np.ndarray:
    """(T, 2^n) states of a layout over channels 1..n, one for each (m, 2)
    message tuple of the (T, m, 2) batch `messages`: the product of the
    channels' qubits, then the layout's block word."""
    layout = Layout.of(layout)
    qubits = np.empty((len(messages), len(layout), 2), dtype=complex)
    qubits[:, :-1], qubits[:, -1] = messages, layout.residue.as_array()
    return _apply_gates(column_states(layout.columns, qubits), len(layout), layout.block)


def stabilizer_row(q: SingleQubit, channel: int, n: int) -> int:
    """The packed single-channel Pauli on `channel` whose +1 eigenstate is q
    within DEFAULT_TOL, whatever q's global phase, or 0, the identity, when
    q is not a stabilizer state.  X, Y and Z are tried in that order, their
    expectations read from q's bloch_rows."""
    row = bloch_rows(q.as_array())
    for x, z in ((1, 0), (1, 1), (0, 1)):
        expectation = row[x + 2 * z]
        if abs(abs(expectation) - 1) <= DEFAULT_TOL:
            return tableau.pauli(n, channel, x, z, int(expectation < 0))
    return 0


def layout_rows(n: int, layout: Mapping[int, ExpectedOut]) -> np.ndarray:
    """The rows of a layout over channels 1..n: its input rows
    (tableau.input_rows: the residue's stabilizer row, then the rows of each
    message's channel in message order) mapped through its block word.  A
    residue that is not a stabilizer state gets 0, which no image of a
    stabilizer equals."""
    layout = Layout.of(layout, n)
    rows = tableau.input_rows(n, stabilizer_row(layout.residue, layout.residue_channel, n),
                              layout.message_channels)
    return tableau.apply_word(rows, n, layout.block)


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


@lru_cache(maxsize=1024)
def _case_inputs(message_channels: tuple[int, ...], aux_channel: int, value: AuxValue,
                 n: int) -> Layout:
    """A case's input layout over its n channels, built once for the cases
    that share it."""
    return Layout.of(input_layout(message_channels, aux_channel, value), n)


@dataclass(frozen=True)
class ProtocolCase:
    """One agreed (auxiliary channel, auxiliary value, program, layout) tuple.

    A builtin figure is a case that also carries its figure number and
    circuit.  The expected layout is made a Layout over the case's channels
    when the case is built, and the input layout (message j on
    message_channels[j], the auxiliary value on its channel) with it, so a
    case that is built holds two valid layouts.  Figure 6's expected layout
    carries its entangled pair as a block word; psi_block gives that word's
    channels.
    """

    case_id: str
    channel_count: int
    aux_channel: int
    aux_value: AuxValue
    message_channels: tuple[int, ...]
    bob_program: tuple[Gate, ...]
    expected_layout: Layout
    figure_id: Optional[int] = None
    circuit: Optional[Circuit] = None
    input_layout: Layout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.channel_count
        if not isinstance(self.aux_value, AuxValue):
            raise InvalidInput(f"aux_value must be an AuxValue, got {self.aux_value!r}")
        inputs = _case_inputs(tuple(self.message_channels), self.aux_channel, self.aux_value, n)
        object.__setattr__(self, "expected_layout", Layout.of(self.expected_layout, n))
        object.__setattr__(self, "input_layout", inputs)

    @cached_property
    def gate_word(self) -> tuple[Gate, ...]:
        """The sender's encoder, then the case's program: what verify_case runs."""
        return (*alice_encoder(self.channel_count), *self.bob_program)

    @property
    def psi_block(self) -> Optional[tuple[int, ...]]:
        """The channels of the expected layout's block word, or None."""
        block = self.expected_layout.block
        return tuple(sorted({ch for gate in block for ch in gate.channels()})) or None


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
    if figure_id not in _MANIFEST:
        valid = ", ".join(map(str, SCENARIO_FIGURES))
        what = ("figure 5 is the swap demonstration, not a scenario" if figure_id == 5
                else f"no builtin scenario for figure {figure_id}")
        raise UnknownScenario(f"{what} (valid: {valid})")
    entry = _MANIFEST[figure_id]
    circuit = figure_circuit(figure_id)
    (aux,) = [r for r in entry["roles"] if r["kind"] == "aux"]
    messages = sorted(
        (r for r in entry["roles"] if r["kind"] == "message"), key=lambda r: r["index"]
    )
    layout: dict[int, ExpectedOut] = {}
    block: tuple[Gate, ...] = ()
    for claim in entry["claimed_outputs"]:
        if claim["kind"] == "psi-block":
            # construct_psi's pair: message j on the block's channel j, then H and CN
            a, b = claim["channels"]
            layout.update({a: MessageOut(0), b: MessageOut(1)})
            block = (Hadamard(a), ControlledNot(a, b))
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
        expected_layout=Layout(layout, block),
        figure_id=figure_id,
        circuit=circuit,
    )


# ---------------------------------------------------------------------------
# Running and verifying a case


def construct_psi(c: complex, d: complex, e: complex, f: complex) -> PureState:
    """Entangled pair produced from (c|1>+d|0>) x (e|1>+f|0>) by H then CN.

    Amplitudes: |00>: (c+d)f/sqrt2, |01>: (c+d)e/sqrt2,
                |10>: (d-c)e/sqrt2, |11>: (d-c)f/sqrt2.
    """
    if abs(pair_norm2(c, d) - 1) > NORM_TOL:
        raise NotNormalized("(c, d) is not a normalized qubit")
    if abs(pair_norm2(e, f) - 1) > NORM_TOL:
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

    Every layout is compared with its own state, layout_states of the
    messages, built once per call.  Per-channel fidelities are computed
    against the expected factors through the channel's reduced density, so
    they stay meaningful even when the output fails to factor.  A layout
    with a block word (figure 6: H 1, CN 1 2 on messages 0 and 1) compares
    the residue's channel with the residue, and the other channels jointly:
    the output must factor the residue's channel off, and what is left is
    compared with the expected state with the residue's channel factored
    off.  Each of those channels reports that block fidelity, so a block word
    the decoder does not reach fails through it.  One tolerance sets both
    tests: a channel factors when its purity is at least 1 - tol, and the
    case passes when every fidelity is too.
    """
    m = len(case.message_channels)
    if len(messages) != m:
        raise ShapeMismatch(f"case {case.case_id} takes {m} messages, got {len(messages)}")
    n = case.channel_count
    batch = message_batch(messages)
    amps = _apply_gates(layout_states(case.input_layout, batch)[0], n, case.gate_word)
    out = PureState(n, amps, _trust=True)
    factors = channel_factors(out, tol)

    layout = case.expected_layout
    expected = layout_states(layout, batch)[0]
    block_fid: Optional[float] = None
    if not layout.block:
        known = [*messages, layout.residue]
        fids = [channel_fidelity(out, ch, known[col]) for ch, col in enumerate(layout.columns, 1)]
        product_ok = None not in factors
    else:
        res = layout.residue_channel
        split = factor_channel(out, res, tol)
        product_ok = split is not None
        block = layout.residue.as_array().conj() @ _channel_rows(expected, n, res)
        block_fid = float(abs(np.vdot(block, split[1].amplitudes)) ** 2) if product_ok else 0.0
        fids = [block_fid] * n
        fids[res - 1] = channel_fidelity(out, res, layout.residue)

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
        # swap(start, ch) for each ch along start's cycle walks start's
        # current content around it; a channel already seen adds nothing
        seen.add(start)
        ch = perm[start]
        while ch not in seen:
            gates.extend(swap_circuit(start, ch))
            seen.add(ch)
            ch = perm[ch]
    return gates


# ---------------------------------------------------------------------------
# Protocol table (three channels, auxiliary on channel 2)

# The three possible output arrangements for messages entering on channels
# 1 and 3 with the auxiliary on channel 2 (message 0 from channel 1), as
# layout columns: each channel's message index, or 2 for the residue.
_ARRANGEMENTS = {"a": (1, 0, 2), "b": (2, 1, 0), "c": (1, 2, 0)}


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
        figure = builtin_scenario(_BASE_FIGURE[3][value])
        base, residue = figure.expected_layout.columns, ResidueOut(figure.expected_layout.residue)
        for arr, columns in _ARRANGEMENTS.items():
            if reduced and columns != base:
                continue
            # columns as tokens: the swaps move each base output to its place
            swaps = post_swap_plan(dict(enumerate(base, 1)), dict(enumerate(columns, 1)))
            cases.append(
                ProtocolCase(
                    case_id=f"n3-aux2-{value.value}-{arr}",
                    channel_count=3,
                    aux_channel=2,
                    aux_value=value,
                    message_channels=(1, 3),
                    bob_program=figure.bob_program + tuple(swaps),
                    expected_layout={ch: MessageOut(col) if col < 2 else residue
                                     for ch, col in enumerate(columns, 1)},
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


CANONICAL_AUX_CHANNEL = {3: 2, 4: 4, 5: 5, 6: 6}

# Figures whose decoders are the registered ones for three and four channels.
_BASE_FIGURE = {
    3: {AuxValue.PLUS: 1, AuxValue.ZERO: 2, AuxValue.ONE: 3},
    4: {AuxValue.PLUS: 7, AuxValue.ZERO: 8, AuxValue.ONE: 9},
}


def canonical_case(channel_count: int, value: AuxValue) -> ProtocolCase:
    """The registered decoder for the canonical auxiliary placement."""
    n = require_integer("channel count", channel_count)
    if not isinstance(value, AuxValue):
        raise InvalidInput(f"aux_value must be an AuxValue, got {value!r}")
    if n in _BASE_FIGURE:
        figure = builtin_scenario(_BASE_FIGURE[n][value])
        return replace(figure, case_id=f"n{n}-aux{figure.aux_channel}-{value.value}")
    if n in (5, 6):
        # The general extension returns the input layout: every message on
        # its own channel, the auxiliary value's state on channel N.
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
    aux_channel = require_integer("auxiliary channel", aux_channel)
    base = canonical_case(channel_count, value)
    n, m = base.channel_count, base.aux_channel
    if aux_channel == m:
        return base
    if not 1 <= aux_channel <= n:
        raise ChannelOutOfRange(f"auxiliary channel {aux_channel} outside 1..{n}")
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
    layout = dict(base.expected_layout)
    for source, ch in zip(base.message_channels, base.expected_layout.message_channels):
        layout[ch] = MessageOut(message_channels.index(m if source == aux_channel else source))
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
