"""Line-oriented textual circuit format (.qc files).

Grammar, one directive per line; `#` starts a comment, blank lines are
ignored, tokens are whitespace-separated:

    channels N        required first directive, 1 <= N <= MAX_CHANNELS (16)
    h K               Hadamard on channel K
    cn C T            controlled-NOT, control C, target T
    border            sender/receiver split, at most once
    measure K LABEL   deferred computational-basis measurement

Serialization is canonical: lower-case directives, single spaces, one
trailing newline, measurements last.  parse(serialize(c)) reproduces c
exactly and serialize(parse(t)) is idempotent on canonical text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import IntraportError
from .qsim import ControlledNot, Gate, Hadamard


# Largest channel count a circuit file may declare.  A state on 16 channels
# holds 2^16 complex amplitudes (1 MiB); a larger count is refused on its
# 'channels' line, before anything is allocated.
MAX_CHANNELS = 16


class ParseErrorKind(enum.Enum):
    UNKNOWN_DIRECTIVE = "UnknownDirective"
    BAD_ARITY = "BadArity"
    CHANNEL_OUT_OF_RANGE = "ChannelOutOfRange"
    CONTROL_EQUALS_TARGET = "ControlEqualsTarget"
    DUPLICATE_BORDER = "DuplicateBorder"
    MISSING_CHANNELS = "MissingChannels"
    DUPLICATE_LABEL = "DuplicateLabel"


class CircuitParseError(IntraportError):
    """Parse failure; points at the first offending source line."""

    def __init__(self, line_number: int, kind: ParseErrorKind, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
        self.kind = kind
        self.message = message


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list with an optional sender/receiver border marker."""

    channel_count: int
    gates: tuple[Gate, ...] = ()
    border_index: int | None = None
    measurements: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        for g in self.gates:
            for k in g.channels():
                if not 1 <= k <= self.channel_count:
                    raise IntraportError(f"gate channel {k} outside 1..{self.channel_count}")
        if self.border_index is not None and not 0 <= self.border_index <= len(self.gates):
            raise IntraportError("border_index outside gate list")
        labels = [label for _, label in self.measurements]
        if len(labels) != len(set(labels)):
            raise IntraportError("duplicate measurement labels")
        for ch, _ in self.measurements:
            if not 1 <= ch <= self.channel_count:
                raise IntraportError(f"measurement channel {ch} outside range")

    @property
    def alice_gates(self) -> tuple[Gate, ...]:
        if self.border_index is None:
            return self.gates
        return self.gates[: self.border_index]

    @property
    def bob_gates(self) -> tuple[Gate, ...]:
        if self.border_index is None:
            return ()
        return self.gates[self.border_index :]


def _int_token(tok: str) -> int | None:
    try:
        return int(tok)
    except ValueError:
        return None


def parse_circuit(source: str) -> Circuit:
    """Parse circuit text; raises CircuitParseError on the first bad line."""
    channel_count: int | None = None
    gates: list[Gate] = []
    border: int | None = None
    measurements: list[tuple[int, str]] = []
    seen_labels: set[str] = set()

    def err(line_no, kind, msg):
        raise CircuitParseError(line_no, kind, msg)

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        word, args = tokens[0], tokens[1:]

        if channel_count is None:
            if word != "channels":
                err(line_no, ParseErrorKind.MISSING_CHANNELS,
                    f"first directive must be 'channels', got '{word}'")
            if len(args) != 1 or _int_token(args[0]) is None:
                err(line_no, ParseErrorKind.BAD_ARITY,
                    "'channels' takes one integer argument")
            n = _int_token(args[0])
            if n < 1:
                err(line_no, ParseErrorKind.CHANNEL_OUT_OF_RANGE,
                    f"channel count must be >= 1, got {n}")
            if n > MAX_CHANNELS:
                err(line_no, ParseErrorKind.CHANNEL_OUT_OF_RANGE,
                    f"channel count must be <= {MAX_CHANNELS}, got {n}")
            channel_count = n
            continue

        if word == "channels":
            err(line_no, ParseErrorKind.UNKNOWN_DIRECTIVE,
                "'channels' may only appear as the first directive")
        elif word == "h":
            if len(args) != 1 or _int_token(args[0]) is None:
                err(line_no, ParseErrorKind.BAD_ARITY, "'h' takes one integer argument")
            k = _int_token(args[0])
            if not 1 <= k <= channel_count:
                err(line_no, ParseErrorKind.CHANNEL_OUT_OF_RANGE,
                    f"channel {k} outside 1..{channel_count}")
            gates.append(Hadamard(k))
        elif word == "cn":
            if len(args) != 2 or any(_int_token(a) is None for a in args):
                err(line_no, ParseErrorKind.BAD_ARITY, "'cn' takes two integer arguments")
            c, t = _int_token(args[0]), _int_token(args[1])
            for k in (c, t):
                if not 1 <= k <= channel_count:
                    err(line_no, ParseErrorKind.CHANNEL_OUT_OF_RANGE,
                        f"channel {k} outside 1..{channel_count}")
            if c == t:
                err(line_no, ParseErrorKind.CONTROL_EQUALS_TARGET,
                    f"control and target are both {c}")
            gates.append(ControlledNot(c, t))
        elif word == "border":
            if args:
                err(line_no, ParseErrorKind.BAD_ARITY, "'border' takes no arguments")
            if border is not None:
                err(line_no, ParseErrorKind.DUPLICATE_BORDER, "second 'border' directive")
            border = len(gates)
        elif word == "measure":
            if len(args) != 2 or _int_token(args[0]) is None:
                err(line_no, ParseErrorKind.BAD_ARITY,
                    "'measure' takes a channel and a label")
            k, label = _int_token(args[0]), args[1]
            if not 1 <= k <= channel_count:
                err(line_no, ParseErrorKind.CHANNEL_OUT_OF_RANGE,
                    f"channel {k} outside 1..{channel_count}")
            if label in seen_labels:
                err(line_no, ParseErrorKind.DUPLICATE_LABEL,
                    f"measurement label '{label}' already used")
            seen_labels.add(label)
            measurements.append((k, label))
        else:
            err(line_no, ParseErrorKind.UNKNOWN_DIRECTIVE, f"unknown directive '{word}'")

    if channel_count is None:
        raise CircuitParseError(1, ParseErrorKind.MISSING_CHANNELS,
                                "no 'channels' directive found")
    return Circuit(channel_count, tuple(gates), border, tuple(measurements))


def gate_text(g: Gate) -> str:
    """One gate as its directive line: 'h K' or 'cn C T'."""
    if isinstance(g, Hadamard):
        return f"h {g.channel}"
    return f"cn {g.control} {g.target}"


def serialize_circuit(circuit: Circuit) -> str:
    """Canonical text form; round-trips exactly through parse_circuit."""
    lines = [f"channels {circuit.channel_count}"]
    for i, g in enumerate(circuit.gates):
        if circuit.border_index == i:
            lines.append("border")
        lines.append(gate_text(g))
    if circuit.border_index == len(circuit.gates):
        lines.append("border")
    for ch, label in circuit.measurements:
        lines.append(f"measure {ch} {label}")
    return "\n".join(lines) + "\n"
