"""Line-oriented textual circuit format (.qc files).

Grammar, one directive per line; `#` starts a comment, blank lines are
ignored, tokens are whitespace-separated:

    channels N        required first directive, 1 <= N <= MAX_CHANNELS (16)
    h K               Hadamard on channel K
    cn C T            controlled-NOT, control C, target T
    border            sender/receiver split, at most once
    measure K LABEL   deferred computational-basis measurement

N, K, C and T are ASCII decimal integers, [+-]?[0-9]+ (so not '1_0' or
'３', which int() would take); LABEL is any token.  Each directive's
argument count and integer arguments are checked first (BadArity), then
its channels' range (ChannelOutOfRange).

Serialization is canonical: lower-case directives, single spaces, one
trailing newline, measurements last.  parse(serialize(c)) reproduces c
exactly and serialize(parse(t)) is idempotent on canonical text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import IntraportError, require_integer
from .qsim import MAX_CHANNELS, ControlledNot, Gate, Hadamard


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
        object.__setattr__(self, "channel_count",
                           require_integer("channel count", self.channel_count))
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


def decimal_int(text: str) -> int:
    """int(text) for ASCII decimal digits after an optional sign, the one
    integer rule of .qc files and the CLI; anything else, such as '1_0' or
    '３', which int() alone would take, raises ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def decimal_float(text: str) -> float:
    """float(text) for ASCII text without underscores, the one float rule
    of the CLI; anything else, such as '1_0.5' or '０.６', which float()
    alone would take, raises ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII decimal number: {text!r}")
    return float(text)


def _integers(tokens: list[str]) -> list[int] | None:
    """The tokens as ints by decimal_int, or None if one is not."""
    try:
        return [*map(decimal_int, tokens)]
    except ValueError:
        return None


# Each directive's channel arguments, whether a label follows them, and the
# message for any other argument list.
_ARGUMENTS = {
    "channels": (1, False, "'channels' takes one integer argument"),
    "h": (1, False, "'h' takes one integer argument"),
    "cn": (2, False, "'cn' takes two integer arguments"),
    "border": (0, False, "'border' takes no arguments"),
    "measure": (1, True, "'measure' takes a channel and a label"),
}


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
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        word, args = tokens[0], tokens[1:]
        if channel_count is None and word != "channels":
            err(line_no, ParseErrorKind.MISSING_CHANNELS,
                f"first directive must be 'channels', got '{word}'")
        if channel_count is not None and word == "channels":
            err(line_no, ParseErrorKind.UNKNOWN_DIRECTIVE,
                "'channels' may only appear as the first directive")
        spec = _ARGUMENTS.get(word)
        if spec is None:
            err(line_no, ParseErrorKind.UNKNOWN_DIRECTIVE, f"unknown directive '{word}'")
        count, labelled, arity = spec
        ks = _integers(args[:count])
        if len(args) != count + labelled or ks is None:
            err(line_no, ParseErrorKind.BAD_ARITY, arity)

        if channel_count is None:
            (channel_count,) = ks
            if not 1 <= channel_count <= MAX_CHANNELS:
                bound = ">= 1" if channel_count < 1 else f"<= {MAX_CHANNELS}"
                err(line_no, ParseErrorKind.CHANNEL_OUT_OF_RANGE,
                    f"channel count must be {bound}, got {channel_count}")
            continue
        for k in ks:
            if not 1 <= k <= channel_count:
                err(line_no, ParseErrorKind.CHANNEL_OUT_OF_RANGE,
                    f"channel {k} outside 1..{channel_count}")
        if word == "h":
            gates.append(Hadamard(*ks))
        elif word == "cn":
            if ks[0] == ks[1]:
                err(line_no, ParseErrorKind.CONTROL_EQUALS_TARGET,
                    f"control and target are both {ks[0]}")
            gates.append(ControlledNot(*ks))
        elif word == "border":
            if border is not None:
                err(line_no, ParseErrorKind.DUPLICATE_BORDER, "second 'border' directive")
            border = len(gates)
        else:
            label = args[1]
            if label in seen_labels:
                err(line_no, ParseErrorKind.DUPLICATE_LABEL,
                    f"measurement label '{label}' already used")
            seen_labels.add(label)
            measurements.append((ks[0], label))

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
