"""Parser and serializer for the .qc circuit format."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from intraport.circuit import (
    MAX_CHANNELS,
    Circuit,
    CircuitParseError,
    ParseErrorKind,
    parse_circuit,
    serialize_circuit,
)
from intraport.qsim import ControlledNot, Hadamard

FIG1_LITERAL_TEXT = (
    "channels 3\nh 2\ncn 2 3\ncn 1 2\nh 1\nborder\n"
    "cn 2 3\nh 3\ncn 1 3\nh 1\nh 3\ncn 2 3\n"
)


def test_parse_three_channel_circuit():
    c = parse_circuit(FIG1_LITERAL_TEXT)
    assert c.channel_count == 3
    assert c.alice_gates == (
        Hadamard(2), ControlledNot(2, 3), ControlledNot(1, 2), Hadamard(1),
    )
    assert c.bob_gates == (
        ControlledNot(2, 3), Hadamard(3), ControlledNot(1, 3),
        Hadamard(1), Hadamard(3), ControlledNot(2, 3),
    )
    assert len(c.gates) == 10
    assert c.border_index == 4


def test_parse_trivial_circuit():
    c = parse_circuit("channels 1\n")
    assert c.channel_count == 1
    assert c.gates == ()
    assert c.border_index is None
    assert c.measurements == ()


def test_parse_comments_and_blank_lines():
    c = parse_circuit("# header\n\nchannels 2  # two channels\n  h 1\n\ncn 1 2 # flip\n")
    assert c.channel_count == 2
    assert c.gates == (Hadamard(1), ControlledNot(1, 2))


def test_parse_measure():
    c = parse_circuit("channels 3\nh 2\nmeasure 3 aux\nmeasure 1 top\n")
    assert c.measurements == ((3, "aux"), (1, "top"))


# Each bad text: the line, kind and message of its error.
_PARSE_ERRORS = {
    "channels 2\nborder\nborder\n": (3, ParseErrorKind.DUPLICATE_BORDER,
                                    "second 'border' directive"),
    "channels 3\nh 5\n": (2, ParseErrorKind.CHANNEL_OUT_OF_RANGE, "channel 5 outside 1..3"),
    "channels 3\ncn 0 2\n": (2, ParseErrorKind.CHANNEL_OUT_OF_RANGE, "channel 0 outside 1..3"),
    "channels 2\nh -1\n": (2, ParseErrorKind.CHANNEL_OUT_OF_RANGE, "channel -1 outside 1..2"),
    "channels 2\ncn +1 -2\n": (2, ParseErrorKind.CHANNEL_OUT_OF_RANGE,
                               "channel -2 outside 1..2"),
    "channels 0\n": (1, ParseErrorKind.CHANNEL_OUT_OF_RANGE, "channel count must be >= 1, got 0"),
    # above MAX_CHANNELS; parsing allocates no amplitudes at any size
    "channels 17\n": (1, ParseErrorKind.CHANNEL_OUT_OF_RANGE,
                      "channel count must be <= 16, got 17"),
    "channels 64\nh 1\n": (1, ParseErrorKind.CHANNEL_OUT_OF_RANGE,
                           "channel count must be <= 16, got 64"),
    "channels 2\ncn 2 2\n": (2, ParseErrorKind.CONTROL_EQUALS_TARGET,
                             "control and target are both 2"),
    "channels 2\nfoo 1\n": (2, ParseErrorKind.UNKNOWN_DIRECTIVE, "unknown directive 'foo'"),
    "channels 2\nchannels 3\n": (2, ParseErrorKind.UNKNOWN_DIRECTIVE,
                                 "'channels' may only appear as the first directive"),
    "h 1\nchannels 2\n": (1, ParseErrorKind.MISSING_CHANNELS,
                          "first directive must be 'channels', got 'h'"),
    "": (1, ParseErrorKind.MISSING_CHANNELS, "no 'channels' directive found"),
    "# only a comment\n": (1, ParseErrorKind.MISSING_CHANNELS, "no 'channels' directive found"),
    "channels\n": (1, ParseErrorKind.BAD_ARITY, "'channels' takes one integer argument"),
    "channels two\n": (1, ParseErrorKind.BAD_ARITY, "'channels' takes one integer argument"),
    # integers are ASCII decimal: int() alone would read these as 10, 3 and 2
    "channels 1_0\n": (1, ParseErrorKind.BAD_ARITY, "'channels' takes one integer argument"),
    "channels \uff13\n": (1, ParseErrorKind.BAD_ARITY, "'channels' takes one integer argument"),
    "channels 2\nh \uff12\n": (2, ParseErrorKind.BAD_ARITY, "'h' takes one integer argument"),
    "channels 2\nh\n": (2, ParseErrorKind.BAD_ARITY, "'h' takes one integer argument"),
    "channels 2\nh 1 2\n": (2, ParseErrorKind.BAD_ARITY, "'h' takes one integer argument"),
    "channels 2\ncn 1\n": (2, ParseErrorKind.BAD_ARITY, "'cn' takes two integer arguments"),
    "channels 2\ncn 1 x\n": (2, ParseErrorKind.BAD_ARITY, "'cn' takes two integer arguments"),
    "channels 2\nborder now\n": (2, ParseErrorKind.BAD_ARITY, "'border' takes no arguments"),
    "channels 2\nmeasure 1\n": (2, ParseErrorKind.BAD_ARITY,
                                "'measure' takes a channel and a label"),
    "channels 2\nmeasure 9 out\n": (2, ParseErrorKind.CHANNEL_OUT_OF_RANGE,
                                    "channel 9 outside 1..2"),
    "channels 2\nmeasure 1 a\nmeasure 2 a\n": (3, ParseErrorKind.DUPLICATE_LABEL,
                                               "measurement label 'a' already used"),
}


@pytest.mark.parametrize("source,line,kind",
                         [(text, line, kind) for text, (line, kind, _) in _PARSE_ERRORS.items()])
def test_parse_errors(source, line, kind):
    with pytest.raises(CircuitParseError) as exc_info:
        parse_circuit(source)
    assert exc_info.value.line_number == line
    assert exc_info.value.kind == kind
    assert exc_info.value.message == _PARSE_ERRORS[source][2]


def test_serialize_empty_circuit():
    assert serialize_circuit(Circuit(4)) == "channels 4\n"


def test_serialize_measure_line():
    c = Circuit(3, (Hadamard(1),), None, ((3, "aux"),))
    text = serialize_circuit(c)
    assert text.count("measure 3 aux") == 1
    assert text == "channels 3\nh 1\nmeasure 3 aux\n"


def test_serialize_border_positions():
    c = Circuit(2, (Hadamard(1), Hadamard(2)), border_index=0)
    assert serialize_circuit(c) == "channels 2\nborder\nh 1\nh 2\n"
    c = Circuit(2, (Hadamard(1), Hadamard(2)), border_index=2)
    assert serialize_circuit(c) == "channels 2\nh 1\nh 2\nborder\n"


def test_round_trip_identity_on_fig1_text():
    c = parse_circuit(FIG1_LITERAL_TEXT)
    again = parse_circuit(serialize_circuit(c))
    assert again == c
    # canonical text is a fixed point of serialize(parse(.))
    canonical = serialize_circuit(c)
    assert serialize_circuit(parse_circuit(canonical)) == canonical


def random_circuit(rng) -> Circuit:
    n = int(rng.integers(1, 7))
    gates = []
    for _ in range(int(rng.integers(0, 12))):
        if n >= 2 and rng.random() < 0.5:
            c, t = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            gates.append(ControlledNot(int(c), int(t)))
        else:
            gates.append(Hadamard(int(rng.integers(1, n + 1))))
    border = int(rng.integers(0, len(gates) + 1)) if rng.random() < 0.5 else None
    measurements = []
    if rng.random() < 0.4:
        for i in range(int(rng.integers(1, 4))):
            measurements.append((int(rng.integers(1, n + 1)), f"m{i}"))
    return Circuit(n, tuple(gates), border, tuple(measurements))


def test_round_trip_random_circuits():
    rng = np.random.default_rng(17)
    for _ in range(100):
        c = random_circuit(rng)
        text = serialize_circuit(c)
        assert parse_circuit(text) == c
        assert serialize_circuit(parse_circuit(text)) == text


@st.composite
def _circuits(draw):
    n = draw(st.integers(1, MAX_CHANNELS))
    channel = st.integers(1, n)
    gate = st.builds(Hadamard, channel)
    if n >= 2:
        pair = st.lists(channel, min_size=2, max_size=2, unique=True)
        gate = gate | pair.map(lambda p: ControlledNot(*p))
    gates = draw(st.lists(gate, max_size=16))
    border = draw(st.none() | st.integers(0, len(gates)))
    label = st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True)
    measurements = draw(
        st.lists(st.tuples(channel, label), max_size=4, unique_by=lambda m: m[1])
    )
    return Circuit(n, tuple(gates), border, tuple(measurements))


@given(_circuits())
def test_parse_serialize_round_trip_property(c):
    text = serialize_circuit(c)
    assert parse_circuit(text) == c
    assert serialize_circuit(parse_circuit(text)) == text


def test_parse_accepts_the_channel_cap():
    top = parse_circuit(f"channels {MAX_CHANNELS}\nh {MAX_CHANNELS}\n")
    assert top.channel_count == MAX_CHANNELS


def test_circuit_construction_validation():
    from intraport.errors import IntraportError

    with pytest.raises(IntraportError):
        Circuit(2, (Hadamard(3),))
    with pytest.raises(IntraportError):
        Circuit(2, (Hadamard(1),), border_index=5)
    with pytest.raises(IntraportError):
        Circuit(2, (), None, ((1, "x"), (2, "x")))
