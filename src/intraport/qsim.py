"""Dense pure-state simulation of small qubit-channel registers.

States live on N "channels" (qubits), numbered 1..N.  Channel 1 is the MOST
significant bit of the basis index, so a basis label |b1 b2 ... bN> maps to
index sum(b_k * 2**(N-k)).  With that convention a two-channel label like
|01> reads left to right: channel 1 carries 0, channel 2 carries 1.

Single-qubit states written in the a|1>+b|0> style map to SingleQubit as
a -> coeff1, b -> coeff0.  The only gates are the Hadamard and the
controlled-NOT |e1>|e2> -> |e1>|e1 xor e2>; both are real and self-inverse.

The kernels _apply_h and _apply_cn apply one gate to a state or a batch of
states, and _apply_gates is the one way to apply a word: gate by gate
through the kernels, or, given the word's matrix, as one contraction with
it.  word_matrix runs the kernels once over the identity batch, compiling a
word on up to MATRIX_CHANNELS channels into its (2^n, 2^n) matrix.  Only an
object that keeps a word and applies it again builds one (a
protocol.ProtocolCase's gate_matrix, a Layout's block_matrix); a word
applied once runs through the kernels, which cost less than its matrix.  A
word applied to many states need not come here: every circuit is Clifford,
and tableau maps Paulis through it.

column_states is the package's one product-state builder, for one state
(make_state) or a batch (protocol.layout_states).  bloch_rows is the one
rule for a known qubit's <X>, <Z> and <Y>, which protocol.stabilizer_row and
the Monte-Carlo trials read.

Everything here is a pure function over immutable values; no operation
mutates its arguments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ChannelOutOfRange,
    ImpossibleBranch,
    InvalidGate,
    InvalidInput,
    NotNormalized,
    ShapeMismatch,
    UnsupportedSize,
    require_integer,
)

NORM_TOL = 1e-9
# A norm^2 within this of 1 is float rounding of a normalised pair (a few
# ulp); such coefficients are kept bit for bit, others are rescaled.
ROUNDING_TOL = 16 * np.finfo(float).eps
# The default tolerance of every purity and fidelity check.
DEFAULT_TOL = 1e-10
# Largest channel count of a state or a circuit file.  A state on 16 channels
# holds 2^16 complex amplitudes (1 MiB); a larger count is refused before
# anything is allocated.
MAX_CHANNELS = 16


# ---------------------------------------------------------------------------
# Gates


@dataclass(frozen=True)
class Hadamard:
    channel: int

    def __post_init__(self):
        object.__setattr__(self, "channel", require_integer("gate channel", self.channel))

    def channels(self) -> tuple[int, ...]:
        return (self.channel,)


@dataclass(frozen=True)
class ControlledNot:
    control: int
    target: int

    def __post_init__(self):
        object.__setattr__(self, "control", require_integer("gate control", self.control))
        object.__setattr__(self, "target", require_integer("gate target", self.target))
        if self.control == self.target:
            raise InvalidGate(
                f"controlled-NOT requires control != target, got {self.control}"
            )

    def channels(self) -> tuple[int, ...]:
        return (self.control, self.target)


Gate = Hadamard | ControlledNot


def gates_commute(a: Gate, b: Gate) -> bool:
    """True iff the two gates act identically in either order.

    H gates commute iff on different channels.  Two controlled-NOTs commute
    unless one's control is the other's target.  H never commutes with a
    controlled-NOT sharing a channel.
    """
    if isinstance(a, Hadamard) and isinstance(b, Hadamard):
        return a.channel != b.channel
    if isinstance(a, Hadamard):
        return a.channel not in b.channels()
    if isinstance(b, Hadamard):
        return b.channel not in a.channels()
    return a.control != b.target and b.control != a.target


# ---------------------------------------------------------------------------
# States


def pair_norm2(a: complex, b: complex) -> float:
    """|a|^2 + |b|^2, or inf where a square overflows a float (a magnitude
    past about 1.3e154, far from any norm within NORM_TOL of 1)."""
    try:
        return abs(a) ** 2 + abs(b) ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SingleQubit:
    """coeff0 * |0> + coeff1 * |1>.  Any norm^2 within NORM_TOL of 1 is
    accepted, and one off by more than float rounding is divided out, so a
    slightly short message does not fail a purity test of DEFAULT_TOL."""

    coeff0: complex
    coeff1: complex

    def __post_init__(self):
        for c in (self.coeff0, self.coeff1):
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise InvalidInput("non-finite amplitude")
        norm2 = pair_norm2(self.coeff0, self.coeff1)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise NotNormalized(f"|coeff0|^2 + |coeff1|^2 = {norm2}, expected 1")
        if abs(norm2 - 1.0) > ROUNDING_TOL:
            norm = norm2 ** 0.5
            object.__setattr__(self, "coeff0", self.coeff0 / norm)
            object.__setattr__(self, "coeff1", self.coeff1 / norm)

    def as_array(self) -> np.ndarray:
        return np.array([self.coeff0, self.coeff1], dtype=complex)

    @staticmethod
    def from_array(vec: np.ndarray) -> "SingleQubit":
        return SingleQubit(complex(vec[0]), complex(vec[1]))


def bloch_rows(qubits: np.ndarray) -> np.ndarray:
    """(..., 8) Bloch rows of (..., 2) qubit coefficients: (1, <X>, <Z>,
    <Y>) and their negatives.  A Pauli with bits (x, z) has expectation
    row[x + 2z] (x = z = 1 is Y, as in tableau), and its negative
    row[4 + x + 2z]."""
    a, b = qubits[..., 0], qubits[..., 1]
    cross = 2 * np.conj(a) * b
    out = np.empty(qubits.shape[:-1] + (8,))
    out[..., 0] = 1
    out[..., 1] = cross.real
    out[..., 2] = a.real**2 + a.imag**2 - b.real**2 - b.imag**2
    out[..., 3] = cross.imag
    out[..., 4:] = -out[..., :4]
    return out


QUBIT_ZERO = SingleQubit(1.0, 0.0)
QUBIT_ONE = SingleQubit(0.0, 1.0)
QUBIT_PLUS = SingleQubit(1 / np.sqrt(2), 1 / np.sqrt(2))
# (|1> - |0>)/sqrt(2): how the minus residue is written in channel labels
QUBIT_MINUS10 = SingleQubit(-1 / np.sqrt(2), 1 / np.sqrt(2))


def _check_count(n) -> int:
    """n as an int, refused with UnsupportedSize outside 1..MAX_CHANNELS."""
    n = require_integer("channel count", n)
    if not 1 <= n <= MAX_CHANNELS:
        raise UnsupportedSize(f"a state has 1..{MAX_CHANNELS} channels, got {n}")
    return n


class PureState:
    """Normalized complex amplitude vector over N channels (immutable)."""

    __slots__ = ("channel_count", "amplitudes")

    def __init__(self, channel_count: int, amplitudes: np.ndarray, *, _trust: bool = False):
        channel_count = _check_count(channel_count)
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != (2**channel_count,):
            raise ShapeMismatch(
                f"expected {2**channel_count} amplitudes for {channel_count} channels, "
                f"got {amps.shape}"
            )
        if not _trust:
            if not np.all(np.isfinite(amps.view(float))):
                raise InvalidInput("non-finite amplitude")
            norm2 = float(np.vdot(amps, amps).real)
            if abs(norm2 - 1.0) > NORM_TOL:
                raise NotNormalized(f"state norm^2 = {norm2}, expected 1")
            amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "channel_count", channel_count)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    def tensor(self) -> np.ndarray:
        """View with one axis per channel; axis k-1 belongs to channel k."""
        return self.amplitudes.reshape((2,) * self.channel_count)

    def __repr__(self):
        return f"PureState(channels={self.channel_count})"


class Segment(enum.Enum):
    ALL = "all"
    ALICE_ONLY = "alice"
    BOB_ONLY = "bob"


# ---------------------------------------------------------------------------
# Raw kernels on flat arrays
#
# _apply_h, _apply_cn and _apply_gates take one state of shape (2^N,) or a
# batch of shape (B, 2^N) and return the same shape.  Rows are contiguous,
# so the batch axis merges with the bits above the gate's highest channel
# and a batch costs no extra array axis.


def _check_channel(n: int, k) -> int:
    """k as an int, refused with ChannelOutOfRange outside 1..n."""
    k = require_integer("channel", k)
    if not 1 <= k <= n:
        raise ChannelOutOfRange(f"channel {k} outside 1..{n}")
    return k


def _channel_rows(amps: np.ndarray, n: int, k: int) -> np.ndarray:
    """(2, 2^(n-1)) view-copy with channel k's bit as the row index."""
    t = amps.reshape(1 << (k - 1), 2, 1 << (n - k))
    return t.transpose(1, 0, 2).reshape(2, -1)


_SQRT_HALF = 0.7071067811865476


def _apply_h(amps: np.ndarray, n: int, k: int) -> np.ndarray:
    t = amps.reshape(-1, 2, 1 << (n - k))
    out = np.empty_like(t)
    out[:, 0] = t[:, 0] + t[:, 1]
    out[:, 1] = t[:, 0] - t[:, 1]
    out *= _SQRT_HALF
    return out.reshape(amps.shape)


def _apply_cn(amps: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    a, b = (control, target) if control < target else (target, control)
    t = amps.reshape(-1, 2, 1 << (b - a - 1), 2, 1 << (n - b))
    out = t.copy()
    if control < target:
        out[:, 1, :, 0] = t[:, 1, :, 1]
        out[:, 1, :, 1] = t[:, 1, :, 0]
    else:
        out[:, 0, :, 1] = t[:, 1, :, 1]
        out[:, 1, :, 1] = t[:, 0, :, 1]
    return out.reshape(amps.shape)


def _apply_gates(amps: np.ndarray, n: int, gates: Sequence[Gate],
                 matrix: Optional[np.ndarray] = None) -> np.ndarray:
    """A gate word applied to a state or batch.  Given the word's
    word_matrix, one contraction with it: einsum sums in one fixed order
    whatever the batch size, so a state and its row of a batch come out bit
    for bit equal (a BLAS matmul picks other kernels for a single row than
    for a batch and does not).  Without it, gate by gate through the kernels;
    the empty word returns `amps` itself."""
    if matrix is not None:
        return np.einsum("...i,ij->...j", amps, matrix)
    for g in gates:
        if isinstance(g, Hadamard):
            amps = _apply_h(amps, n, g.channel)
        else:
            amps = _apply_cn(amps, n, g.control, g.target)
    return amps


# The most channels a word_matrix is built for: the protocol's sizes.  Past
# them a matrix holds 4^n amplitudes (64 GiB at a .qc file's 16 channels),
# and word_matrix returns None.
MATRIX_CHANNELS = 6


def word_matrix(n: int, gates: Sequence[Gate]) -> Optional[np.ndarray]:
    """The read-only (2^n, 2^n) matrix of a gate word over n channels, or
    None past MATRIX_CHANNELS: row i is the word applied to basis state i by
    the gate kernels, so a state's image is the state times the matrix
    (_apply_gates given it).  Build it only for a word applied again."""
    if n < 1:
        raise UnsupportedSize(f"a word matrix needs at least one channel, got {n}")
    if n > MATRIX_CHANNELS:
        return None
    m = _apply_gates(np.eye(1 << n, dtype=complex), n, gates)
    m.flags.writeable = False
    return m


# ---------------------------------------------------------------------------
# Public operations


def column_states(columns: Sequence[int], qubits: np.ndarray) -> np.ndarray:
    """(T, 2^n) product states, one per row of the (T, k, 2) batch `qubits`:
    channel c carries the row's qubit columns[c - 1]."""
    count, out = len(qubits), qubits[:, columns[0]]
    for col in columns[1:]:
        out = (out[:, :, None] * qubits[:, col, None, :]).reshape(count, -1)
    return out


def make_state(factors: Sequence[SingleQubit]) -> PureState:
    """Tensor product with channel k taken from the k-th factor: the one-row
    case of column_states."""
    if not factors:
        raise InvalidInput("make_state requires at least one factor")
    _check_count(len(factors))
    qubits = np.array([[q.as_array() for q in factors]])
    return PureState(len(factors), column_states(range(len(factors)), qubits)[0])


def apply_gate(state: PureState, gate: Gate) -> PureState:
    n = state.channel_count
    for k in gate.channels():
        _check_channel(n, k)
    return PureState(n, _apply_gates(state.amplitudes, n, [gate]), _trust=True)


def run_circuit(state: PureState, circuit, segment: Segment = Segment.ALL) -> PureState:
    """Apply a Circuit's gates in list order, restricted to one segment.

    The segments are the circuit's alice_gates and bob_gates: a missing
    border means the whole gate list belongs to the sender segment.
    """
    if circuit.channel_count != state.channel_count:
        raise ShapeMismatch(
            f"circuit has {circuit.channel_count} channels, state has {state.channel_count}"
        )
    gates = (circuit.alice_gates if segment is Segment.ALICE_ONLY
             else circuit.bob_gates if segment is Segment.BOB_ONLY else circuit.gates)
    out = _apply_gates(state.amplitudes, state.channel_count, gates)
    return PureState(state.channel_count, out, _trust=True)


def project(state: PureState, channel: int, outcome: int) -> tuple[float, PureState]:
    """Computational-basis projection of one channel.

    Returns (branch probability, renormalized post-measurement state).
    Raises ImpossibleBranch when the branch probability is below 1e-12.
    """
    n = state.channel_count
    channel = _check_channel(n, channel)
    outcome = require_integer("outcome", outcome)
    if outcome not in (0, 1):
        raise InvalidInput("outcome must be 0 or 1")
    t = state.amplitudes.reshape(1 << (channel - 1), 2, 1 << (n - channel))
    branch = t[:, outcome, :]
    prob = float(np.vdot(branch, branch).real)
    if prob < 1e-12:
        raise ImpossibleBranch(
            f"outcome {outcome} on channel {channel} has probability {prob}",
            probability=prob,
        )
    collapsed = np.zeros_like(t)
    collapsed[:, outcome, :] = branch / np.sqrt(prob)
    return prob, PureState(n, collapsed.reshape(-1), _trust=True)


def fidelity(s1: PureState, s2: PureState) -> float:
    """|<s1|s2>|^2."""
    if s1.channel_count != s2.channel_count:
        raise ShapeMismatch("channel counts differ")
    return float(abs(np.vdot(s1.amplitudes, s2.amplitudes)) ** 2)


def equal_up_to_global_phase(s1: PureState, s2: PureState, tol: float = DEFAULT_TOL) -> bool:
    return fidelity(s1, s2) >= 1.0 - tol


def reduced_density(state: PureState, channel: int) -> np.ndarray:
    """2x2 reduced density matrix of one channel."""
    n = state.channel_count
    channel = _check_channel(n, channel)
    m = _channel_rows(state.amplitudes, n, channel)
    return m @ m.conj().T


def channel_fidelity(state: PureState, channel: int, qubit: SingleQubit) -> float:
    """<q| rho_channel |q>; equals fidelity of the channel factor for products."""
    n = state.channel_count
    channel = _check_channel(n, channel)
    m = _channel_rows(state.amplitudes, n, channel)
    # <q|rho|q> = || (<q| x I) |psi> ||^2, cheaper than forming rho
    contracted = qubit.as_array().conj() @ m
    return float(np.vdot(contracted, contracted).real)


def _dominant_eigvec_2x2(rho: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the larger eigenvalue of a 2x2 Hermitian matrix."""
    a, c = rho[0, 0].real, rho[1, 1].real
    b = rho[0, 1]
    if abs(b) < 1e-15:
        return np.array([1.0, 0.0], dtype=complex) if a >= c else np.array([0.0, 1.0], dtype=complex)
    lam = 0.5 * (a + c) + np.sqrt(0.25 * (a - c) ** 2 + abs(b) ** 2)
    v = np.array([b, lam - a], dtype=complex)
    return v / np.linalg.norm(v)


def _pure_factor(m: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """The factor of a channel given as its (2, 2^(n-1)) rows, or None when
    the channel's reduced density has purity below 1 - tol."""
    rho = m @ m.conj().T
    purity = float(np.trace(rho @ rho).real)
    if purity < 1.0 - tol:
        return None
    return _dominant_eigvec_2x2(rho)


def factor_channel(
    state: PureState, channel: int, tol: float = DEFAULT_TOL
) -> Optional[tuple[SingleQubit, PureState]]:
    """Split one channel off a product state.

    Returns (factor, remainder-on-the-other-channels) when the channel's
    reduced density has purity >= 1 - tol, None otherwise.  The tensor of
    factor and remainder equals the input up to global phase.
    """
    n = state.channel_count
    channel = _check_channel(n, channel)
    if n < 2:
        raise InvalidInput("factor_channel needs at least 2 channels")
    m = _channel_rows(state.amplitudes, n, channel)
    vec = _pure_factor(m, tol)
    if vec is None:
        return None
    rem = vec.conj() @ m
    rem = rem / np.linalg.norm(rem)
    return SingleQubit.from_array(vec), PureState(n - 1, rem, _trust=True)


def channel_factors(state: PureState, tol: float = DEFAULT_TOL) -> list[Optional[SingleQubit]]:
    """Each channel's factor, or None where the channel is not pure (the
    test of factor_channel).  A pure state is a product iff no entry is None."""
    n = state.channel_count
    factors: list[Optional[SingleQubit]] = []
    for ch in range(1, n + 1):
        vec = _pure_factor(_channel_rows(state.amplitudes, n, ch), tol)
        factors.append(None if vec is None else SingleQubit.from_array(vec))
    return factors


def factor_all(state: PureState) -> Optional[list[SingleQubit]]:
    """Full product factorization, or None if any split fails."""
    factors: list[SingleQubit] = []
    cur = state
    while cur.channel_count > 1:
        split = factor_channel(cur, 1)
        if split is None:
            return None
        factor, cur = split
        factors.append(factor)
    factors.append(SingleQubit.from_array(cur.amplitudes))
    return factors


def random_qubit(rng: np.random.Generator) -> SingleQubit:
    """Haar-random single-qubit state."""
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.sqrt(np.vdot(v, v).real)
    return SingleQubit.from_array(v)
