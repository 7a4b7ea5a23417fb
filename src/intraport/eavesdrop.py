"""Seeded Monte-Carlo experiments on intercepting the quantum channels.

Adversary model (declared here, not prescribed elsewhere): Eve intercepts
all quantum channels after the sender's encoder and also reads the
classical auxiliary-value token.  She does not know which channel carries
the auxiliary state, so she guesses one (uniformly, or a fixed guess),
applies the decoder registered for her guessed case, records omnisciently
whether every message would now sit on the channels her case predicts,
then rebuilds a protocol input from her decoded channels (messages back to
the guessed input placement, a fresh auxiliary in place of the residue),
re-encodes and forwards.  A correct guess makes the whole intercept the
identity on the wire.  A wrong channel guess never recovers every message,
because her case takes a true message channel for the auxiliary one, but
it need not disturb the state: for some wrong guesses her decode and
re-encode compose to the identity on every state the sender can send, so
no check at the receiver can see them (at three channels, a guess of
channel 1 with the true value, or of channel 3 with value one).  The other
wrong guesses disturb the state.

The receiver decodes with the true program and compares each output
channel against the protocol's expectation, either omnisciently (fidelity
of every channel's reduced state) or by sampling a projective check of the
auxiliary-residue channel.

Every gate here is H or CNOT, so every circuit is Clifford and a trial is
checked in the Heisenberg picture, with no statevector.  A channel's
fidelity with a known qubit q is (1 + r_q . r) / 2, where r holds the
channel's <X>, <Z> and <Y>.  Each of those is <in| U^dagger P U |in> for
the composite U applied to the sender's product input, and U^dagger P U is
a signed Pauli string, so it is the sign times one Bloch component of each
input channel's qubit.  The composites depend only on the protocol cases
involved, never on the trial: the receiver's is the encoder and the true
decoder when Eve is absent, and otherwise the encoder, her decoder, her
re-encode and the true decoder; Eve's own view, `first`, is the encoder and
her decoder.  So each registered case's decoder and re-encode, and the
encoder, are compiled once into pull-back maps over every packed row
(tableau.pull_back), and each (true case, guess) group pulls X, Z and Y of
every checked channel back through its composites once, when a trial of it
is first seen.  Eve's view is checked only when her believed message
channels are the true ones, since otherwise she cannot succeed.  The
strings are exact; the products round otherwise than a dense contraction,
by a few ulp, which moves a count only when a fidelity lands that close to
the 1e-9 bar below 1 or to a sampled check's uniform draw.

Each trial draws as if from its own generators, seeded from the
experiment base seed through the splitmix64 sequence: default_rng(seed)
for its messages and sampled check and, for a uniform guess,
default_rng(splitmix64(seed ^ strategy.seed)).  So results are
reproducible bit for bit and independent of execution order.  Building
those generators would cost about 12 us each, more than the rest of a
batched trial, and none is built: numpy's SeedSequence hash and PCG64
(O'Neill, HMC-CS-2014-0905) are fixed algorithms that numpy keeps stable,
because seeded streams must not change between releases.  So
_pcg64_streams computes a whole chunk's streams as arrays: the hash as
uint32 ops, then every 128-bit state the trials read, each an affine map
of the seeding words (the state k steps on is A_k s + S_k inc, with A_k =
M^k and S_k the sum of M^j for j < k), as one exact float64 product of
16-bit limbs, then PCG64's XSL-RR output.  A normal is the ziggurat's
(Marsaglia and Tsang, J. Stat. Softw. 5(8), 2000) fast path of one word:
+-rabs * w[idx] when rabs < bound[idx].  The table is derived from the
installed numpy on first use: w[idx] is standard_normal of the word of
layer idx with rabs = 1, and bound[idx] is 2^52 w[idx-1] / w[idx] rounded,
idx - 1 taken mod 256, except bound[1] = 0.  These are numpy's k_i = 2^52
x_{i-1} / x_i, with w_i = x_i / 2^52: the base strip, layer 0, has the
tail start x_255 as its inner edge, the top strip, layer 1, has 0.  A
sampled uniform is the next word's top 53 bits / 2^53; a uniform guess is
Lemire's multiply-shift (arXiv:1805.10941) of a word.  A trial with any
normal off the fast path (about 11% at n=3, 26% at n=6) is replayed: one
Generator, made on a call's first replay, is set to its state and draws,
as is a guess Lemire's rule may reject (about n in 2^32).  On first use
the table is checked against standard_normal at the largest fast
magnitude of every layer; if numpy disagrees (a release with other
tables, or a bound rounded above numpy's) every bound is set to 0, so
that every trial is replayed.  The draws equal default_rng's bit for bit;
the tests compare them directly.

run_experiment works in chunks of CHUNK trials: it derives the chunk's
seeds, true value codes and guess seeds as uint64 array ops and draws
every trial.  Each trial gets an integer group code, its true value code
times 3n + 1 plus its guess code (0 when Eve is absent).  The rest is one
pass over the chunk: the Bloch vectors of every trial's qubits, then, for
Eve's recovery (on the trials of the groups where she can succeed) and for
the receiver's check, every trial's pulled-back strings gathered by its
code, their products and the fidelities.  Nothing is per group, and a
trial's fidelities do not depend on the other trials of its chunk, so
run_trial is a batch of one through the same code.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tableau
from .errors import InvalidInput, InvalidLayout, require_integer
from .protocol import (
    AuxValue,
    CANONICAL_AUX_CHANNEL,
    ProtocolCase,
    alice_encoder,
    post_swap_plan,
    relocated_case,
    stabilizer_row,
)
from .qsim import Hadamard, bloch_rows
# perfbench/tracer.py traces these names here, though no trial calls them.
from .qsim import _apply_gates, channel_fidelity, make_state, random_qubit  # noqa: F401

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FIDELITY_BAR = 1 - 1e-9


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer (Steele, Lea, Flood 2014).  Also elementwise
    on a uint64 array, where numpy's wrap-around does the masking."""
    z = (x + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(base_seed: int, index: int) -> int:
    """Seed for one trial: splitmix64 stream member `index` of `base_seed`.
    `index` may be a uint64 array when `base_seed` is in [0, 2^64)."""
    return splitmix64((base_seed + index * _GAMMA) & _MASK64)


class DetectionMode(enum.Enum):
    OMNISCIENT = "omniscient"
    SAMPLED = "sampled"


@dataclass(frozen=True, slots=True)
class EveStrategy:
    """uniform: guess the auxiliary channel uniformly, value read from the
    classical token.  fixed: always guess one (channel, value) case."""

    mode: str
    seed: int = 0
    fixed_channel: Optional[int] = None
    fixed_value: Optional[AuxValue] = None

    @staticmethod
    def uniform_guess(seed: int = 0) -> "EveStrategy":
        return EveStrategy(mode="uniform", seed=seed)

    @staticmethod
    def fixed_guess(channel: int, value: AuxValue, seed: int = 0) -> "EveStrategy":
        return EveStrategy(mode="fixed", seed=seed, fixed_channel=channel,
                           fixed_value=value)

    def describe(self) -> str:
        if self.mode == "fixed":
            return f"fixed(ch{self.fixed_channel},{self.fixed_value.value})"
        return self.mode


@dataclass(frozen=True)
class TrialOutcome:
    eve_success: bool
    bob_detects: bool
    true_case_id: str
    guessed_case_id: Optional[str]


@dataclass(frozen=True)
class ExperimentStats:
    channel_count: int
    trials: int
    mode: str
    strategy: str
    eve_success_rate: float
    detection_rate: float
    analytic_success_rate: float
    ci95_halfwidth: float
    base_seed: int


# Trials are drawn, then batched, this many at a time, so that memory does
# not grow with the number of trials.
CHUNK = 256


@dataclass(frozen=True)
class _CompiledCase:
    """A registered case with its gate words compiled to pull-back maps
    (tableau.pull_back): entry P of a map is U^dagger P U for its word U."""

    case: ProtocolCase
    decoder: np.ndarray  # the case's bob_program
    reencode: np.ndarray  # Eve's rebuild after decoding as this case


@functools.lru_cache(maxsize=None)
def _compiled(n: int, aux_channel: int, value: AuxValue) -> _CompiledCase:
    case = relocated_case(n, aux_channel, value)
    return _CompiledCase(case, tableau.pull_back(n, case.bob_program),
                         tableau.pull_back(n, _reencode_gates(case)))


# The classical values in the order of their codes: run_experiment draws a
# trial's value code as splitmix64(seed) % 3.
_AUX_CYCLE = (AuxValue.PLUS, AuxValue.ZERO, AuxValue.ONE)


def _guess_code(channel, value_code):
    """Eve's guess of (channel, value) as a code in 1..3n, elementwise on
    arrays; code 0 stands for her absence."""
    return 1 + 3 * (channel - 1) + value_code


def _guessed(guess_code: int) -> tuple[int, AuxValue]:
    channel, value_code = divmod(guess_code - 1, 3)
    return channel + 1, _AUX_CYCLE[value_code]


def _channel_paulis(n: int, channels) -> np.ndarray:
    """(k, 3) packed rows: X, Z and Y on each of the k channels."""
    bits = 1 << (np.array(channels)[:, None] - 1)
    return bits * np.array([1, 1 << n, 1 | 1 << n])


class _Checks:
    """What a trial of each group code on one auxiliary channel checks,
    each code filled on first use.

    A trial's Bloch table has one qsim.bloch_rows row per qubit: its m
    messages, then the auxiliary value's qubit (row m) and the residue's
    (row m + 1).  A channel's fidelity with the qubit it is compared with,
    q, is (1 + sum over P in (X, Z, Y) of <P>_q s_P prod_c <P_c>) / 2, where
    s_P P_1 ... P_n is P on the channel pulled back to the sender's input,
    and <P_c> is taken on input channel c's qubit.  So a code holds, for
    each checked channel and each P, the indices of those n + 1 factors in
    the trial's flattened table: one per input channel, the first taken
    from the negated half when s_P is -1, then <P>_q.  `received` holds the
    receiver's output channels.  `first` holds the channels where Eve
    expects a message, each compared with the true message she believes is
    there, and is filled only for the codes whose `recoverable` is set,
    those where her believed message channels are the true ones.  A code is
    filled the same whoever fills it, so every caller may share the tables."""

    def __init__(self, n: int, aux_channel: int):
        m, codes = n - 1, 3 * (3 * n + 1)
        cases = [_compiled(n, aux_channel, value).case for value in _AUX_CYCLE]
        ins, outs = [c.input_layout for c in cases], [c.expected_layout for c in cases]
        self.n, self.aux_channel = n, aux_channel
        self.encoder = tableau.pull_back(n, alice_encoder(n))
        # every value's input layout has the same columns, the auxiliary's m
        self.inputs = 8 * np.array(ins[0].columns)
        self.known = bloch_rows(np.array([(i.residue.as_array(), o.residue.as_array())
                                          for i, o in zip(ins, outs)]))
        columns = np.array([out.columns for out in outs])
        self.outputs = columns + (columns == m)  # the residue's row is m + 1 here
        self.residue = np.array([out.residue_channel - 1 for out in outs])
        self.filled = np.zeros(codes, dtype=bool)
        self.recoverable = np.zeros(codes, dtype=bool)
        self.received = np.zeros((codes, n, 3, n + 1), dtype=np.uint8)
        self.first = np.zeros((codes, m, 3, n + 1), dtype=np.uint8)

    def fill(self, codes: np.ndarray) -> None:
        """Fill each of `codes` not filled yet."""
        for code in set(codes[~self.filled[codes]].tolist()):
            self._fill(code)

    def _fill(self, code: int) -> None:
        n = self.n
        value_code, guess_code = divmod(code, 3 * n + 1)
        true = _compiled(n, self.aux_channel, _AUX_CYCLE[value_code])
        received = true.decoder[_channel_paulis(n, range(1, n + 1))]
        if guess_code:
            eve = _compiled(n, *_guessed(guess_code))
            received = eve.decoder[eve.reencode[received]]
            # Full recovery requires her believed message channels to be the
            # true ones; a wrong auxiliary guess silently discards one true
            # message.
            if set(eve.case.message_channels) == set(true.case.message_channels):
                theirs = _channel_paulis(n, eve.case.expected_layout.message_channels)
                believed = [true.case.message_channels.index(ch)
                            for ch in eve.case.message_channels]
                self.first[code] = self._factors(eve.decoder[theirs], believed)
                self.recoverable[code] = True
        self.received[code] = self._factors(received, self.outputs[value_code])
        self.filled[code] = True

    def _factors(self, rows: np.ndarray, compared: Sequence[int]) -> np.ndarray:
        """(k, 3, n + 1) factor indices of k channels: their (k, 3) packed
        rows pulled back to the encoder's output, and the k Bloch rows of the
        qubits they are compared with."""
        n = self.n
        rows = self.encoder[rows].astype(np.intp)[..., None]
        factors = np.empty((len(rows), 3, n + 1), dtype=np.intp)
        x, z = rows >> np.arange(n) & 1, rows >> np.arange(n, 2 * n) & 1
        factors[..., :n] = self.inputs + x + 2 * z
        factors[..., 0] += 4 * (rows[..., 0] >> 2 * n)
        factors[..., n] = 8 * np.array(compared)[:, None] + [1, 2, 3]
        return factors


@functools.lru_cache(maxsize=None)
def _checks(n: int, aux_channel: int) -> _Checks:
    return _Checks(n, aux_channel)


def _reencode_gates(case: ProtocolCase):
    """Eve's rebuild: believed outputs back to input placement, residue
    channel refreshed to the auxiliary value, then the encoder.  The residue
    and the value are compared by their stabilizer rows on one channel."""
    # Columns as tokens: message j is j in both layouts, and column m, the
    # residue among the outputs, is the auxiliary among the inputs.
    gates = post_swap_plan(dict(enumerate(case.expected_layout.columns, 1)),
                           dict(enumerate(case.input_layout.columns, 1)))

    res, value = (stabilizer_row(q, 1, 1)
                  for q in (case.expected_layout.residue, case.aux_value.qubit))
    if res != value:
        if tableau.conjugate(res, 1, Hadamard(1)) != value:
            raise InvalidLayout("registered residue is not one H away from the value")
        gates.append(Hadamard(case.aux_channel))
    return gates + alice_encoder(case.channel_count)


# numpy's SeedSequence(seed).generate_state(4, uint64) (bit_generator.pyx).
# Each hash step k xors a uint32 with a constant c_k, multiplies it by
# c_{k+1} = c_k * mult and xors its high 16 bits into the low ones; mix
# combines two pool words.  The hash works mod 2^32.
_MIX_L = np.array([0xCA01F9DD], dtype=np.uint32)
_MIX_R = np.array([0x4973F715], dtype=np.uint32)


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) columns of `calls` successive hash steps: step
    k xors with init * mult^k and multiplies by init * mult^(k+1), mod 2^32."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    hashed = (values ^ xor) * mult
    return hashed ^ (hashed >> 16)


# The pool takes 4 + 4 * 3 hash steps, generate_state 8 (4 uint64 words).
_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_XOR, _OUT_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# SeedSequence splits a seed into little-endian uint32 words (one below
# 2^32) and fills the rest of the 4-word pool by hashing 0.  So pool word 1
# is always the hash of seed >> 32, and words 2 and 3 are the same for
# every 64-bit seed.
_POOL_PAD = _hashmix(np.zeros((2, 1), dtype=np.uint32), _POOL_XOR[2:4], _POOL_MULT[2:4])
# Mixing step src hashes pool word src once into each other word.
_MIX_STEPS = [(src, np.array([dst for dst in range(4) if dst != src]),
               slice(4 + 3 * src, 7 + 3 * src)) for src in range(4)]
_OUT_WORDS = np.arange(8) % 4


def _seed_halves(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, uint64) for each uint64 seed, as
    an (8, T) uint32 array: row 2i + j holds half j (0 low, 1 high) of word i."""
    pool = np.empty((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds.astype(np.uint32)
    pool[1] = (seeds >> 32).astype(np.uint32)
    pool[:2] = _hashmix(pool[:2], _POOL_XOR[:2], _POOL_MULT[:2])
    pool[2:] = _POOL_PAD
    for src, dst, step in _MIX_STEPS:
        # the three hashes of pool[src] are independent: one op on 3 rows
        hashed = _hashmix(pool[src], _POOL_XOR[step], _POOL_MULT[step])
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    return _hashmix(pool[_OUT_WORDS], _OUT_XOR, _OUT_MULT)


# PCG64 (O'Neill, HMC-CS-2014-0905) steps a 128-bit state s to s * M + inc
# and outputs XSL-RR of the new state.  default_rng seeds it from the four
# generate_state words: init = w0 w1 and seq = w2 w3 (high word first), inc
# = 2 seq + 1, s = (inc + init) M + inc.  So s and every later state are
# affine in (init, seq): the state k steps on is
#     2 a_k seq + b_k init + a_k  (mod 2^128),
# with b_k = M^(k+1) and a_k = b_k + sum_{j<=k} M^j.
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_INVERSE = pow(_PCG_MULT, -1, 1 << 128)


def _affines(k: int) -> list[tuple[int, int, int]]:
    """(init multiplier, seq multiplier, constant) of the states 0..k steps
    after seeding, mod 2^128."""
    affines, b, powers = [], _PCG_MULT, 1  # b = M^(j+1), powers = sum_{i<=j} M^i
    for _ in range(k + 1):
        a = (b + powers) & _MASK128
        affines.append((b, 2 * a & _MASK128, a))
        powers, b = (powers + b) & _MASK128, b * _PCG_MULT & _MASK128
    return affines


# _seed_halves' row r is half r % 2 of generate_state word r // 2, and init
# is words 0 (high) and 1 (low), seq words 2 and 3.  _pcg64_streams splits
# each half into two 16-bit limbs: limb row's multiplicand (0 init, 1 seq)
# and position i.  Sum p takes limb i times the multiplier's limbs 2p - i
# and, times 2^16, 2p + 1 - i: _TERMS[row, p] = 2p - i + 7 indexes them in
# _stream_coefficients' padded limbs.
_MULTIPLICAND = np.repeat([0, 1], 8)[:, None]
_TERMS = np.array([[2 * p - (4 * (word % 2 == 0) + 2 * half + part) + 7 for p in range(4)]
                   for word in range(4) for half in (0, 1) for part in (0, 1)])


@functools.lru_cache(maxsize=None)
def _stream_coefficients(steps: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The float64 matrix and row that map the 16-bit limbs of each seed
    set to 4 sums per stream column; the columns of each set in turn are its
    state, its inc, then its states 1..k steps on.

    A sum u_p (p = 0..3) gathers the limb products at bit 32p and, times
    2^16, those at bit 32p + 16, so the value is the sum of u_p 2^(32p) mod
    2^128.  Every product of a 16-bit limb with a constant's 16-bit limb is
    below 2^32, times 2^16 below 2^48, and a sum holds at most 16 of them and
    a 32-bit constant: below 2^53, so the float64 product is exact whatever
    the order of summation."""
    sets, columns = [], []
    for s, k in enumerate(steps):
        state, *later = _affines(k)
        for affine in (state, (0, 2, 1), *later):
            sets.append(s)
            columns.append(affine)
    # the multipliers' 16-bit limbs 0..7 at 7..14, zero from -7 to 8
    padded = np.zeros((len(columns), 2, 17))
    padded[:, :, 7:15] = [[[m >> 16 * j & 0xFFFF for j in range(8)] for m in column[:2]]
                          for column in columns]
    terms = (padded[:, :, :-1] + 65536 * padded[:, :, 1:])[:, _MULTIPLICAND, _TERMS]
    matrix = np.zeros((len(steps), len(columns), 16, 4))
    matrix[sets, np.arange(len(columns))] = terms
    offset = [[c >> 32 * p & 0xFFFFFFFF for p in range(4)] for _, _, c in columns]
    return (matrix.transpose(0, 2, 3, 1).reshape(16 * len(steps), -1),
            np.array(offset, dtype=float).T.reshape(-1))


@dataclass(frozen=True)
class _Stream:
    """default_rng(seed)'s PCG64 stream for each of T seeds: `words`, its
    next k 64-bit outputs, (T, k), and `hi`, `lo`, the high and low halves of
    the generator's state (column 0) and inc (column 1), (T, 2) each."""

    words: np.ndarray
    hi: np.ndarray
    lo: np.ndarray


class _Replay:
    """The generator one call replays trials on: built on the first replay
    (about 19 us, which most calls then never pay), then set to each
    replayed trial's state in turn.  It is never shared with another call."""

    def __init__(self):
        self._rng: Optional[np.random.Generator] = None

    def __call__(self, stream: _Stream, rows: np.ndarray):
        """Yield (row, generator) for each of `rows`, the generator set to
        the row's state in `stream`."""
        state = _generator_state()  # one dict, refilled for each row
        pcg = state["state"]
        for row, hi, lo in zip(rows.tolist(), stream.hi[rows].tolist(), stream.lo[rows].tolist()):
            if self._rng is None:
                self._rng = np.random.Generator(np.random.PCG64(0))
            pcg["state"], pcg["inc"] = hi[0] << 64 | lo[0], hi[1] << 64 | lo[1]
            self._rng.bit_generator.state = state
            yield row, self._rng


def _pcg64_streams(seed_sets: list[tuple[np.ndarray, int]]) -> list[_Stream]:
    """The _Stream of k words for each (uint64 seeds, k) of equal lengths,
    without building a generator: one SeedSequence hash over every seed,
    then one float64 matrix product (_stream_coefficients) for every state
    of every stream, whose sums are carried into 64-bit halves."""
    count, sets = len(seed_sets[0][0]), len(seed_sets)
    halves = _seed_halves(np.concatenate([seeds for seeds, _ in seed_sets]))
    limbs = (halves.astype("<u4", copy=False).view("<u2").reshape(8, sets, count, 2)
             .transpose(2, 1, 0, 3).reshape(count, 16 * sets))
    matrix, offset = _stream_coefficients(tuple(k for _, k in seed_sets))
    # below 2^53: float64 -> int64 is exact (and quicker than -> uint64)
    sums = (limbs @ matrix + offset).astype(np.int64).view(np.uint64).reshape(count, 4, -1)
    u0, u1, u2, u3 = sums.transpose(1, 0, 2)
    lo = u0 + (u1 << 32)
    hi = u2 + (u3 << 32) + (((u0 >> 32) + u1) >> 32)
    # XSL-RR: the halves' xor rotated right by the high half's top 6 bits
    rot = hi >> 58
    folded = hi ^ lo
    words = folded >> rot | folded << ((64 - rot) & 63)
    streams, col = [], 0
    for _, k in seed_sets:
        streams.append(_Stream(words[:, col + 2:col + 2 + k],
                               hi[:, col:col + 2], lo[:, col:col + 2]))
        col += k + 2
    return streams


def _generator_state(state: int = 0, inc: int = 0) -> dict:
    """The PCG64 generator state at (state, inc), with no uint32 buffered."""
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


# numpy's standard_normal is Marsaglia and Tsang's ziggurat of 256 layers
# (J. Stat. Softw. 5(8), 2000).  It reads a 64-bit word whose low 8 bits
# are the layer idx, bit 8 the sign and bits 9..60 the magnitude rabs; if
# rabs < bound[idx] it returns +-rabs * w[idx] and reads nothing more,
# otherwise it reads more words (the layer's edge, or the tail for idx 0).
_RABS_MASK = (1 << 52) - 1
_LAYERS = 256
# _word_state's states all step onto this high half, with this inc.
_PROBE_HIGH, _PROBE_INC = 0x9E3779B97F4A7C15, 0xDA3E39CB94B95BDB


def _word_state(word: int) -> int:
    """The PCG64 state, with inc _PROBE_INC, whose next output is `word`:
    its step lands on high half _PROBE_HIGH and a low half that XSL-RR
    turns into `word`."""
    rot = _PROBE_HIGH >> 58
    low = _PROBE_HIGH ^ ((word << rot | word >> (64 - rot)) & _MASK64)
    stepped = _PROBE_HIGH << 64 | low
    return (stepped - _PROBE_INC) * _PCG_INVERSE & _MASK128


def _probe(rng: np.random.Generator, word: int) -> tuple[float, int]:
    """standard_normal() of `rng` set to the state whose next output is
    `word`, and how many words it read (3 standing for 3 or more)."""
    state = _word_state(word)
    rng.bit_generator.state = _generator_state(state, _PROBE_INC)
    x = rng.standard_normal()
    after = rng.bit_generator.state["state"]["state"]
    for read in (1, 2):
        state = (state * _PCG_MULT + _PROBE_INC) & _MASK128
        if after == state:
            return x, read
    return x, 3


def _fast_normals(words: np.ndarray, w: np.ndarray,
                  bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each word's fast-path normal (before + 0.0) and whether the fast path
    applies, from _ziggurat's tables."""
    low = words & 0x1FF
    rabs = (words >> 9) & _RABS_MASK
    return rabs * w[low], rabs < bound[low]


@functools.lru_cache(maxsize=None)
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """The fast path's multipliers and bounds, indexed by a word's low 9
    bits (idx and sign): +-w[idx] and bound[idx], derived from the installed
    numpy's standard_normal (see the module docstring).  At rabs = 1 a draw
    returns 1 * w: it takes the fast path, or for layer 1 (bound 0) accepts
    the layer's edge at once.  On first use they are checked against
    standard_normal; if it disagrees (a numpy release with other tables),
    every bound is 0, so that every trial is drawn by the generator."""
    rng = np.random.Generator(np.random.PCG64(0))
    w = np.array([_probe(rng, 1 << 9 | idx)[0] for idx in range(_LAYERS)])
    bound = np.rint(2.0**52 * np.roll(w, 1) / w).astype(np.uint64)
    bound[1] = 0
    w, bound = np.concatenate([w, -w]), np.tile(bound, 2)
    if not _ziggurat_agrees(w, bound):
        bound[:] = 0
    return w, bound


def _ziggurat_agrees(w: np.ndarray, bound: np.ndarray) -> bool:
    """Whether standard_normal, on one word per layer with rabs = bound - 1
    (the largest fast one; the sign alternating with idx), reads that word
    alone and returns what _fast_normals gives.  A bound below numpy's only
    replays more trials, so the words at the bounds are not drawn."""
    words = [(b - 1) << 9 | (idx & 1) << 8 | idx
             for idx, b in enumerate(bound[:_LAYERS].tolist()) if b > 0]
    xs, fast = _fast_normals(np.array(words, dtype=np.uint64), w, bound)
    rng = np.random.Generator(np.random.PCG64(0))
    return bool(fast.all()) and all(_probe(rng, word) == (x, 1)
                                    for word, x in zip(words, xs.tolist()))


def _draw(replay: _Replay, stream: _Stream, message_count: int,
          mode: DetectionMode) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's draws from its default_rng stream: 4 normals per message
    (re0, re1, im0, im1: the stream of one random_qubit call each), then, in
    sampled mode, the uniform of the receiver's projective check.  (T, 4m)
    normals and (T,) uniforms.

    A trial whose normals all take the ziggurat's fast path reads one word
    each, and its uniform, random(), is the next word's top 53 bits / 2^53.
    Any other trial is replayed: `replay`'s generator is set to its state
    and draws."""
    count = 4 * message_count
    normals, fast = _fast_normals(stream.words[:, :count], *_ziggurat())
    if mode is DetectionMode.SAMPLED:
        uniforms = (stream.words[:, count] >> 11) * 2.0**-53
    else:
        uniforms = np.zeros(len(normals))
    for j, rng in replay(stream, np.flatnonzero(~fast.all(axis=1))):
        rng.standard_normal(out=normals[j])
        if mode is DetectionMode.SAMPLED:
            uniforms[j] = rng.random()
    # normal() returns 0.0 + 1.0 * x: the same bits, except -0.0 -> +0.0
    normals += 0.0
    return normals, uniforms


def _guesses(replay: _Replay, strategy: Optional[EveStrategy], n: int,
             stream: Optional[_Stream], value_codes: np.ndarray) -> np.ndarray:
    """Eve's guess code for each trial (_guess_code; 0 when she is absent).
    A uniform guess reads the value from the token and takes the channel
    integers(1, n + 1) of default_rng(splitmix64(seed ^ strategy.seed)),
    whose one-word `stream` is given.  That is Lemire's multiply-shift of the
    word's low 32 bits (arXiv:1805.10941), which may reject only a product
    whose low word is below n; those draws, about n in 2^32, are asked of
    `replay`'s generator set to the stream's state."""
    if strategy is None:
        return np.zeros(len(value_codes), dtype=np.intp)
    if strategy.mode == "fixed":
        code = _guess_code(strategy.fixed_channel, _AUX_CYCLE.index(strategy.fixed_value))
        return np.full(len(value_codes), code, dtype=np.intp)
    product = (stream.words[:, 0] & 0xFFFFFFFF) * n
    channels = (1 + (product >> 32)).astype(np.intp)
    for j, rng in replay(stream, np.flatnonzero((product & 0xFFFFFFFF) < n)):
        channels[j] = rng.integers(1, n + 1)
    return _guess_code(channels, value_codes)


def _messages(normals: np.ndarray) -> np.ndarray:
    """(T, m, 2) normalised message coefficients from the (T, 4m) normals
    of `_draw`: random_qubit's, within 1e-15 (its norm is a BLAS dot)."""
    parts = normals.reshape(len(normals), -1, 2, 2)
    raw = parts[:, :, 0] + 1j * parts[:, :, 1]
    norms = np.sqrt((raw.real**2 + raw.imag**2).sum(axis=2))
    return raw / norms[:, :, None]


def _fidelities(bloch: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """(T, k) fidelities of k channels per trial, from the trials' (T, m +
    2, 8) Bloch tables and the channels' (T, k, 3, n + 1) factor indices
    (_Checks).  Each trial's fidelities are computed from its own rows
    alone, so they do not depend on the other trials of the batch."""
    size = bloch[0].size
    terms = np.take(bloch, factors + np.arange(0, bloch.size, size).reshape(-1, 1, 1, 1))
    # numpy's product along a short last axis is slower than this loop
    products = terms[..., 0] * terms[..., 1]
    for j in range(2, terms.shape[-1]):
        products *= terms[..., j]
    return (1 + products[..., 0] + products[..., 1] + products[..., 2]) / 2


def _run_trials(
    replay: _Replay,
    n: int,
    aux_channel: int,
    value_codes: np.ndarray,
    seeds: np.ndarray,
    strategy: Optional[EveStrategy],
    detection_mode: DetectionMode,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eve's success and the receiver's detection (boolean arrays in trial
    order) and Eve's guess codes, for trials of the registered cases on
    `aux_channel` with the given true value codes and uint64 seeds."""
    count, m = len(seeds), n - 1
    seed_sets = [(seeds, 4 * m + (detection_mode is DetectionMode.SAMPLED))]
    uniform = strategy is not None and strategy.mode == "uniform"
    if uniform:
        seed = require_integer("strategy seed", strategy.seed)
        seed_sets.append((splitmix64(seeds ^ (seed & _MASK64)), 1))
    streams = _pcg64_streams(seed_sets)
    normals, uniforms = _draw(replay, streams[0], m, detection_mode)
    guesses = _guesses(replay, strategy, n, streams[1] if uniform else None, value_codes)
    codes = value_codes * (3 * n + 1) + guesses
    checks = _checks(n, aux_channel)
    checks.fill(codes)
    bloch = np.empty((count, m + 2, 8))
    bloch[:, :m] = bloch_rows(_messages(normals))
    bloch[:, m:] = checks.known[value_codes]

    eve_success = np.zeros(count, dtype=bool)
    rows = np.flatnonzero(checks.recoverable[codes])
    if len(rows):
        fidelities = _fidelities(bloch[rows], checks.first[codes[rows]])
        eve_success[rows] = (fidelities >= _FIDELITY_BAR).all(axis=1)
    if detection_mode is DetectionMode.OMNISCIENT:
        fidelities = _fidelities(bloch, checks.received[codes])
        detects = (fidelities < _FIDELITY_BAR).any(axis=1)
    else:
        residue = checks.received[codes, checks.residue[value_codes], None]
        fidelities = _fidelities(bloch, residue)
        detects = uniforms < 1.0 - fidelities[:, 0]
    return eve_success, detects, guesses


def _check_inputs(n: int, strategy: Optional[EveStrategy],
                  detection_mode: DetectionMode) -> None:
    """Refuse a malformed strategy or detection mode before any trial runs."""
    if not isinstance(detection_mode, DetectionMode):
        raise InvalidInput(f"detection mode must be a DetectionMode, got {detection_mode!r}")
    if strategy is None:
        return
    if not isinstance(strategy, EveStrategy):
        raise InvalidInput(f"strategy must be an EveStrategy or None, got {strategy!r}")
    require_integer("strategy seed", strategy.seed)
    if strategy.mode == "fixed":
        channel, value = strategy.fixed_channel, strategy.fixed_value
        require_integer("fixed guess channel", channel)
        if not 1 <= channel <= n:
            raise InvalidInput(f"fixed guess channel must lie in 1..{n}, got {channel!r}")
        if not isinstance(value, AuxValue):
            raise InvalidInput(f"fixed guess value must be an AuxValue, got {value!r}")
    elif strategy.mode != "uniform":
        raise InvalidInput(f"unknown strategy mode '{strategy.mode}'")


def run_trial(
    channel_count: int,
    true_case: ProtocolCase,
    strategy: Optional[EveStrategy],
    trial_seed: int,
    detection_mode: DetectionMode = DetectionMode.OMNISCIENT,
) -> TrialOutcome:
    """One intercept-decode-reencode trial.  strategy=None is Eve absent.

    `true_case` must be the registered case for its auxiliary channel and
    value (relocated_case's), whose compiled pull-back maps the trial uses.
    The trial is a batch of one through run_experiment's core.
    """
    n = require_integer("channel count", channel_count)
    if true_case.channel_count != n:
        raise InvalidInput("true_case does not match channel_count")
    trial_seed = require_integer("trial seed", trial_seed)
    _check_inputs(n, strategy, detection_mode)
    true = _compiled(n, true_case.aux_channel, true_case.aux_value)
    if true.case is not true_case and true.case != true_case:
        raise InvalidInput("true_case is not the registered case for its auxiliary channel")
    eve_success, detects, (guess,) = _run_trials(
        _Replay(), n, true_case.aux_channel,
        np.array([_AUX_CYCLE.index(true_case.aux_value)]),
        np.array([trial_seed & _MASK64], dtype=np.uint64), strategy, detection_mode)
    return TrialOutcome(
        eve_success=bool(eve_success[0]),
        bob_detects=bool(detects[0]),
        true_case_id=true_case.case_id,
        guessed_case_id=_compiled(n, *_guessed(int(guess))).case.case_id if guess else None,
    )


def run_experiment(
    channel_count: int,
    trials: int,
    strategy: Optional[EveStrategy],
    base_seed: int,
    detection_mode: DetectionMode = DetectionMode.OMNISCIENT,
    aux_value: Optional[AuxValue] = None,
) -> ExperimentStats:
    """Aggregate `trials` independent trials against the canonical case.

    The auxiliary channel is the canonical one for the size; the classical
    value is drawn per trial unless pinned by `aux_value` (fixed-guess
    strategies pin it to their own value so "guessed the true case" is
    well defined).  Each chunk of CHUNK trials derives its seeds, value
    codes and generator states as arrays and runs as one pass
    (_run_trials), with no loop over its groups.
    """
    n = require_integer("channel count", channel_count)
    trials = require_integer("trials", trials)
    base_seed = require_integer("base seed", base_seed)
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    if n not in CANONICAL_AUX_CHANNEL:
        raise InvalidInput(f"no canonical case registered for {n} channels")
    _check_inputs(n, strategy, detection_mode)
    if aux_value is not None and not isinstance(aux_value, AuxValue):
        raise InvalidInput(f"aux_value must be an AuxValue or None, got {aux_value!r}")
    if aux_value is None and strategy is not None and strategy.mode == "fixed":
        aux_value = strategy.fixed_value

    replay = _Replay()
    successes = 0
    detections = 0
    for start in range(0, trials, CHUNK):
        indices = np.arange(start, min(start + CHUNK, trials), dtype=np.uint64)
        seeds = trial_seed(base_seed & _MASK64, indices)
        if aux_value is None:
            value_codes = (splitmix64(seeds) % 3).astype(np.intp)
        else:
            value_codes = np.full(len(seeds), _AUX_CYCLE.index(aux_value))
        eve_success, detects, _ = _run_trials(replay, n, CANONICAL_AUX_CHANNEL[n],
                                              value_codes, seeds, strategy, detection_mode)
        successes += int(eve_success.sum())
        detections += int(detects.sum())

    if strategy is None:
        analytic = 0.0
    elif strategy.mode == "uniform":
        analytic = 1.0 / n
    else:
        correct_channel = strategy.fixed_channel == CANONICAL_AUX_CHANNEL[n]
        correct_value = aux_value == strategy.fixed_value
        analytic = 1.0 if (correct_channel and correct_value) else 0.0

    halfwidth = 1.959963984540054 * float(np.sqrt(analytic * (1 - analytic) / trials))
    return ExperimentStats(
        channel_count=n,
        trials=trials,
        mode=detection_mode.value,
        strategy="absent" if strategy is None else strategy.describe(),
        eve_success_rate=successes / trials,
        detection_rate=detections / trials,
        analytic_success_rate=analytic,
        ci95_halfwidth=halfwidth,
        base_seed=base_seed,
    )
