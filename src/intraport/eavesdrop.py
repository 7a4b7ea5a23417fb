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

Every gate word a trial runs depends only on the protocol cases involved,
never on the trial, so each registered case's decoder and Eve's re-encode,
and the encoder for each size, are compiled once into cached real float64
matrices (qsim.gate_unitary).  A trial applies at most four of them: the
encoder, Eve's decoder, Eve's re-encode and the true decoder.

Each trial draws as if from its own generators, seeded from the
experiment base seed through the splitmix64 sequence: default_rng(seed)
for its messages and sampled check and, for a uniform guess,
default_rng(splitmix64(seed ^ strategy.seed)).  So results are
reproducible bit for bit and independent of execution order.  Building
those generators would cost about 12 us each, more than the rest of a
batched trial, and none is built: numpy's SeedSequence hash and PCG64
seeding (O'Neill, HMC-CS-2014-0905) are fixed algorithms that numpy keeps
stable, because seeded streams must not change between releases.  So
_pcg64_states derives a whole chunk's generator states in one pass (the
hash as uint32 array ops, the two 128-bit LCG steps of the seeding in
Python ints), and one Generator, made per call, is set to each trial's
state in turn before it draws.  The draws equal default_rng's bit for bit;
the tests compare them directly.

run_experiment works in chunks of CHUNK trials: it derives the chunk's
seeds, true values and guess seeds as uint64 array ops, draws every trial,
groups the trials by (true case, guessed case) pair, and runs each group
as one batch: one matrix product per compiled matrix, one contraction per
checked channel.  run_trial is a batch of one through the same code.
"""

from __future__ import annotations

import enum
import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInput, InvalidLayout
from .protocol import (
    AuxValue,
    CANONICAL_AUX_CHANNEL,
    MessageOut,
    ProtocolCase,
    ResidueOut,
    alice_encoder,
    layout_states,
    post_swap_plan,
    relocated_case,
)
from .qsim import Hadamard, _apply_gates, gate_unitary
# perfbench/tracer.py traces these names here, though no trial calls them.
from .qsim import channel_fidelity, make_state, random_qubit  # noqa: F401

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


@dataclass(frozen=True)
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
    """A registered case with its gate words compiled to matrices.

    H and CNOT are real, so the matrices stay real float64: a product with a
    complex batch casts the matrix once per batch, not once per trial."""

    case: ProtocolCase
    decoder: np.ndarray  # the case's bob_program
    reencode: np.ndarray  # Eve's rebuild after decoding as this case


@functools.lru_cache(maxsize=None)
def _compiled(n: int, aux_channel: int, value: AuxValue) -> _CompiledCase:
    case = relocated_case(n, aux_channel, value)
    return _CompiledCase(
        case,
        gate_unitary(n, case.bob_program),
        gate_unitary(n, _reencode_gates(case)),
    )


@functools.lru_cache(maxsize=None)
def _encoder(n: int) -> np.ndarray:
    return gate_unitary(n, alice_encoder(n))


def _reencode_gates(case: ProtocolCase):
    """Eve's rebuild: believed outputs back to input placement, residue
    channel refreshed to the auxiliary value, then the encoder."""
    desired = {**case.input_layout, case.aux_channel: ResidueOut(case.residue)}
    gates = post_swap_plan(case.expected_layout, desired)

    res = case.residue
    value_q = case.aux_value.qubit
    overlap = abs(np.vdot(value_q.as_array(), res.as_array())) ** 2
    if overlap < _FIDELITY_BAR:
        rotated = _apply_gates(res.as_array(), 1, [Hadamard(1)])
        if abs(np.vdot(value_q.as_array(), rotated)) ** 2 < _FIDELITY_BAR:
            raise InvalidLayout("registered residue is not one H away from the value")
        gates.append(Hadamard(case.aux_channel))
    return gates + alice_encoder(case.channel_count)


# numpy's SeedSequence(seed).generate_state(4, uint64) (bit_generator.pyx)
# and PCG64 seeding.  Each hash step k xors a uint32 with a constant c_k,
# multiplies it by c_{k+1} = c_k * mult and xors its high 16 bits into the
# low ones; mix combines two pool words.  The hash works mod 2^32, the
# seeding mod 2^128.
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
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


def _pcg64_states(seeds: np.ndarray) -> list[dict]:
    """`default_rng(seed).bit_generator.state` for each uint64 seed, without
    building a generator: SeedSequence(seed).generate_state(4, uint64) for
    the whole array at once, then PCG64's seeding in Python ints."""
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
    halves = _hashmix(pool[_OUT_WORDS], _OUT_XOR, _OUT_MULT).astype(np.uint64)
    words = halves[0::2] | halves[1::2] << 32

    states = []
    for hi, lo, inc_hi, inc_lo in zip(*words.tolist()):
        # state = 0, inc = seq << 1 | 1, step, add the initial state, step
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
        state = ((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _draw(rng: np.random.Generator, seeds: np.ndarray, message_count: int,
          mode: DetectionMode) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's draws from `rng` set to default_rng(seed)'s state: 4
    normals per message (re0, re1, im0, im1: the stream of one random_qubit
    call each), then, in sampled mode, the uniform of the receiver's
    projective check.  (T, 4m) normals and (T,) uniforms."""
    normals = np.empty((len(seeds), 4 * message_count))
    uniforms = np.zeros(len(seeds))
    for j, state in enumerate(_pcg64_states(seeds)):
        rng.bit_generator.state = state
        normals[j] = rng.normal(size=4 * message_count)
        if mode is DetectionMode.SAMPLED:
            uniforms[j] = rng.random()
    return normals, uniforms


def _guesses(rng: np.random.Generator, strategy: Optional[EveStrategy], n: int,
             seeds: np.ndarray, values: list[AuxValue]) -> list:
    """Eve's (auxiliary channel, value) guess for each trial; None when she
    is absent.  A uniform guess draws from `rng` set to the state of
    default_rng(splitmix64(seed ^ strategy.seed))."""
    if strategy is None:
        return [None] * len(seeds)
    if strategy.mode == "fixed":
        return [(strategy.fixed_channel, strategy.fixed_value)] * len(seeds)
    if strategy.mode != "uniform":
        raise InvalidInput(f"unknown strategy mode '{strategy.mode}'")
    guesses = []
    for state, value in zip(_pcg64_states(splitmix64(seeds ^ (strategy.seed & _MASK64))),
                            values):
        rng.bit_generator.state = state
        guesses.append((int(rng.integers(1, n + 1)), value))
    return guesses


def _messages(normals: np.ndarray) -> np.ndarray:
    """(T, m, 2) normalised message coefficients from the (T, 4m) normals
    of `_draw`: random_qubit's, within 1e-15 (its norm is a BLAS dot)."""
    parts = normals.reshape(len(normals), -1, 2, 2)
    raw = parts[:, :, 0] + 1j * parts[:, :, 1]
    norms = np.sqrt((raw.real**2 + raw.imag**2).sum(axis=2))
    return raw / norms[:, :, None]


def _channel_fidelities(states: np.ndarray, expected: dict[int, np.ndarray]) -> np.ndarray:
    """(T, len(expected)) fidelities <q| rho_channel |q> of each state in the
    (T, 2^n) batch, one column per channel of `expected`, which maps the
    channel to its qubit q: one (T, 2) row per state, or one (2,) for all.

    Each channel is one contraction over the whole batch, through a view of
    the states, so no copy of the batch is made per channel.  It is not
    bitwise equal to qsim.channel_fidelity (it sums in another order and
    differs in the last bits on about half the cases tried: 1,739 of 3,600).
    That is kept on purpose: its results only become counts, each from a
    comparison with the 1e-9 bar below 1 or with a uniform draw, and a
    difference of a few ulp moves a count only when a fidelity lands that
    close to the bar or to the draw."""
    count = len(states)
    out = np.empty((count, len(expected)))
    for col, (ch, qubit) in enumerate(expected.items()):
        bra0, bra1 = np.conj(qubit).T[..., None, None]
        rows = states.reshape(count, 1 << (ch - 1), 2, -1)
        contracted = rows[:, :, 0] * bra0
        contracted += rows[:, :, 1] * bra1
        flat = contracted.reshape(count, -1).view(float)
        out[:, col] = np.einsum("tr,tr->t", flat, flat)
    return out


def _run_batch(
    true: _CompiledCase,
    eve: Optional[_CompiledCase],
    normals: np.ndarray,
    uniforms: np.ndarray,
    detection_mode: DetectionMode,
) -> tuple[np.ndarray, np.ndarray]:
    """Eve's success and the receiver's detection, as boolean arrays, for a
    batch of trials that share one true case and one guess (eve=None: Eve
    absent), from each trial's normals and sampled-check uniform."""
    n = true.case.channel_count
    messages = _messages(normals)
    wire = layout_states(true.case.input_layout, messages) @ _encoder(n).T
    eve_success = np.zeros(len(normals), dtype=bool)
    if eve is not None:
        decoded = wire @ eve.decoder.T
        # Full recovery requires her believed message channels to be the true
        # ones; a wrong auxiliary guess silently discards one true message.
        if set(eve.case.message_channels) == set(true.case.message_channels):
            sources = [true.case.message_channels.index(ch) for ch in eve.case.message_channels]
            believed = {ch: messages[:, sources[out.index]]
                        for ch, out in eve.case.expected_layout.items()
                        if isinstance(out, MessageOut)}
            eve_success = (_channel_fidelities(decoded, believed) >= _FIDELITY_BAR).all(axis=1)
        wire = decoded @ eve.reencode.T

    received = wire @ true.decoder.T
    if detection_mode is DetectionMode.OMNISCIENT:
        expected = {ch: messages[:, out.index] if isinstance(out, MessageOut)
                    else out.state.as_array()
                    for ch, out in true.case.expected_layout.items()}
        detects = (_channel_fidelities(received, expected) < _FIDELITY_BAR).any(axis=1)
    else:
        residue = {true.case.residue_channel: true.case.residue.as_array()}
        detects = uniforms < 1.0 - _channel_fidelities(received, residue)[:, 0]
    return eve_success, detects


def _run_trials(
    rng: np.random.Generator,
    n: int,
    aux_channel: int,
    values: list[AuxValue],
    seeds: np.ndarray,
    strategy: Optional[EveStrategy],
    detection_mode: DetectionMode,
) -> tuple[np.ndarray, np.ndarray, list]:
    """Eve's success and the receiver's detection (boolean arrays in trial
    order) and Eve's guesses, for trials of the registered cases on
    `aux_channel` with the given true values and uint64 seeds.  The trials
    run as one batch per (true value, guess) group."""
    normals, uniforms = _draw(rng, seeds, n - 1, detection_mode)
    guesses = _guesses(rng, strategy, n, seeds, values)
    groups: dict[tuple, list[int]] = defaultdict(list)
    for j, key in enumerate(zip(values, guesses)):
        groups[key].append(j)
    eve_success = np.empty(len(seeds), dtype=bool)
    detects = np.empty(len(seeds), dtype=bool)
    for (value, guess), rows in groups.items():
        true = _compiled(n, aux_channel, value)
        eve = None if guess is None else _compiled(n, *guess)
        eve_success[rows], detects[rows] = _run_batch(true, eve, normals[rows], uniforms[rows],
                                                      detection_mode)
    return eve_success, detects, guesses


def run_trial(
    channel_count: int,
    true_case: ProtocolCase,
    strategy: Optional[EveStrategy],
    trial_seed: int,
    detection_mode: DetectionMode = DetectionMode.OMNISCIENT,
) -> TrialOutcome:
    """One intercept-decode-reencode trial.  strategy=None is Eve absent.

    `true_case` must be the registered case for its auxiliary channel and
    value (relocated_case's), whose compiled matrices the trial applies.
    The trial is a batch of one through run_experiment's core.
    """
    n = channel_count
    if true_case.channel_count != n:
        raise InvalidInput("true_case does not match channel_count")
    true = _compiled(n, true_case.aux_channel, true_case.aux_value)
    if true.case is not true_case and true.case != true_case:
        raise InvalidInput("true_case is not the registered case for its auxiliary channel")
    eve_success, detects, (guess,) = _run_trials(
        np.random.Generator(np.random.PCG64(0)), n, true_case.aux_channel,
        [true_case.aux_value], np.array([trial_seed & _MASK64], dtype=np.uint64),
        strategy, detection_mode)
    return TrialOutcome(
        eve_success=bool(eve_success[0]),
        bob_detects=bool(detects[0]),
        true_case_id=true_case.case_id,
        guessed_case_id=None if guess is None else _compiled(n, *guess).case.case_id,
    )


_AUX_CYCLE = (AuxValue.PLUS, AuxValue.ZERO, AuxValue.ONE)


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
    well defined).  Each chunk of CHUNK trials derives its seeds, values
    and generator states as arrays, then runs as one batch per (true
    value, guess) group.
    """
    n = channel_count
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    if n not in CANONICAL_AUX_CHANNEL:
        raise InvalidInput(f"no canonical case registered for {n} channels")
    if aux_value is None and strategy is not None and strategy.mode == "fixed":
        aux_value = strategy.fixed_value

    # Every trial sets this generator to its own state; it is never shared
    # with another call.
    rng = np.random.Generator(np.random.PCG64(0))
    successes = 0
    detections = 0
    for start in range(0, trials, CHUNK):
        indices = np.arange(start, min(start + CHUNK, trials), dtype=np.uint64)
        seeds = trial_seed(base_seed & _MASK64, indices)
        if aux_value is None:
            values = [_AUX_CYCLE[v] for v in (splitmix64(seeds) % 3).tolist()]
        else:
            values = [aux_value] * len(seeds)
        eve_success, detects, _ = _run_trials(rng, n, CANONICAL_AUX_CHANNEL[n], values, seeds,
                                              strategy, detection_mode)
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
