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
and the encoder for each size, are compiled once into cached matrices
(qsim.gate_unitary, stored as complex128).  A trial applies at most four
of them: the encoder, Eve's decoder, Eve's re-encode and the true decoder.

Per-trial seeds derive from the experiment base seed through the splitmix64
sequence, so results are reproducible bit for bit and independent of
execution order.
"""

from __future__ import annotations

import enum
import functools
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
    message_batch,
    post_swap_plan,
    relocated_case,
)
from .qsim import (
    Hadamard,
    PureState,
    _apply_gates,
    channel_fidelity,
    gate_unitary,
    make_state,  # noqa: F401  (perfbench/tracer.py traces this name here)
    random_qubit,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FIDELITY_BAR = 1 - 1e-9


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer (Steele, Lea, Flood 2014)."""
    z = (x + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(base_seed: int, index: int) -> int:
    """Seed for one trial: splitmix64 stream member `index` of `base_seed`."""
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


@dataclass(frozen=True)
class _CompiledCase:
    """A registered case with its gate words compiled to matrices.

    The matrices are real but stored as complex128: a mat-vec with the
    complex state then needs no cast, and gives the same bits."""

    case: ProtocolCase
    decoder: np.ndarray  # the case's bob_program
    reencode: np.ndarray  # Eve's rebuild after decoding as this case


@functools.lru_cache(maxsize=None)
def _compiled(n: int, aux_channel: int, value: AuxValue) -> _CompiledCase:
    case = relocated_case(n, aux_channel, value)
    return _CompiledCase(
        case,
        gate_unitary(n, case.bob_program).astype(complex),
        gate_unitary(n, _reencode_gates(case)).astype(complex),
    )


@functools.lru_cache(maxsize=None)
def _encoder(n: int) -> np.ndarray:
    return gate_unitary(n, alice_encoder(n)).astype(complex)


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
    """
    n = channel_count
    if true_case.channel_count != n:
        raise InvalidInput("true_case does not match channel_count")
    true = _compiled(n, true_case.aux_channel, true_case.aux_value)
    if true.case is not true_case and true.case != true_case:
        raise InvalidInput("true_case is not the registered case for its auxiliary channel")
    rng = np.random.default_rng(trial_seed & _MASK64)
    messages = [random_qubit(rng) for _ in true_case.message_channels]
    sent = layout_states(true_case.input_layout, message_batch(messages))[0]
    wire = _encoder(n) @ sent

    guessed_id = None
    eve_success = False
    if strategy is None:
        forwarded = wire
    else:
        if strategy.mode == "uniform":
            guess_rng = np.random.default_rng(
                splitmix64((trial_seed ^ strategy.seed) & _MASK64)
            )
            g = int(guess_rng.integers(1, n + 1))
            v = true_case.aux_value
        elif strategy.mode == "fixed":
            g, v = strategy.fixed_channel, strategy.fixed_value
        else:
            raise InvalidInput(f"unknown strategy mode '{strategy.mode}'")
        eve = _compiled(n, g, v)
        eve_case = eve.case
        guessed_id = eve_case.case_id
        decoded = eve.decoder @ wire
        decoded_state = PureState(n, decoded, _trust=True)

        # Full recovery requires her believed message channels to be the true
        # ones; a wrong auxiliary guess silently discards one true message.
        if set(eve_case.message_channels) == set(true_case.message_channels):
            ok = True
            for ch, out in eve_case.expected_layout.items():
                if not isinstance(out, MessageOut):
                    continue
                source = eve_case.message_channels[out.index]
                true_msg = messages[true_case.message_channels.index(source)]
                if channel_fidelity(decoded_state, ch, true_msg) < _FIDELITY_BAR:
                    ok = False
                    break
            eve_success = ok
        forwarded = eve.reencode @ decoded

    out = PureState(n, true.decoder @ forwarded, _trust=True)

    fids = {}
    for ch, expected in true_case.expected_layout.items():
        fids[ch] = channel_fidelity(out, ch, expected.qubit(messages))
    if detection_mode is DetectionMode.OMNISCIENT:
        detects = any(f < _FIDELITY_BAR for f in fids.values())
    else:
        p_orthogonal = 1.0 - fids[true_case.residue_channel]
        detects = bool(rng.random() < p_orthogonal)

    return TrialOutcome(
        eve_success=bool(eve_success),
        bob_detects=detects,
        true_case_id=true_case.case_id,
        guessed_case_id=guessed_id,
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
    well defined).
    """
    n = channel_count
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    if n not in CANONICAL_AUX_CHANNEL:
        raise InvalidInput(f"no canonical case registered for {n} channels")
    if aux_value is None and strategy is not None and strategy.mode == "fixed":
        aux_value = strategy.fixed_value

    successes = 0
    detections = 0
    for i in range(trials):
        seed_i = trial_seed(base_seed, i)
        if aux_value is None:
            value = _AUX_CYCLE[splitmix64(seed_i) % 3]
        else:
            value = aux_value
        true_case = _compiled(n, CANONICAL_AUX_CHANNEL[n], value).case
        outcome = run_trial(n, true_case, strategy, seed_i, detection_mode)
        successes += outcome.eve_success
        detections += outcome.bob_detects

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
