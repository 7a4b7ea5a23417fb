"""Bounded synthesis of receiver decoding programs.

solve_bob_program looks for a gate sequence that, appended after the
universal receiver prefix, turns the encoded state back into a product in
which every message reappears on some channel.  The search is iterative
deepening over {H_k, CN(i,j)} words in a fixed canonical gate order, with
two prunings: a gate never follows itself (self-inverse pairs cancel), and
adjacent commuting gates must appear in canonical order (each commutation
class is enumerated once, by its least word).

The depth-first walk runs on one fixed Haar-random reference input.  Above
the last two levels it steps one gate at a time.  At a node two gates short
of the depth it expands every allowed (first, second) gate pair at once: CN
children are one gather through precomputed basis-index permutations, H
children come from the batched kernel, and all (at most g^2, g the alphabet
size) grandchildren are screened in one vectorized pass, each channel's
purity tested only on the survivors of the channels before it.  Hits are
verified in row-major (first, second) order, so the first accepted word is
still the least canonical word of its length.

Verification pushes every message tuple through the whole word as one
batch: the spanning grid {|0>, |1>, |+>, |0>+i|1>} per message channel plus
20 further random tuples, each required to reproduce the expected layout
with fidelity >= 1 - 1e-9.  This is a check, not a proof: every grid point
is compared only up to its own global phase, so grid correctness does not
by linearity imply correctness on superpositions of grid points.  All
randomness is internally seeded, so identical arguments always produce the
identical program.

Exhaustive enumeration is capped at a per-size depth horizon (blind word
enumeration grows as (N^2)^depth); past the horizon the registered
constructive decoder is returned when the auxiliary sits on the canonical
channel and the program fits the bound.  A None result therefore means "no
program found within the searched bound", not a nonexistence proof.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ChannelOutOfRange, InvalidInput, UnsupportedSize
from .protocol import (
    AuxValue,
    CANONICAL_AUX_CHANNEL,
    ExpectedOut,
    MessageOut,
    ResidueOut,
    alice_encoder,
    bob_prefix,
    canonical_case,
)
from .qsim import (
    ControlledNot,
    Gate,
    Hadamard,
    SingleQubit,
    _apply_gates,
    _apply_h,
    gates_commute,
)

_REFERENCE_SEED = 0x1A7B0C5
_VERIFY_SEED = 0x5EAF00D
_HIT_TOL = 1e-7
_VERIFY_TOL = 1e-9

# Largest exhaustively enumerated extension length per channel count.
_DEPTH_HORIZON = {3: 7, 4: 6, 5: 5, 6: 4}

# |0>, |1>, |+>, |0>+i|1> (normalized)
_SPAN_STATES = (np.array([[1, 0], [0, 1], [1, 1], [1, 1j]], dtype=complex)
                / np.sqrt([[1], [1], [2], [2]]))


def gate_alphabet(channel_count: int) -> list[Gate]:
    """Canonical gate order: H_1..H_N, then CN(c,t) lexicographic."""
    gates: list[Gate] = [Hadamard(k) for k in range(1, channel_count + 1)]
    for c in range(1, channel_count + 1):
        for t in range(1, channel_count + 1):
            if c != t:
                gates.append(ControlledNot(c, t))
    return gates


def _random_messages(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    """(count, m, 2) Haar-random message qubits, drawn tuple by tuple."""
    out = np.empty((count, m, 2), dtype=complex)
    for t in range(count):
        for j in range(m):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            out[t, j] = v / np.linalg.norm(v)
    return out


class _Task:
    """Shared data for one search invocation."""

    def __init__(self, n: int, aux_channel: int, value: AuxValue,
                 target: Optional[Mapping[int, ExpectedOut]]):
        self.n = n
        self.dim = 2**n
        self.message_channels = tuple(c for c in range(1, n + 1) if c != aux_channel)
        m = len(self.message_channels)
        self.pre_gates = alice_encoder(n) + bob_prefix(n)
        # the input is itself a layout: the auxiliary value plus the messages in order
        self.input_layout = {ch: MessageOut(self.message_channels.index(ch))
                             for ch in self.message_channels}
        self.input_layout[aux_channel] = ResidueOut(value.qubit)

        self.ref_messages = _random_messages(np.random.default_rng(_REFERENCE_SEED), 1, m)
        ref_input = self._layout_states(self.input_layout, self.ref_messages)
        self.psi0 = _apply_gates(ref_input, n, self.pre_gates)[0]
        grid = np.array(list(itertools.product(range(len(_SPAN_STATES)), repeat=m)))
        self.verify_messages = np.concatenate([
            _SPAN_STATES[grid].reshape(-1, m, 2),
            _random_messages(np.random.default_rng(_VERIFY_SEED), 20, m),
        ])

        self.gates = gate_alphabet(n)
        g = len(self.gates)
        # CN(c,t) is an involution on basis indices: child[i] = state[perm[i]]
        idx = np.arange(self.dim)
        self.cn_perm = np.array([
            np.where((idx >> (n - gt.control)) & 1, idx ^ (1 << (n - gt.target)), idx)
            for gt in self.gates[n:]
        ])
        # allowed[i+1][j]: gate j may follow gate i; row 0 is the word start
        allowed = np.ones((g + 1, g), dtype=bool)
        for i, gi in enumerate(self.gates):
            for j, gj in enumerate(self.gates):
                if i == j or (gates_commute(gi, gj) and j < i):
                    allowed[i + 1, j] = False
        self.allowed = allowed

        self.target = target
        if target is not None:
            self._check_target(target)
            self.goal = self._layout_states(target, self.ref_messages)[0]

    def _check_target(self, target: Mapping[int, ExpectedOut]):
        if set(target) != set(range(1, self.n + 1)):
            raise InvalidInput("target layout must cover every output channel")
        indices = sorted(
            out.index for out in target.values() if isinstance(out, MessageOut)
        )
        if indices != list(range(len(self.message_channels))):
            raise InvalidInput("target layout must place every message exactly once")

    def _layout_states(
        self, layout: Mapping[int, ExpectedOut], messages: np.ndarray
    ) -> np.ndarray:
        """(T, 2^n) product states, channel by channel, for (T, m, 2) message tuples."""
        count = len(messages)
        out = np.ones((count, 1), dtype=complex)
        for ch in range(1, self.n + 1):
            entry = layout[ch]
            if isinstance(entry, MessageOut):
                q = messages[:, entry.index]
            else:
                q = np.broadcast_to(entry.state.as_array(), (count, 2))
            out = (out[:, :, None] * q[:, None, :]).reshape(count, -1)
        return out

    # -- candidate screening ------------------------------------------------

    def screen(self, children: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The subset of `rows` (indices into the (K, 2^n) `children`) worth
        verifying, judged on the reference input only; order is kept."""
        if self.target is not None:
            return rows[np.abs(children[rows] @ self.goal.conj()) > 1 - _HIT_TOL]
        # free mode: all channels must be pure on the reference output; each
        # channel is tested only on the survivors of the channels before it
        for ch in range(1, self.n + 1):
            if not rows.size:
                break
            t = children[rows].reshape(len(rows), 1 << (ch - 1), 2, -1)
            m0, m1 = t[:, :, 0], t[:, :, 1]
            # Tr(rho^2) = rho00^2 + rho11^2 + 2|rho01|^2 for the channel's rho
            rho00 = np.einsum("kix,kix->k", m0, m0.conj()).real
            rho11 = np.einsum("kix,kix->k", m1, m1.conj()).real
            rho01 = np.einsum("kix,kix->k", m0, m1.conj())
            purity = rho00**2 + rho11**2 + 2 * (rho01.real**2 + rho01.imag**2)
            rows = rows[purity > 1 - _HIT_TOL]
        return rows

    def accepts(self, ext: Sequence[Gate], out_ref: np.ndarray) -> bool:
        """Screen and verify one extension whose reference output is known."""
        if not self.screen(out_ref[None, :], np.arange(1)).size:
            return False
        return self.verify(ext, out_ref)

    def _discover_layout(
        self, out_state: np.ndarray
    ) -> Optional[tuple[Mapping[int, ExpectedOut], int]]:
        """Match each reference message to the channel carrying it."""
        t = out_state.reshape((2,) * self.n)
        factors = []
        for ch in range(self.n):
            m = np.moveaxis(t, ch, 0).reshape(2, -1)
            rho = m @ m.conj().T
            _, vecs = np.linalg.eigh(rho)
            factors.append(vecs[:, -1])
        layout: dict[int, ExpectedOut] = {}
        used = set()
        for j, msg in enumerate(self.ref_messages[0]):
            matches = [
                ch for ch in range(1, self.n + 1)
                if ch not in used and abs(np.vdot(factors[ch - 1], msg)) ** 2 > 1 - _HIT_TOL
            ]
            if len(matches) != 1:
                return None
            layout[matches[0]] = MessageOut(j)
            used.add(matches[0])
        leftover = [ch for ch in range(1, self.n + 1) if ch not in used]
        if len(leftover) != 1:
            return None
        res_ch = leftover[0]
        layout[res_ch] = ResidueOut(SingleQubit.from_array(factors[res_ch - 1]))
        return layout, res_ch

    def verify(self, ext: Sequence[Gate], out_ref: np.ndarray) -> bool:
        """Check on the spanning grid plus 20 random message tuples, run
        through the word as one batch; every tuple must reach its layout."""
        if self.target is not None:
            layout = self.target
        else:
            found = self._discover_layout(out_ref)
            if found is None:
                return False
            layout, _ = found
        inputs = self._layout_states(self.input_layout, self.verify_messages)
        out = _apply_gates(inputs, self.n, self.pre_gates + list(ext))
        exp = self._layout_states(layout, self.verify_messages)
        overlap = np.einsum("ti,ti->t", exp.conj(), out)
        return bool(np.all(np.abs(overlap) ** 2 >= 1 - _VERIFY_TOL))

    # -- depth-limited enumeration -------------------------------------------

    def _expand(self, states: np.ndarray) -> np.ndarray:
        """(B, 2^n) -> (B, g, 2^n): each state followed by each alphabet gate."""
        out = np.empty((len(states), len(self.gates), self.dim), dtype=complex)
        for k in range(1, self.n + 1):
            out[:, k - 1] = _apply_h(states, self.n, k)
        out[:, self.n:] = states[:, self.cn_perm]
        return out

    def search_depth(self, depth: int) -> Optional[list[Gate]]:
        if depth == 0:
            return [] if self.accepts([], self.psi0) else None

        g = len(self.gates)
        word: list[int] = []

        def last_gates(state, prev_row) -> Optional[list[Gate]]:
            """Screen every allowed ending of the word below `state` (its last
            gate, or last two when depth >= 2) in one pass; verify the hits in
            row-major gate order, so the first accepted is the least word."""
            one_gate = len(word) == depth - 1
            children = self._expand(state[None])[0]
            rows = np.flatnonzero(self.allowed[prev_row])
            if not one_gate:
                firsts = rows
                children = self._expand(children[firsts]).reshape(-1, self.dim)
                rows = np.flatnonzero(self.allowed[firsts + 1])
            prefix = [self.gates[i] for i in word]
            for r in self.screen(children, rows):
                ending = (r,) if one_gate else (firsts[r // g], r % g)
                ext = prefix + [self.gates[j] for j in ending]
                if self.verify(ext, children[r]):
                    return ext
            return None

        def dfs(state, prev_row) -> Optional[list[Gate]]:
            if len(word) >= depth - 2:
                return last_gates(state, prev_row)
            children = self._expand(state[None])[0]
            for j in np.flatnonzero(self.allowed[prev_row]):
                word.append(j)
                hit = dfs(children[j], j + 1)
                if hit is not None:
                    return hit
                word.pop()
            return None

        return dfs(self.psi0, 0)


def solve_bob_program(
    channel_count: int,
    aux_channel: int,
    aux_value: AuxValue,
    max_gates: int = 10,
    target: Optional[Mapping[int, ExpectedOut]] = None,
) -> Optional[list[Gate]]:
    """Find a decoding program for one (auxiliary channel, value) case.

    Returns the gate list to append after bob_prefix, or None if nothing
    was found within the bound.  With target=None any product output that
    returns every message is accepted (layout discovered); passing an
    expected layout restricts the search to programs reproducing exactly
    that arrangement and residue.
    """
    n = channel_count
    if not 3 <= n <= 6:
        raise UnsupportedSize(f"search supports 3..6 channels, got {n}")
    if not 1 <= aux_channel <= n:
        raise ChannelOutOfRange(f"auxiliary channel {aux_channel} outside 1..{n}")
    if not 0 <= max_gates <= 14:
        raise InvalidInput("max_gates must lie in 0..14")

    task = _Task(n, aux_channel, aux_value, target)
    horizon = _DEPTH_HORIZON[n]
    for depth in range(0, min(max_gates, horizon) + 1):
        found = task.search_depth(depth)
        if found is not None:
            return found

    if max_gates > horizon and aux_channel == CANONICAL_AUX_CHANNEL.get(n):
        case = canonical_case(n, aux_value)
        ext = list(case.bob_program[len(bob_prefix(n)):])
        if len(ext) <= max_gates:
            out_ref = _apply_gates(task.psi0.copy(), n, ext)
            if task.accepts(ext, out_ref):
                return ext
    return None
