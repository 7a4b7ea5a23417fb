"""Exact synthesis of the shortest receiver decoding programs.

solve_bob_program looks for a gate word that, appended after the universal
receiver prefix, turns the encoded state back into a product in which every
message reappears on some channel.  Words are over {H_k, CN(i,j)} in a
fixed canonical gate order, with two prunings: a gate never follows itself
(self-inverse pairs cancel), and adjacent commuting gates must appear in
canonical order.  Among the shortest accepted words the least one in that
order is returned.

Every circuit here is Clifford, so candidates are compared as stabilizer
tableaux (Aaronson and Gottesman, quant-ph/0406196), not as states.  A
candidate is the conjugation tableau of the whole map (encoder, prefix,
word): the image of the auxiliary state's stabilizer S (+Z, -Z or +X on
the auxiliary channel) and the images of X_c and Z_c for each message
channel c.  Each row is a Pauli packed into one integer: x bits, z bits and
a sign bit.  Rows evolve independently, so each gate is a lookup table over
all 2^(2n+1) rows, built once from the Aaronson-Gottesman H and CNOT
updates.

Acceptance is exact.  A word decodes iff the image of S is a single-qubit
Pauli on one channel r, which then holds the residue (that Pauli's +1
eigenstate), and each message's X and Z images, reduced modulo the image
of S, are +X_p and +Z_p on one channel p, where that message reappears.
Target mode also requires each p, r and the residue's stabilizer to be the
target's; a target residue that is not a stabilizer state never matches.

The search is breadth-first over distinct tableaux.  A level's children
are listed parent-major and gate-minor, and a child is kept only if no
shorter word and no earlier word of the same length reached the same rows.
Every prefix of the least accepted word is the first word to reach its
rows, so the first accepted child is the least canonical word of minimal
length, the word a depth-first walk in canonical order finds.  Levels are
expanded in chunks of parents and deduplicated chunk by chunk against a
sorted array of every tableau seen so far.

The walk drops every tableau that cannot decode in the gates it has left.
Let the weight of a Pauli be the number of channels it acts on.  One H or
one CNOT changes a weight by at most one: H maps a channel's non-identity
part to a non-identity part, and a CNOT touches two channels, whose part
of weight 1 or 2 stays non-identity.  In an accepted tableau the image S'
of S has weight 1, and each message row is +X_p or +Z_p, or that Pauli
times S', so the smaller of the weights of `row` and of `row ^ S'` is 1.  The
XOR of the x and z bits is the product up to a sign, and conjugation acts
linearly on those bits, so `row ^ S'` evolves as a Pauli row too.  Hence

    h(T) = max(w(S'), max over message rows of min(w(row), w(row ^ S'))) - 1

is an exact lower bound on the gates a tableau T still needs.  A search to
depth d returns None at once when h(root) > d, and a child at depth k is
dropped when h > d - k; since h <= n - 1, that can only happen where
d - k < n - 1, so shallower levels skip the test.  Dropping keeps the
result: a dropped tableau would be dropped again at every later depth (the
same h, fewer gates left), and every prefix of the least accepted word
meets the bound, so it is still the first word to reach its rows and the
first accepted child is unchanged.

The walk is capped at a per-size depth horizon; within it a None result
proves that no word of the searched length decodes, whether the bound
settled it at the root or the walk ran out of tableaux: a tableau is only
ever dropped when no word of the remaining length can take it to an
accepted one.  Past the horizon the registered constructive decoder is
returned when the auxiliary sits on the canonical channel and the program
fits the bound, so there a None result means "no program found", not a
nonexistence proof.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ChannelOutOfRange, InvalidInput, UnsupportedSize
from .protocol import (
    DEFAULT_TOL,
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
    _apply_gates,  # noqa: F401  (perfbench/tracer.py traces this name here)
    gates_commute,
)

# Largest exhaustively enumerated extension length per channel count.
_DEPTH_HORIZON = {3: 7, 4: 6, 5: 5, 6: 4}

# Children generated per chunk of parents; bounds the memory of one step.
_CHUNK_CHILDREN = 1 << 13

# Pauli matrices by (x, z) bits; (1, 1) is the Hermitian Y = iXZ.
_PAULIS = {
    (1, 0): np.array([[0, 1], [1, 0]]),
    (1, 1): np.array([[0, -1j], [1j, 0]]),
    (0, 1): np.array([[1, 0], [0, -1]]),
}


def gate_alphabet(channel_count: int) -> list[Gate]:
    """Canonical gate order: H_1..H_N, then CN(c,t) lexicographic."""
    gates: list[Gate] = [Hadamard(k) for k in range(1, channel_count + 1)]
    for c in range(1, channel_count + 1):
        for t in range(1, channel_count + 1):
            if c != t:
                gates.append(ControlledNot(c, t))
    return gates


@lru_cache(maxsize=None)
def _gate_index(n: int) -> dict[Gate, int]:
    """Each alphabet gate's position in the canonical order."""
    return {gate: i for i, gate in enumerate(gate_alphabet(n))}


@lru_cache(maxsize=None)
def _follows(n: int) -> np.ndarray:
    """(g+1, g) bool: row i+1 marks the gates that may follow gate i, row 0
    the gates that may start a word."""
    gates = gate_alphabet(n)
    allowed = np.ones((len(gates) + 1, len(gates)), dtype=bool)
    for i, gi in enumerate(gates):
        for j, gj in enumerate(gates):
            if i == j or (gates_commute(gi, gj) and j < i):
                allowed[i + 1, j] = False
    allowed.flags.writeable = False
    return allowed


@lru_cache(maxsize=None)
def _row_tables(n: int) -> np.ndarray:
    """(g, 2^(2n+1)) uint16: every packed row's image under each alphabet
    gate.  Channel k is x bit k-1 and z bit n+k-1; bit 2n is the sign."""
    row = np.arange(1 << (2 * n + 1))
    sign = 1 << (2 * n)
    gates = gate_alphabet(n)
    tables = np.empty((len(gates), len(row)), dtype=np.uint16)
    for i, gate in enumerate(gates):
        if isinstance(gate, Hadamard):
            k = gate.channel - 1
            x, z = (row >> k) & 1, (row >> (n + k)) & 1
            # r ^= x z; swap x and z
            tables[i] = row ^ ((x & z) * sign) ^ ((x ^ z) * ((1 << k) | (1 << (n + k))))
        else:
            c, t = gate.control - 1, gate.target - 1
            xc, zc = (row >> c) & 1, (row >> (n + c)) & 1
            xt, zt = (row >> t) & 1, (row >> (n + t)) & 1
            # r ^= xc zt (xt ^ zc ^ 1); xt ^= xc; zc ^= zt
            tables[i] = (row ^ ((xc & zt & (xt ^ zc ^ 1)) * sign)
                         ^ (xc << t) ^ (zt << (n + c)))
    return tables


@lru_cache(maxsize=None)
def _weights(n: int) -> np.ndarray:
    """(2^(2n+1),) uint8: every packed row's weight, the number of channels
    its Pauli acts on."""
    row = np.arange(1 << (2 * n + 1))
    support = ((row | (row >> n)) & ((1 << n) - 1)).astype(np.uint8)  # n <= 6 bits
    weights = np.unpackbits(support[:, None], axis=1).sum(axis=1, dtype=np.uint8)
    weights.flags.writeable = False
    return weights


def _one_bit(v: np.ndarray) -> np.ndarray:
    """Which entries have exactly one bit set."""
    return (v != 0) & ((v & (v - 1)) == 0)


def _stabilizer_row(q: SingleQubit, channel: int, n: int) -> Optional[int]:
    """The packed single-qubit Pauli on `channel` whose +1 eigenstate is q,
    or None when q is not a stabilizer state."""
    v = q.as_array()
    for (x, z), pauli in _PAULIS.items():
        expectation = np.vdot(v, pauli @ v).real
        for sign in (0, 1):
            if abs(expectation - (-1) ** sign) <= DEFAULT_TOL:
                return (x << (channel - 1)) | (z << (n + channel - 1)) | (sign << (2 * n))
    return None


class _Task:
    """Shared data for one search invocation.

    A tableau is a (2n-1,) uint16 row array: the image of S, then the X
    images and the Z images of the messages in message order.
    """

    def __init__(self, n: int, aux_channel: int, value: AuxValue,
                 target: Optional[Mapping[int, ExpectedOut]]):
        self.n = n
        self.message_channels = tuple(c for c in range(1, n + 1) if c != aux_channel)
        self.gates = gate_alphabet(n)
        self.tables = _row_tables(n)
        self.weights = _weights(n)
        self.allowed = _follows(n)

        rows = ([_stabilizer_row(value.qubit, aux_channel, n)]
                + [1 << (c - 1) for c in self.message_channels]
                + [1 << (n + c - 1) for c in self.message_channels])
        self.root = self._apply(np.array(rows, dtype=np.uint16), alice_encoder(n) + bob_prefix(n))

        self.target = target
        if target is not None:
            self._check_target(target)
            res_ch = next(ch for ch, out in target.items() if isinstance(out, ResidueOut))
            # 0 (the identity) is never the image of S: a residue that is
            # not a stabilizer state never matches
            self.want_s = _stabilizer_row(target[res_ch].state, res_ch, n) or 0
            by_index = {out.index: ch for ch, out in target.items() if isinstance(out, MessageOut)}
            self.want_x = np.array([1 << (by_index[j] - 1) for j in range(len(by_index))],
                                   dtype=np.uint16)

    def _check_target(self, target: Mapping[int, ExpectedOut]):
        if set(target) != set(range(1, self.n + 1)):
            raise InvalidInput("target layout must cover every output channel")
        indices = sorted(
            out.index for out in target.values() if isinstance(out, MessageOut)
        )
        if indices != list(range(len(self.message_channels))):
            raise InvalidInput("target layout must place every message exactly once")

    def _apply(self, rows: np.ndarray, gates: Sequence[Gate]) -> np.ndarray:
        index = _gate_index(self.n)
        for gt in gates:
            rows = self.tables[index[gt], rows]
        return rows

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        """One sortable key per (K, 2n-1) tableau: the rows packed into a
        uint64 when they fit (n <= 4), else the raw bytes."""
        bits = 2 * self.n + 1
        if rows.shape[1] * bits > 64:
            return np.ascontiguousarray(rows).view(np.dtype((np.void, 2 * rows.shape[1]))).ravel()
        keys = np.zeros(len(rows), dtype=np.uint64)
        for i in range(rows.shape[1]):
            keys |= rows[:, i].astype(np.uint64) << np.uint64(bits * i)
        return keys

    def _rows(self, keys: np.ndarray) -> np.ndarray:
        """The (K, 2n-1) tableaux of K keys (inverse of _keys)."""
        if keys.dtype != np.uint64:
            return keys.view(np.uint16).reshape(len(keys), -1)
        bits = np.uint64(2 * self.n + 1)
        shifts = np.arange(2 * self.n - 1, dtype=np.uint64) * bits
        return ((keys[:, None] >> shifts) & ((np.uint64(1) << bits) - np.uint64(1))).astype(np.uint16)

    def _support(self, rows: np.ndarray) -> np.ndarray:
        """The channels each packed Pauli acts on, as bits 0..n-1."""
        return (rows | (rows >> self.n)) & ((1 << self.n) - 1)

    def accepts(self, rows: np.ndarray) -> np.ndarray:
        """(K,) bool: which of the (K, 2n-1) tableaux decode (exact test)."""
        n, full = self.n, (1 << self.n) - 1
        s = rows[:, 0]
        supp = self._support(s)
        ok = _one_bit(supp)  # S' acts on one channel r
        if self.target is not None:
            ok &= s == self.want_s
        hits = np.flatnonzero(ok)
        s, msg, supp = s[hits, None], rows[hits, 1:], supp[hits, None]
        on_res = supp | (supp << n)
        # reduce modulo S': multiply by S' where the r-parts agree (the
        # Paulis commute and square to I, so the signs just add)
        red = np.where((msg & on_res) == (s & on_res), msg ^ s, msg)
        m = msg.shape[1] // 2
        x, z = red[:, :m], red[:, m:]
        if self.target is not None:
            good = (x == self.want_x) & (z == self.want_x << n)
        else:
            # one +X_p off the residue channel, and +Z_p on the same p
            good = _one_bit(x) & (x <= full) & ((x & supp) == 0) & (z == x << n)
        out = np.zeros(len(rows), dtype=bool)
        out[hits[good.all(axis=1)]] = True
        return out

    def lower_bound(self, rows: np.ndarray) -> np.ndarray:
        """(K,) int: the h of each of the (K, 2n-1) tableaux, a lower bound
        on the gates it needs to decode (see the module docstring)."""
        w, s, msg = self.weights, rows[:, :1], rows[:, 1:]
        worst = np.minimum(w[msg], w[msg ^ s]).max(axis=1)
        return np.maximum(w[rows[:, 0]], worst).astype(np.int16) - 1

    def verify(self, ext: Sequence[Gate]) -> bool:
        """Exact check of one extension word."""
        return bool(self.accepts(self._apply(self.root, ext)[None])[0])

    # -- breadth-first walk over distinct tableaux ---------------------------

    def search(self, max_depth: int) -> Optional[list[Gate]]:
        """The least canonical word of at most max_depth gates that decodes,
        or None."""
        if self.verify([]):
            return []
        if self.lower_bound(self.root[None])[0] > max_depth:
            return None
        level = self._keys(self.root[None])  # one level's keys, in word order
        follows = np.zeros(1, dtype=np.uint8)  # row of `allowed`: last gate + 1
        seen = level.copy()  # sorted keys of every level so far
        links: list[tuple[np.ndarray, np.ndarray]] = []  # per level: parent, gate
        chunk = max(1, _CHUNK_CHILDREN // len(self.gates))
        for depth in range(1, max_depth + 1):
            final = depth == max_depth
            left = max_depth - depth  # gates a child may still add
            prune = left < self.n - 1  # else h <= n - 1 <= left for every child
            kept_keys, kept_parent, kept_gate = [], [], []
            for start in range(0, len(level), chunk):
                parent, gate = np.nonzero(self.allowed[follows[start:start + chunk]])
                rows = self._rows(level[start:start + chunk])
                if prune:
                    # the image of S alone first, one lookup per child: on
                    # the last level this keeps the single-qubit ones
                    live = self.weights[self.tables[gate, rows[parent, 0]]] <= left + 1
                    parent, gate = parent[live], gate[live]
                kids = self.tables[gate[:, None], rows[parent]]
                if prune and not final:
                    live = self.lower_bound(kids) <= left
                    kids, parent, gate = kids[live], parent[live], gate[live]
                if not final:
                    # keep the first occurrence of each tableau not seen before
                    keys = self._keys(kids)
                    uniq, first = np.unique(keys, return_index=True)
                    at = np.searchsorted(seen, uniq)
                    fresh = seen[np.minimum(at, len(seen) - 1)] != uniq
                    seen = np.insert(seen, at[fresh], uniq[fresh])
                    keep = np.sort(first[fresh])
                    kids, parent, gate = kids[keep], parent[keep], gate[keep]
                    kept_keys.append(keys[keep])
                    kept_parent.append((start + parent).astype(np.int32))
                    kept_gate.append(gate.astype(np.uint8))
                hit = np.flatnonzero(self.accepts(kids))
                if hit.size:
                    return self._word(links, start + parent[hit[0]], gate[hit[0]])
            if not kept_keys:
                break
            level = np.concatenate(kept_keys)
            links.append((np.concatenate(kept_parent), np.concatenate(kept_gate)))
            follows = links[-1][1] + 1
        return None

    def _word(self, links, parent: int, gate: int) -> list[Gate]:
        """The word of a child: its parent's word (walked back through the
        per-level links), then its gate."""
        word = [gate]
        for parents, gates in reversed(links):
            word.append(gates[parent])
            parent = parents[parent]
        return [self.gates[j] for j in reversed(word)]


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
    found = task.search(min(max_gates, horizon))
    if found is not None:
        return found

    if max_gates > horizon and aux_channel == CANONICAL_AUX_CHANNEL.get(n):
        case = canonical_case(n, aux_value)
        ext = list(case.bob_program[len(bob_prefix(n)):])
        if len(ext) <= max_gates and task.verify(ext):
            return ext
    return None
