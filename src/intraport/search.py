"""Exact synthesis of the shortest receiver decoding programs.

solve_bob_program looks for a gate word that, appended after the universal
receiver prefix, turns the encoded state back into a product in which every
message reappears on some channel.  Words are over {H_k, CN(i,j)} in a
fixed canonical gate order, with two prunings: a gate never follows itself
(self-inverse pairs cancel), and adjacent commuting gates must appear in
canonical order.  Among the shortest accepted words the least one in that
order is returned.

Candidates are compared as stabilizer tableaux, not as states: a candidate
is the image of the input rows under the whole map (encoder, prefix,
word), and tableau.accepts decides exactly whether it decodes.  Rows
evolve independently, so each gate is a lookup table over all 2^(2n+1)
packed rows, tableau.conjugate applied once per row and cached.

The search is breadth-first over distinct tableaux.  A level's children
are listed parent-major and gate-minor, and a child is kept only if no
shorter word and no earlier word of the same length reached the same rows.
Every prefix of the least accepted word is the first word to reach its
rows, so the first accepted child is the least canonical word of minimal
length, the word a depth-first walk in canonical order finds.  Levels are
expanded in chunks of parents and deduplicated chunk by chunk against a
sorted array of the keys of every tableau seen so far.

The walk drops every tableau that cannot decode in the gates it has left.
Let the weight of a Pauli be the number of channels it acts on, and its
distance d the fewest alphabet gates that take it to weight at most 1
(tabulated over every packed row by a breadth-first walk from those rows).
Each gate is an involution on rows, so the rows and gates form an
undirected graph, and one gate changes d by at most one.  Conjugation is
linear on the x and z bits, so `row ^ S'`, the product up to a sign, evolves
as a Pauli row too, and d ignores the sign.  In an accepted tableau the image
S' of S has weight 1, and each message row is +X_p or +Z_p, or that Pauli
times S', so S' and the smaller of d(row) and d(row ^ S') are 0.  Hence

    h(T) = max(d(S'), max over message rows of min(d(row), d(row ^ S')))

is an exact lower bound on the gates a tableau T still needs; d is at least
the weight minus one, so h prunes everything the weight bound w - 1 did,
and more.  A search to depth D returns None at once when h(root) > D, and a
child at depth k is dropped when h > D - k; since h never exceeds `reach`,
the largest distance of the size (4, 6, 7 and 9 at n=3..6), that can only
happen where D - k < reach, so shallower levels skip the test.  Dropping
keeps the result: a dropped tableau would be dropped again at every later
depth (the same h, fewer gates left), and every prefix of the least accepted
word meets the bound, so it is still the first word to reach its rows and
the first accepted child is unchanged.

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

from . import tableau
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
    gate, by tableau.conjugate."""
    row = np.arange(1 << (2 * n + 1))
    return np.stack([tableau.conjugate(row, n, g) for g in gate_alphabet(n)]).astype(np.uint16)


@lru_cache(maxsize=None)
def _weights(n: int) -> np.ndarray:
    """(2^(2n+1),) uint8: every packed row's weight, the number of channels
    its Pauli acts on."""
    support = tableau.support(np.arange(1 << (2 * n + 1)), n).astype(np.uint8)  # n <= 6 bits
    weights = np.unpackbits(support[:, None], axis=1).sum(axis=1, dtype=np.uint8)
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=None)
def _distances(n: int) -> np.ndarray:
    """(2^(2n+1),) uint8: every packed row's distance, the fewest alphabet
    gates that take it to weight at most 1.  Every gate is an involution, so
    the rows one gate away from a level are its images."""
    tables = _row_tables(n)
    dist = np.where(_weights(n) <= 1, 0, 255).astype(np.uint8)
    level = 0
    while True:
        reached = np.zeros(len(dist), dtype=bool)
        reached[tables[:, dist == level]] = True
        new = reached & (dist == 255)
        if not new.any():
            break
        level += 1
        dist[new] = level
    dist.flags.writeable = False
    return dist


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


def _layout_rows(n: int, layout: Mapping[int, ExpectedOut]) -> np.ndarray:
    """The input rows of a layout: its residue's stabilizer row, then the
    rows of each message's channel in message order.  A residue that is not
    a stabilizer state gets 0 (the identity), which no image of S equals."""
    res = next(ch for ch, out in layout.items() if isinstance(out, ResidueOut))
    by_index = {out.index: ch for ch, out in layout.items() if isinstance(out, MessageOut)}
    return tableau.input_rows(n, _stabilizer_row(layout[res].state, res, n) or 0,
                              [by_index[j] for j in range(len(by_index))])


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
        self.dist = _distances(n)
        self.reach = int(self.dist.max())  # the largest h of any tableau
        self.allowed = _follows(n)

        rows = tableau.input_rows(n, _stabilizer_row(value.qubit, aux_channel, n),
                                  self.message_channels)
        self.root = self._apply(rows.astype(np.uint16), alice_encoder(n) + bob_prefix(n))

        self.target = None
        if target is not None:
            self._check_target(target)
            self.target = _layout_rows(n, target)

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

    def accepts(self, rows: np.ndarray) -> np.ndarray:
        """(K,) bool: which of the (K, 2n-1) tableaux decode (exact test)."""
        return tableau.accepts(rows, self.n, self.target)

    def lower_bound(self, rows: np.ndarray) -> np.ndarray:
        """(K,) int: the h of each of the (K, 2n-1) tableaux, a lower bound
        on the gates it needs to decode (see the module docstring)."""
        d, s, msg = self.dist, rows[:, :1], rows[:, 1:]
        worst = np.minimum(d[msg], d[msg ^ s]).max(axis=1)
        return np.maximum(d[rows[:, 0]], worst).astype(np.int16)

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
        level = self.root[None]  # one level's tableaux, in word order
        follows = np.zeros(1, dtype=np.uint8)  # row of `allowed`: last gate + 1
        seen = self._keys(level)  # sorted keys of every level so far
        links: list[tuple[np.ndarray, np.ndarray]] = []  # per level: parent, gate
        chunk = max(1, _CHUNK_CHILDREN // len(self.gates))
        for depth in range(1, max_depth + 1):
            final = depth == max_depth
            left = max_depth - depth  # gates a child may still add
            prune = left < self.reach  # else h <= reach <= left for every child
            kept_rows, kept_parent, kept_gate = [], [], []
            for start in range(0, len(level), chunk):
                parent, gate = np.nonzero(self.allowed[follows[start:start + chunk]])
                rows = level[start:start + chunk]
                if prune:
                    # the image of S alone first, one lookup per child: on
                    # the last level this keeps the single-qubit ones
                    live = self.dist[self.tables[gate, rows[parent, 0]]] <= left
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
                    kept_rows.append(kids)
                    kept_parent.append((start + parent).astype(np.int32))
                    kept_gate.append(gate.astype(np.uint8))
                hit = np.flatnonzero(self.accepts(kids))
                if hit.size:
                    return self._word(links, start + parent[hit[0]], gate[hit[0]])
            if not kept_rows:
                break
            level = np.concatenate(kept_rows)
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
