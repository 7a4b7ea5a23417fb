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

The search is breadth-first.  One step, _Task._step, expands a level: it
lists the children of the level's tableaux parent-major and gate-minor,
which is word order, keeps those that a keep rule accepts and links each to
its parent and gate, so that a word is read back along the links.  On the
last level it stops at the first kept child.  Levels are expanded in chunks
of parents.  Two walks share the step with different keep rules; the ball
walk steps only until it meets the ball, then descends one tableau.

Both walks drop every tableau that cannot decode in the gates it has left.
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
and more.  A walk to depth D keeps nothing past the root when h(root) > D,
and a child at depth k is dropped when h > D - k, or before its message
rows are looked up when d(S') alone exceeds D - k.  Dropping keeps the
result: a dropped tableau would be dropped again at every later depth (the
same h, fewer gates left), and every prefix of the least accepted word
meets the bound, so the first accepted child is unchanged.

The general walk (with an explicit target, and at n >= 5) keeps a child
only if h allows it and no shorter word and no earlier word of the same
length reached the same rows, checked against a sorted array of the keys of
every tableau kept so far.  Every prefix of the least accepted word is the
first word to reach its rows, so the first accepted tableau of the first
level that has one is the least canonical word of minimal length, the word
a depth-first walk in canonical order finds.  Acceptance is tested once per
level, after the step: an accepted tableau has h = 0, so no keep rule drops
it, and the first accepted tableau of the kept level is the one a test of
each chunk's kept children would find first.  On the last level the keep
rule is acceptance itself.

An untargeted walk at n <= 4 first fixes the minimal length L, from the
exact distance to acceptance.  An accepted tableau is fixed only modulo S':
a message row may be multiplied by S' (they commute; tableau.multiply gives
the sign).  Each gate maps a row and its product with S' to the images and
their product, and acceptance reduces modulo S', so the tableaux whose
message rows agree modulo S' form a class that gates map to classes and
that is accepted as a whole.  A class is keyed by S' and then, per message
row, the smaller of row and row S' (63 bits at n=4).  _ball(n) holds every
class within R = 3 gates of acceptance with its distance, the backward half
of the meet-in-the-middle search of Amy, Maslov, Mosca and Roetteler
(arXiv:1206.0758): a breadth-first walk from the 6 canonical accepted
classes (message j on channel j, a signed X, Y or Z residue on channel n;
the gates are involutions, so walking back is walking forward), then every
channel permutation of what it found, keeping the least distance per key.
The permutations map the alphabet onto itself and the canonical classes
onto all 6 n! accepted ones, so this is the ball of a walk from all of
them: at n=4, 139,704 keys at distances 0..3 (144, 1,944, 17,496 and
120,120), 1.3 MiB with a table of product signs; at n=3, 5,760 keys in 57
KiB.  Each is built once, when a walk first needs it.  The ball measures
distance over unrestricted words, but any word reduces to a canonical one
that is no longer (drop repeated pairs, sort commuting neighbours), so it
is also the fewest gates a canonical word needs; distance 0 is exactly
acceptance.

The ball walk (no target, n <= 4) has no acceptance test and no
deduplication.  It looks up the root's class, then each level, kept by h,
until the first level k that meets the ball (k = 0 for a root in the ball);
nothing accepted lies outside the ball.  Then L = k + d for the least
distance d met, and d = R when k > 0: every tableau of level k - 1 lies
outside the ball, and one gate changes the distance by at most one.  L is
the minimal length: the words to level k give a decoder of k + d gates, and
the prefix of the least accepted word that stops R gates short of its end
passes h and lies in the ball, so the walk meets the ball no later than
that.  A walk to depth D never expands a level past D - R without meeting
the ball, and returns None at once when L > D.

Then the walk descends from the first tableau of level k at distance d: at
each step it takes the first gate, in alphabet order, whose image is one
gate closer to acceptance (a downhill gate), dropping a gate before the
other rows are looked up when it leaves S' more than the remaining gates
from weight 1.  Each lookup is of one tableau, so the class key is computed
from Python ints and bisected in the ball's keys, as for the root; the
levels before the meeting are looked up whole.  This returns the least
accepted word W of length L.  Call any word of L gates that takes the root
to acceptance a shortest word.  A word becomes canonical by deleting a gate
that follows itself and by swapping adjacent commuting gates that are out
of order; a shortest word loses no gate that way, L being minimal, and each
swap makes it lexicographically smaller, so W is the least of all shortest
words, canonical or not.  Hence:

- The first tableau at distance d on level k is W's prefix of k gates.  The
  level lists the canonical words of k gates kept by h in lexicographic
  order, W's prefix among them.  A tableau at distance d listed earlier has
  a shortest completion of d gates, and its word with that completion
  would be a shortest word less than W.
- At each step W's next gate is the first downhill gate.  It is downhill,
  the rest of W being a shortest completion, and an earlier downhill gate g
  would give a shortest word less than W: the gates so far, g, and a
  shortest completion of g's image.

So the descent never backtracks and always ends at acceptance after d
steps, with at most one lookup per gate tried, where a level sweep would
look up every shortest-path child of every level.  It needs no trimming of
level k to distance d, since it starts at the first such tableau, and no
canonical-order test, since no downhill gate comes before W's next one.
Only that test could make a descent backtrack: without it a tableau at
distance j > 0 always has a downhill gate.  A later tableau at distance d
on level k may have none allowed, or a first one after which every
shortest completion breaks the canonical order; a depth-first descent from
it would backtrack and fail, but this descent never starts there.

Without deduplication a ball walk level holds one tableau per canonical
word whose prefixes were all kept, in word order, and a tableau may repeat.
That changes neither L nor the word returned.  A tableau repeated from an
earlier level lies outside the ball, or the walk would have stopped there,
and within a level a repeat has the distance of its first entry, so repeats
change neither the meeting level k nor the least distance d, and the
argument above holds for each listed word.  Before the ball is met the walk
expands at most D - R levels, 4 at n=3 and 3 at n=4 within the horizons, so
the repeats cost little there.

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

from bisect import bisect_left
from functools import lru_cache
from itertools import permutations
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

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

# The ball of tableaux near acceptance: its radius in gates, and the largest
# channel count it is built for (its keys fit a uint64 up to n = 4).
_BALL_RADIUS = 3
_BALL_CHANNELS = 4

# The auxiliary input's stabilizer as (x, z, sign): +Z, -Z and +X.
_AUX_PAULIS = {AuxValue.ZERO: (0, 1, 0), AuxValue.ONE: (0, 1, 1), AuxValue.PLUS: (1, 0, 0)}

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
def _alphabet(n: int) -> tuple[Gate, ...]:
    """gate_alphabet(n), cached."""
    return tuple(gate_alphabet(n))


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
    row = np.arange(1 << (2 * n + 1), dtype=np.uint16)
    return np.stack([tableau.conjugate(row, n, g) for g in gate_alphabet(n)])


@lru_cache(maxsize=None)
def _distances(n: int) -> np.ndarray:
    """(2^(2n+1),) uint8: every packed row's distance, the fewest alphabet
    gates that take it to weight at most 1.  Every gate is an involution, so
    the rows one gate away from a level are its images."""
    tables = _row_tables(n)
    support = tableau.support(np.arange(1 << (2 * n + 1)), n)
    dist = np.where((support & (support - 1)) == 0, 0, 255).astype(np.uint8)
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
    or None when q is not a stabilizer state (for target residues)."""
    v = q.as_array()
    for (x, z), pauli in _PAULIS.items():
        expectation = np.vdot(v, pauli @ v).real
        for sign in (0, 1):
            if abs(expectation - (-1) ** sign) <= DEFAULT_TOL:
                return tableau.pauli(n, channel, x, z, sign)
    return None


@lru_cache(maxsize=None)
def _root(n: int, aux_channel: int, value: AuxValue) -> np.ndarray:
    """(2n-1,) uint16, read-only: a case's input rows mapped through the
    encoder and the receiver prefix."""
    messages = [c for c in range(1, n + 1) if c != aux_channel]
    rows = tableau.input_rows(n, tableau.pauli(n, aux_channel, *_AUX_PAULIS[value]), messages)
    rows = tableau.apply_word(rows, n, alice_encoder(n) + bob_prefix(n)).astype(np.uint16)
    rows.flags.writeable = False
    return rows


def _pack(rows: np.ndarray, n: int) -> np.ndarray:
    """One uint64 per row of a (K, r) array of packed rows, side by side,
    first row lowest; r(2n+1) <= 64."""
    return rows.astype(np.uint64) @ _row_places(n, rows.shape[1])


@lru_cache(maxsize=None)
def _row_places(n: int, r: int) -> np.ndarray:
    """(r,) uint64: 2^(i(2n+1)), the place of row i in a key; the rows'
    bits do not overlap, so a product with it is their shift-and-OR."""
    return np.uint64(1) << np.arange(0, r * (2 * n + 1), 2 * n + 1, dtype=np.uint64)


def _class_keys(rows: np.ndarray, n: int, signs: np.ndarray) -> np.ndarray:
    """(K,) uint64: the class key of each (K, 2n-1) tableau, S' and then
    the smaller of row and row S' for each message row; `signs` is
    _Ball.signs."""
    s, msg = rows[:, :1], rows[:, 1:]
    bits = (1 << (2 * n)) - 1
    product = msg ^ s ^ signs[((msg & bits) << (2 * n)) | (s & bits)]
    keys = _pack(np.minimum(msg, product), n) << np.uint64(2 * n + 1)
    return keys | s[:, 0].astype(np.uint64)


def _class_key(rows: Sequence[int], n: int, signs: memoryview) -> int:
    """The class key of one tableau given as ints, as _class_keys computes
    it; `signs` is a memoryview of _Ball.signs."""
    s, bits, width = rows[0], (1 << (2 * n)) - 1, 2 * n + 1
    key, low = s, s & bits
    for i, row in enumerate(rows[1:], 1):
        key |= min(row, row ^ s ^ signs[((row & bits) << (2 * n)) | low]) << (i * width)
    return key


class _Ball(NamedTuple):
    """Every tableau class within _BALL_RADIUS gates of acceptance."""

    n: int
    keys: np.ndarray  # sorted uint64 class keys
    dist: np.ndarray  # uint8: each key's distance to acceptance
    signs: np.ndarray  # uint16 [(a << 2n) | b] over unsigned rows: the sign bit of a b

    def distance(self, rows: np.ndarray) -> np.ndarray:
        """(K,) uint8: the fewest gates that take each of the (K, 2n-1)
        tableaux to acceptance, or _BALL_RADIUS + 1 outside the ball."""
        keys = _class_keys(rows, self.n, self.signs)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[at] == keys, self.dist[at], _BALL_RADIUS + 1)

    def scalar_distance(self) -> Callable[[Sequence[int]], int]:
        """distance for one tableau given as ints: its key by _class_key,
        found by bisection, with the tables read through memoryviews."""
        keys, dist, signs = memoryview(self.keys), memoryview(self.dist), memoryview(self.signs)
        n, size = self.n, len(self.keys)

        def distance(rows: Sequence[int]) -> int:
            key = _class_key(rows, n, signs)
            at = bisect_left(keys, key)
            return dist[at] if at < size and keys[at] == key else _BALL_RADIUS + 1
        return distance


def _canonical_levels(n: int, signs: np.ndarray) -> list[np.ndarray]:
    """Per distance 0.._BALL_RADIUS, the tableaux first reached at that
    distance from the canonical accepted classes: message j on channel j
    and a signed X, Y or Z residue on channel n."""
    tables = _row_tables(n)
    level = np.array([tableau.input_rows(n, tableau.pauli(n, n, x, z, sign), range(1, n))
                      for x, z in ((1, 0), (1, 1), (0, 1)) for sign in (0, 1)], dtype=np.uint16)
    levels = [level]
    seen = np.sort(_class_keys(level, n, signs))
    for _ in range(_BALL_RADIUS):
        kids = tables[:, level].reshape(-1, level.shape[1])
        uniq, first = np.unique(_class_keys(kids, n, signs), return_index=True)
        fresh = ~np.isin(uniq, seen, assume_unique=True)
        level = kids[first[fresh]]
        levels.append(level)
        seen = np.sort(np.concatenate([seen, uniq[fresh]]))  # np.union1d loads numpy.ma
    return levels


@lru_cache(maxsize=None)
def _ball(n: int) -> _Ball:
    """The ball of radius _BALL_RADIUS around acceptance (target None), for
    n <= _BALL_CHANNELS: the canonical levels under every permutation of
    the channels, each key at its least distance (see the module
    docstring)."""
    row = np.arange(1 << (2 * n), dtype=np.uint16)  # the rows without a sign
    signs = (tableau.multiply(row[:, None], row[None, :], n) & np.uint16(1 << (2 * n))).ravel()
    levels = _canonical_levels(n, signs)
    perms = list(permutations(range(1, n + 1)))

    def relabelled(level):
        for perm in perms:
            yield _class_keys(tableau.relabel(level, n, perm), n, signs)

    # every key once, then each key's least distance (written last); the
    # keys are computed twice so that no second ball-sized array is needed
    keys = np.empty(len(perms) * sum(map(len, levels)), dtype=np.uint64)
    at = 0
    for level in levels:
        for k in relabelled(level):
            keys[at:at + len(k)] = k
            at += len(k)
    keys.sort()
    fresh = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    size, block = 0, 1 << 14
    for start in range(0, len(keys), block):  # drop repeats in place, block by block
        kept = keys[start:start + block][fresh[start:start + block]]
        keys[size:size + len(kept)] = kept
        size += len(kept)
    keys.resize(size, refcheck=False)
    dist = np.empty(len(keys), dtype=np.uint8)
    for d in reversed(range(len(levels))):
        for k in relabelled(levels[d]):
            dist[np.searchsorted(keys, k)] = d
    for table in (keys, dist, signs):
        table.flags.writeable = False
    return _Ball(n, keys, dist, signs)


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
        self.gates = _alphabet(n)
        self.tables = _row_tables(n)
        self.dist = _distances(n)
        self.allowed = _follows(n)
        self.root = _root(n, aux_channel, value)

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
        if indices != list(range(self.n - 1)):
            raise InvalidInput("target layout must place every message exactly once")

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        """One sortable key per (K, 2n-1) tableau: the rows packed into a
        uint64 when they fit (n <= 4), else the raw bytes."""
        if rows.shape[1] * (2 * self.n + 1) > 64:
            return np.ascontiguousarray(rows).view(np.dtype((np.void, 2 * rows.shape[1]))).ravel()
        return _pack(rows, self.n)

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
        return bool(self.accepts(tableau.apply_word(self.root, self.n, ext)[None])[0])

    # -- breadth-first walks -------------------------------------------------

    def search(self, max_depth: int) -> Optional[list[Gate]]:
        """The least canonical word of at most max_depth gates that decodes,
        or None (see the module docstring)."""
        if self.target is None and self.n <= _BALL_CHANNELS:
            return self._ball_walk(_ball(self.n), max_depth)
        return self._general_walk(max_depth)

    def _ball_walk(self, ball: _Ball, max_depth: int) -> Optional[list[Gate]]:
        """Levels kept by h until one meets the ball, which fixes the
        minimal length; then, from the level's first tableau at the least
        distance, the first downhill gate at every step."""
        near = ball.scalar_distance()
        level, links, first, least = self.root[None], [], 0, near(self.root.tolist())
        while least > _BALL_RADIUS:
            left = max_depth - len(links) - 1  # gates a child may still add
            if left < _BALL_RADIUS:  # its children are at least R gates from acceptance
                return None
            level = self._step(level, links, left, lambda kids: self.lower_bound(kids) <= left)
            if not len(level):
                return None
            dist = ball.distance(level)
            first = int(dist.argmin())
            least = int(dist[first])
        if len(links) + least > max_depth:
            return None
        tables, row_dist = memoryview(self.tables), memoryview(self.dist)
        word, rows = self._word(links, first), level[first].tolist()
        for left in reversed(range(least)):  # gates left after the next one
            for gate in range(len(self.gates)):
                if row_dist[tables[gate, rows[0]]] <= left:
                    kid = [tables[gate, row] for row in rows]
                    if near(kid) <= left:
                        break
            else:
                raise AssertionError("W's next gate is downhill (see the module docstring)")
            word.append(self.gates[gate])
            rows = kid
        return word

    def _general_walk(self, max_depth: int) -> Optional[list[Gate]]:
        """Levels kept by h and deduplicated against every earlier one, the
        first accepted tableau of the first level that has one."""
        level, links = self.root[None], []
        if self.lower_bound(level)[0] > max_depth:
            return None
        seen = self._keys(level)  # sorted keys of every tableau kept so far

        def fresh(kids):
            """The children within h of the gates left whose rows no
            earlier child reached, each at its first occurrence."""
            nonlocal seen
            live = np.flatnonzero(self.lower_bound(kids) <= left)
            uniq, first = np.unique(self._keys(kids[live]), return_index=True)
            at = np.searchsorted(seen, uniq)
            new = seen[np.minimum(at, len(seen) - 1)] != uniq
            seen = np.insert(seen, at[new], uniq[new])
            keep = np.zeros(len(kids), dtype=bool)
            keep[live[first[new]]] = True
            return keep

        for left in reversed(range(-1, max_depth)):  # gates a child may still add
            hit = np.flatnonzero(self.accepts(level))
            if hit.size:
                return self._word(links, hit[0])
            if left < 0 or not len(level):
                return None
            level = self._step(level, links, left, fresh if left else self.accepts)
        return None

    def _step(self, level: np.ndarray, links: list, left: int,
              keep: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """The children of the level's tableaux, in word order, that keep(kids)
        marks, and links gains their parents and gates.  A child whose image
        of S alone is more than `left` gates from weight 1 is dropped before
        its other rows are looked up; with no gates left, only the first
        kept child is."""
        follows = links[-1][1] + 1 if links else np.zeros(1, dtype=np.uint8)
        chunk = max(1, _CHUNK_CHILDREN // len(self.gates))
        kept_rows, kept_parent, kept_gate = [], [], []
        for start in range(0, len(level), chunk):
            parent, gate = np.nonzero(self.allowed[follows[start:start + chunk]])
            rows = level[start:start + chunk]
            live = self.dist[self.tables[gate, rows[parent, 0]]] <= left
            parent, gate = parent[live], gate[live]
            kids = self.tables[gate[:, None], rows[parent]]
            live = np.flatnonzero(keep(kids))
            if left == 0 and live.size:  # the first kept child ends the walk
                live = live[:1]
                links.append((start + parent[live], gate[live]))
                return kids[live]
            kept_rows.append(kids[live])
            kept_parent.append((start + parent[live]).astype(np.int32))
            kept_gate.append(gate[live].astype(np.uint8))
        links.append((np.concatenate(kept_parent), np.concatenate(kept_gate)))
        return np.concatenate(kept_rows)

    def _word(self, links: list, child: int) -> list[Gate]:
        """The word that the per-level links spell for a child of the last
        level, walked back to the root."""
        word = []
        for parents, gates in reversed(links):
            word.append(self.gates[gates[child]])
            child = parents[child]
        return word[::-1]


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
