"""Exact synthesis of the shortest receiver decoding programs.

solve_bob_program looks for a gate word that, appended after the universal
receiver prefix, turns the encoded state back into a product in which every
message reappears on some channel.  Words are over {H_k, CN(i,j)} in a
fixed canonical gate order, with two prunings: a gate never follows itself
(self-inverse pairs cancel), and adjacent commuting gates must appear in
canonical order.  Among the shortest accepted words the least one in that
order is returned.

Candidates are compared as stabilizer tableaux, not as states: a candidate
is the image of the input rows (protocol.layout_rows) under the whole map
(encoder, prefix, word), and tableau.accepts decides exactly whether it
decodes.  Rows evolve independently, so each gate is a lookup table over
all 2^(2n+1) packed rows (tableau.row_tables).

The search is breadth-first, and a level lists its parents' children
parent-major and gate-minor, which is word order.  The general walk expands
a level with _Task._step: it keeps the children that a keep rule accepts,
each with its word (its parent's word, then its gate), so an accepted
tableau's word is read off its level.  On the last level it stops at the
first kept child.  Levels are expanded in chunks of parents.  The ball walk
looks up the canonical words of a table, level after level, until it meets
the ball, then appends the stored completion of the first tableau it met.

A solve starts from its case's root, the input rows mapped through the
encoder and the receiver prefix, cached per (n, aux channel, value) by
_root.  With no target at n <= 4, _root_class caches per case the root
extended by its products with S' and its class key (both below), and the
solve bisects the ball for that key.  A root in the ball returns its
class's stored least completion at once; a root outside it runs the ball
walk, _ball_walk, a function of the extended root, its key and the depth
that needs no task.  A _Task holds one general walk (a target, or n >= 5)
and the exact check of one word.  Nothing a solve returns is cached: every
call bisects the ball, and a root outside it streams the word maps again.
What is cached is per size (the ball, its bitmap, the word table), or per
case (the root, and its extension with its key).

The general walk drops every tableau that cannot decode in the gates it has
left.
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
every tableau kept so far (a key is the tableau's raw bytes, at every n).
Every prefix of the least accepted word is the first word to reach its
rows, so the first accepted tableau of the first level that has one is the
least canonical word of minimal length, the word a depth-first walk in
canonical order finds.  Acceptance is tested once per level, after the
step: an accepted tableau has h = 0, so no keep rule drops it, and the
first accepted tableau of the kept level is the one a test of each chunk's
kept children would find first.  On the last level the keep rule is
acceptance itself.

Some targets no word reaches, and a solve returns None for them before it
builds a task.  Every gate keeps the parity of a row's Y count: H swaps
x_k and z_k, and CN(c, t) turns x_c z_c + x_t z_t into x_c (z_c + z_t) +
(x_t + x_c) z_t, the same sum mod 2.  Every root's S' is the image of +Z,
-Z or +X, so its count is even, and a gate maps no nonzero row to 0.  So a
target whose residue row has an odd Y count (|+-i>) is never reached, nor
one whose residue row is 0 (a residue that is not a stabilizer state).

An untargeted walk at n <= 4 first fixes the minimal length L, from the
exact distance to acceptance.  An accepted tableau is fixed only modulo S':
a message row may be multiplied by S' (they commute; tableau.multiply gives
the sign).  Each gate maps a row and its product with S' to the images and
their product, and acceptance reduces modulo S', so the tableaux whose
message rows agree modulo S' form a class that gates map to classes and
that is accepted as a whole.  A class is keyed by S' and then, per message
row, the smaller of row and row S', sign included (63 bits at n=4).

The product is carried, not computed per key.  The ball walk and the ball
build extend each tableau (_extend) to 4n-3 rows: S', the 2n-2 message
rows, and each message row times S' by tableau.multiply, computed once per
root and once per accepted start.  A gate maps all 4n-3 rows by its row
table, and the key is S' OR, at place i, min(row i, product i): one
np.minimum and one matrix product with the places (_class_keys).  This is
exact.  Conjugation by a Clifford U is an algebra automorphism, U ab U^dagger
= (U a U^dagger)(U b U^dagger), sign included, so for commuting rows a and b
every row table T maps multiply(a, b) to multiply(T[a], T[b]).  (The
product of anticommuting rows is i times a Pauli, which no row holds.)
Every accepted start has message rows that commute with S', since they act
on other channels than S', and so do the input rows that a root is the
image of.  Conjugation keeps commutation, so every root, and every tableau
that a walk or the build reaches from a root or a start, has such rows too,
and by induction on the word the carried row is tableau.multiply of the
message row's and S''s images at every depth: the carried key is the key
above.  So the key needs no table per size; its only limit at n <= 4 is
its packing into a uint64, which 2n-1 rows of 2n+1 bits outgrow at n=5 (99
bits).

_ball(n) holds every class within R = 3 gates of acceptance with its
distance, the backward half of the meet-in-the-middle search of Amy,
Maslov, Mosca and Roetteler (arXiv:1206.0758): a breadth-first walk over
classes from the 4 n! accepted ones with an X or Z residue (message j on
channel perm[j], a signed X or Z residue on the last channel of perm, for
every channel permutation perm; the gates are involutions, so walking back
is walking forward).  At n=4 it holds 80,184 keys at distances 0..3 (96,
1,224, 10,440 and 68,424) in 0.76 MiB with their words below; at n=3, 3,228
keys in 32 KiB.  Each is built once, when a walk first needs it.  The ball
measures distance over unrestricted words, but any word reduces to a
canonical one that is no longer (drop repeated pairs, sort commuting
neighbours), so it is also the fewest gates a canonical word needs;
distance 0 is exactly acceptance.

The accepted classes with a Y residue are left out, and with them every
class that only they reach, because no root reaches them.  By the Y-count
lemma above every gate keeps the parity of each row's Y count, and a root's S'
has an even one, so every tableau on any word from a root has an S' with
an even Y count.  An accepted S' with an even Y count is a signed X or Z on
one channel.  So a class with such an S' reaches only X/Z accepted classes,
along words whose every tableau has an even S' too: the walk from the X/Z
classes reaches it at the distance the walk from all 6 n! would, and the
build below gives it the same least completion, since it takes for a key
at d the least gate whose image lies at d - 1, whatever else level d - 1
holds.  Every kept class has the distance and least completion it would
have in the ball of all 6 n! classes, and the classes left out (59,520 of
139,704 keys at n=4, 2,532 of 5,760 at n=3) are never looked up from a
root: a solve's result cannot change.

Each key also holds its class's least completion: the least word, in
alphabet order, of d gates that takes it to acceptance.  It belongs to the
class: a gate maps a class to one class, so every tableau of a class has the
same completions.  Its first gate is the least downhill gate g, the least
alphabet gate whose image is one gate closer to acceptance (every downhill
gate starts some completion), and the rest is the least completion of g's
image.  One uint16 per key holds both, the distance in the top nibble and
below it up to R gate nibbles, first gate lowest (n <= 4 has at most 16
gates).  The build expands level d - 1, the classes first reached at d - 1,
one gate at a time in alphabet order, and carries beside each extended
tableau of the level its class's completion.  Each key it reaches first
from a class p by a gate g keeps g | completion(p) << 4.  This is the key's
least completion: a gate is an involution on classes, so g takes a class at
d to d - 1 exactly when g takes some class at d - 1 to it, the gates are
tried in order, and g's image is p.  A key is inserted beside its word, so
the walk ends with both sorted, and the rows of the last level, never
expanded, are not kept.

The walk looks its stream up chunk by chunk (_Ball.first_in_ball).  A
chunk's keys first read a membership bitmap, a read-only bool table of 2^b
entries, b the least with 2^b at least 8 times the ball's keys (2^20
entries, 1 MiB, at n=4, 7.4% of them set).  A key's entry is at the top b
bits of key * 0x9E3779B97F4A7C15 mod 2^64, and every key of the ball sets
its own, so a key whose entry is clear lies outside the ball: the bitmap
has no false negatives.  Only the marked keys are looked up, one at a time
in stream order by bisection in the sorted keys (_Ball.step_of), and the
lookup stops at the first key the ball holds, the stream's first tableau
in the ball.  The first chunk builds the bitmap, so a solve whose root lies
in the ball, as every n=3 root does, never does: it bisects for its one
key.

The ball walk (no target, n <= 4) has no acceptance test, no
deduplication and no pruning by h.  Level k lists every canonical word of
k gates in lexicographic order.  _word_table(n) holds these words for k =
1.._DEPTH_HORIZON[n] - R, built once from the follow rule: 9, 57, 351 and
2,164 words at n=3, and 16, 174 and 1,792 at n=4.  Beside them it holds
the map of every word, the levels joined in word order: a row-major
(2^(2n+1), W) uint16 table whose column j takes every packed row through
word j, each column its last gate's row table after its prefix's column,
one gather per level (1.94 MiB for the 1,982 words at n=4), and where
each level starts among the words joined.  So the extended root mapped
through words lo..hi - 1 is one gather of 4n-3 runs, maps[ext, lo:hi], a
(4n-3, K) row-major block, the layout _class_keys reads, and the level of
a word is found by bisection in the starts.  The walk looks up the root's
key and, outside the ball, levels 1..D - R as one stream in word order
(level 1, then level 2, and so on): _FIRST_LOOKUP tableaux and then twice
as many at a time, a lookup free to cross from one level into the next.  It stops at the first lookup that holds a tableau in
the ball, and gathers only the tableaux it looks up.  Let k be the level
of the first tableau of the stream in the ball (k = 0 for a root in the
ball).  No level before k meets the ball, and nothing accepted lies outside
it.  Then L = k + d for the least distance d on level k, and d = R when k >
0: every tableau of level k - 1 lies outside the ball, and one gate changes
the distance by at most one, so every tableau of level k in the ball is
exactly R gates from acceptance.  Hence the first tableau of the stream in
the ball is the first of level k at the least distance.  L is the minimal
length: the words to level k give a decoder of k + d gates, and the prefix
of the least accepted word that stops R gates short of its end is listed
and lies in the ball, so the walk meets the ball no later than that.  A
walk to depth D never looks a level past D - R up without meeting the ball,
and returns None at once when L > D.

Pruning by h would change none of this, which is why the walk does not
prune.  A tableau that h drops at level i has d > D - i, and so has every
tableau below it at level j, d > D - j, since one gate changes d by at most
one.  The walk expands level j only when j <= D - R, so all of these lie
more than R gates from acceptance, outside the ball.  Each expanded level
therefore holds the tableaux in the ball that a level kept by h would hold,
in the same order, and the meeting level k, the length L = k + d and the
first tableau at distance d, with its word, are the same.  Filtering by h
before the lookup costs more than looking the dropped tableaux up.

The walk returns that tableau's word followed by the least completion that
its lookup holds, so it makes no lookup past the stream.  This is the least
accepted word W of length L.  Call any word of L gates that takes the root
to acceptance a shortest word.  A word becomes canonical by deleting a gate
that follows itself and by swapping adjacent commuting gates that are out
of order; a shortest word loses no gate that way, L being minimal, and each
swap makes it lexicographically smaller, so W is the least of all shortest
words, canonical or not.  Hence:

- The first tableau at distance d on level k is W's prefix of k gates.  The
  level lists the canonical words of k gates in lexicographic order, W's
  prefix among them.  A tableau at distance d listed earlier has a shortest
  completion of d gates, and its word with that completion would be a
  shortest word less than W.
- W's last d gates are the prefix's least completion.  They take it to
  acceptance, and a lesser completion would give a shortest word less than
  W.

So the walk needs no trimming of level k to distance d, since it starts at
the first such tableau, and no canonical-order test: W is canonical, being
the least shortest word.  A later tableau at distance d on level k may have
no canonical completion at all, since every shortest word through it may
break the canonical order, but the walk never completes it.

Without deduplication a ball walk level holds one tableau per canonical
word, in word order, and a tableau may repeat.  That changes neither L nor
the word returned.  A tableau repeated from an earlier level lies outside
the ball, or the walk would have stopped there, and within a level a repeat
has the distance of its first entry, so repeats change neither the meeting
level k nor the least distance d, and the argument above holds for each
listed word.  Before the ball is met the walk expands at most D - R levels,
4 at n=3 and 3 at n=4 within the horizons, so the repeats cost little
there: the largest level has 2,164 tableaux.  The table stops at n=4; at
n=5 there are 1,408,651 canonical words of 5 gates.  No n=3 root lies
outside the ball, so a solve builds the table at n=4 only.

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

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import permutations
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import tableau
from .errors import ChannelOutOfRange, InvalidInput, UnsupportedSize, require_integer
from .protocol import (
    AuxValue,
    CANONICAL_AUX_CHANNEL,
    Layout,
    alice_encoder,
    bob_prefix,
    canonical_case,
    input_layout,
    layout_rows,
)
from .qsim import (
    Gate,
    _apply_gates,  # noqa: F401  (perfbench/tracer.py traces this name here)
    gates_commute,
)
from .tableau import gate_alphabet

# Largest exhaustively enumerated extension length per channel count.
_DEPTH_HORIZON = {3: 7, 4: 6, 5: 7, 6: 4}

# Children generated per chunk of parents; bounds the memory of one step.
_CHUNK_CHILDREN = 1 << 13

# The ball of tableaux near acceptance: its radius in gates, and the largest
# channel count it is built for (its keys fit a uint64 up to n = 4).
_BALL_RADIUS = 3
_BALL_CHANNELS = 4

# A ball key's step: its distance in the top nibble and, below it, the gates
# of its least completion, first gate lowest (n <= 4 has at most 16 gates).
_DISTANCE_SHIFT = 4 * _BALL_RADIUS
_OUTSIDE = (_BALL_RADIUS + 1) << _DISTANCE_SHIFT  # the step of a tableau outside the ball

# The multiplier of the ball's membership hash, key times it mod 2^64 and
# then its top bits: 2^64 over the golden ratio, made odd.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

# Tableaux a ball walk looks up first; each further lookup takes twice as
# many, until one holds a tableau in the ball.
_FIRST_LOOKUP = 256


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


class _WordTable(NamedTuple):
    """Levels 1.._DEPTH_HORIZON[n] - _BALL_RADIUS of canonical words, each
    in lexicographic order, where each level starts among the words joined,
    and the row map of every word."""

    levels: tuple[np.ndarray, ...]  # uint8 (W_k, k): level k's words, their gates
    starts: tuple[int, ...]  # level k's first word is word starts[k - 1]; the last entry is W
    maps: np.ndarray  # uint16 (2^(2n+1), W): column j maps every packed row through word j


@lru_cache(maxsize=None)
def _word_table(n: int) -> _WordTable:
    """The levels of canonical words that a ball walk may expand before it
    meets the ball (n <= _BALL_CHANNELS), and their maps, the levels joined
    in word order.  A level lists its parents' children parent-major and
    gate-minor, which is lexicographic order, and a child's map is its last
    gate's row table after its parent's map: one gather per level.  Arrays
    are read-only."""
    follows, tables = _follows(n), tableau.row_tables(n)
    last = np.zeros(1, dtype=np.intp)  # each word's row of follows: its last gate + 1
    words, levels, links = np.zeros((1, 0), dtype=np.uint8), [], []
    for _ in range(_DEPTH_HORIZON[n] - _BALL_RADIUS):
        parent, gate = np.nonzero(follows[last])
        words = np.column_stack([words[parent], gate.astype(np.uint8)])
        levels.append(words)
        links.append((parent, gate))
        last = gate + 1
    starts = (0, *np.cumsum([len(level) for level in levels]).tolist())
    # row-major, so that a chunk of columns is one run of the table per row gathered
    maps = np.empty((tables.shape[1], starts[-1]), dtype=np.uint16)
    above = np.arange(tables.shape[1], dtype=np.uint16)[:, None]  # the empty word's map
    for (parent, gate), start in zip(links, starts):
        maps[:, start:start + len(gate)] = tables[gate, above[:, parent]]
        above = maps[:, start:start + len(gate)]
    for array in (*levels, maps):
        array.flags.writeable = False
    return _WordTable(tuple(levels), starts, maps)


@lru_cache(maxsize=None)
def _distances(n: int) -> np.ndarray:
    """(2^(2n+1),) uint8: every packed row's distance, the fewest alphabet
    gates that take it to weight at most 1.  Every gate is an involution, so
    the rows one gate away from a level are its images."""
    tables = tableau.row_tables(n)
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


@lru_cache(maxsize=None)
def _root(n: int, aux_channel: int, value: AuxValue) -> np.ndarray:
    """(2n-1,) uint16, read-only: a case's input rows mapped through the
    encoder and the receiver prefix."""
    layout = input_layout([c for c in range(1, n + 1) if c != aux_channel], aux_channel, value)
    rows = tableau.apply_word(layout_rows(n, layout), n, alice_encoder(n) + bob_prefix(n))
    rows = rows.astype(np.uint16)
    rows.flags.writeable = False
    return rows


def _extend(rows: np.ndarray, n: int) -> np.ndarray:
    """(4n-3, ...) uint16: the (2n-1, ...) tableau rows, then each message
    row times S' (tableau.multiply), sign included: the rows a ball walk
    carries through its gates."""
    return np.concatenate([rows, tableau.multiply(rows[1:], rows[:1], n)])


@lru_cache(maxsize=None)
def _root_class(n: int, aux_channel: int, value: AuxValue) -> tuple[np.ndarray, int]:
    """A case's root extended by its products (_extend), read-only, and its
    class key (_class_keys); n <= _BALL_CHANNELS."""
    ext = _extend(_root(n, aux_channel, value), n)
    ext.flags.writeable = False
    return ext, int(_class_keys(ext[:, None], n)[0])


@lru_cache(maxsize=None)
def _row_places(n: int) -> np.ndarray:
    """(2n-2,) uint64: 2^(i(2n+1)), the place of message row i = 1..2n-2 in
    a key; the rows' bits do not overlap, so a product with it is their
    shift-and-OR."""
    return np.uint64(1) << np.arange(2 * n + 1, (2 * n - 1) * (2 * n + 1), 2 * n + 1,
                                     dtype=np.uint64)


def _class_keys(ext: np.ndarray, n: int) -> np.ndarray:
    """(K,) uint64: the class key of each of the (4n-3, K) extended tableaux
    (_extend), S' and then, at place i, the smaller of message row i and its
    product with S'."""
    low = np.minimum(ext[1:2 * n - 1], ext[2 * n - 1:])
    return np.matmul(_row_places(n), low, dtype=np.uint64) | ext[0]


class _Ball:
    """Every tableau class within _BALL_RADIUS gates of acceptance whose S'
    has an even Y count, the classes a root can reach."""

    __slots__ = ("n", "keys", "steps", "marks", "_views", "_shift")

    def __init__(self, n: int, keys: np.ndarray, steps: np.ndarray):
        self.n = n
        self.keys = keys  # sorted uint64 class keys
        self.steps = steps  # uint16 per key: its distance and least completion (_DISTANCE_SHIFT)
        self.marks = None  # bool, read-only: the membership bitmap, built by the first lookup
        self._views = memoryview(keys), memoryview(steps)
        self._shift = np.uint64(64 - (8 * len(keys) - 1).bit_length())  # at most 1/8 marked

    @staticmethod
    def distance_of(steps):
        """The distance of each step, an int or an array of them."""
        return steps >> _DISTANCE_SHIFT

    @staticmethod
    def completion(step: int) -> list[int]:
        """The alphabet indices of one in-ball step's least completion, in
        order: distance_of(step) gates."""
        return [step >> 4 * i & 0xF for i in range(step >> _DISTANCE_SHIFT)]

    def _marked(self, keys: np.ndarray) -> np.ndarray:
        """(K,) bool: the bitmap's entry for each uint64 class key, at its
        multiplicative hash; set for every key of the ball."""
        if self.marks is None:
            marks = np.zeros(1 << (64 - int(self._shift)), dtype=bool)
            marks[self.keys * _HASH_MULTIPLIER >> self._shift] = True
            marks.flags.writeable = False
            self.marks = marks
        return self.marks.take((keys * _HASH_MULTIPLIER >> self._shift).view(np.intp))

    def step_of(self, key: int) -> int:
        """The step of one class key (_class_keys), found by bisection in
        memoryviews of the tables, or _OUTSIDE outside the ball."""
        keys, steps = self._views
        at = bisect_left(keys, key)
        return steps[at] if at < len(keys) and keys[at] == key else _OUTSIDE

    def first_in_ball(self, chunks: Iterable[np.ndarray]) -> tuple[int, int]:
        """The position of the first tableau in the ball among the (4n-3, K)
        extended chunks joined, and its step, or (their length, _OUTSIDE) if
        none is: the keys a chunk's bitmap entries mark are bisected in
        order, up to the first in the ball."""
        start = 0
        for chunk in chunks:
            keys = _class_keys(chunk, self.n)
            for at in self._marked(keys).nonzero()[0].tolist():
                step = self.step_of(keys.item(at))
                if step != _OUTSIDE:
                    return start + at, step
            start += len(keys)
        return start, _OUTSIDE


def _unseen(seen: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted, distinct `keys`: where each goes in the sorted, nonempty
    `seen`, and which of them it does not hold."""
    at = np.searchsorted(seen, keys)
    return at, seen[np.minimum(at, len(seen) - 1)] != keys


@lru_cache(maxsize=None)
def _ball(n: int) -> _Ball:
    """The ball of radius _BALL_RADIUS around acceptance (target None), for
    n <= _BALL_CHANNELS: a breadth-first walk over classes from every
    accepted one, each key with the gate that first reached it followed by
    the completion of the class it was reached from (see the module
    docstring)."""
    starts = np.array([tableau.input_rows(n, tableau.pauli(n, perm[-1], x, z, sign), perm[:-1])
                       for perm in permutations(range(1, n + 1))
                       for x, z in ((1, 0), (0, 1)) for sign in (0, 1)], dtype=np.uint16)
    level = _extend(starts.T, n)  # (4n-3, L): the level's tableaux, extended, one per column
    keys = np.sort(_class_keys(level, n))
    steps = np.zeros(len(keys), dtype=np.uint16)
    # the least completion of each level tableau
    completions = np.zeros(level.shape[1], dtype=np.uint16)
    for d in range(1, _BALL_RADIUS + 1):
        found, found_completions = [], []
        for gate, table in enumerate(tableau.row_tables(n)):  # in alphabet order
            for start in range(0, level.shape[1], _CHUNK_CHILDREN):
                kids = table[level[:, start:start + _CHUNK_CHILDREN]]
                uniq, first = np.unique(_class_keys(kids, n), return_index=True)
                at, new = _unseen(keys, uniq)
                completion = completions[start:start + _CHUNK_CHILDREN][first[new]] << 4 | gate
                keys = np.insert(keys, at[new], uniq[new])
                steps = np.insert(steps, at[new], completion | d << _DISTANCE_SHIFT)
                if d < _BALL_RADIUS:  # the last level is never expanded
                    found.append(kids[:, first[new]])
                    found_completions.append(completion)
        level = np.concatenate(found, axis=1) if found else level[:, :0]
        completions = np.concatenate(found_completions) if found else completions[:0]
    for table in (keys, steps):
        table.flags.writeable = False
    return _Ball(n, keys, steps)


def _ball_walk(n: int, ext: np.ndarray, key: int, max_depth: int) -> Optional[list[Gate]]:
    """The least canonical word of at most max_depth gates, max_depth at
    most the horizon, that takes a root to acceptance with no target, or
    None (n <= _BALL_CHANNELS).  The root is given extended by its products
    (_extend), as the (4n-3,) `ext`, and by its class key `key`.  A root in
    the ball takes its class's stored least completion.  Outside it, the
    first tableau in the ball of the levels of _word_table, looked up as one
    stream, fixes the minimal length; then come its word and its class's
    stored least completion."""
    ball, word = _ball(n), []
    step = ball.step_of(key)
    if step == _OUTSIDE:
        # a first meeting past level max_depth - R would take more than max_depth gates
        table = _word_table(n)
        at, step = ball.first_in_ball(
            _stream(table.maps, ext, table.starts[max(0, max_depth - _BALL_RADIUS)]))
        if step == _OUTSIDE:
            return None
        k = bisect_right(table.starts, at) - 1
        word = table.levels[k][at - table.starts[k]].tolist()
    if len(word) + ball.distance_of(step) > max_depth:
        return None
    gates = _alphabet(n)
    return [gates[gate] for gate in word + ball.completion(step)]


def _stream(maps: np.ndarray, ext: np.ndarray, count: int) -> Iterator[np.ndarray]:
    """The extended root `ext` mapped through the first `count` words of the
    word table, in word order, as (4n-3, K) blocks: _FIRST_LOOKUP tableaux
    and then twice as many each time, each chunk one gather of `maps`, a
    run per row."""
    start, size = 0, _FIRST_LOOKUP
    while start < count:
        yield maps[ext, start:min(start + size, count)]
        start, size = start + size, 2 * size


class _Task:
    """One general walk, for a targeted solve or any solve at n >= 5 (see
    the module docstring), and the exact check of one word.

    A tableau is a (2n-1,) uint16 row array: the image of S, then the X
    images and the Z images of the messages in message order.
    """

    def __init__(self, n: int, aux_channel: int, value: AuxValue,
                 target: Optional[Layout]):
        self.n = n
        self.gates = _alphabet(n)
        self.tables = tableau.row_tables(n)
        self.dist = _distances(n)
        self.allowed = _follows(n)
        self.root = _root(n, aux_channel, value)
        self.target = None if target is None else layout_rows(n, target)

    @staticmethod
    def _keys(rows: np.ndarray) -> np.ndarray:
        """One sortable key per (K, 2n-1) uint16 tableau: its rows' raw bytes."""
        return np.ascontiguousarray(rows).view(np.dtype((np.void, 2 * rows.shape[1]))).ravel()

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
        """Exact check of one extension word: the root mapped through each
        gate's row table."""
        rows, index = self.root, tableau._gate_rows(self.n)
        for gate in ext:
            rows = self.tables[index[gate]].take(rows)
        return bool(self.accepts(rows[None])[0])

    def _general_walk(self, max_depth: int) -> Optional[list[Gate]]:
        """Levels kept by h and deduplicated against every earlier one, the
        first accepted tableau of the first level that has one."""
        level, words = self.root[None], np.zeros((1, 0), dtype=np.uint8)
        if self.lower_bound(level)[0] > max_depth:
            return None
        seen = self._keys(level)  # sorted keys of every tableau kept so far

        def fresh(kids):
            """The children within h of the gates left whose rows no
            earlier child reached, each at its first occurrence."""
            nonlocal seen
            live = np.flatnonzero(self.lower_bound(kids) <= left)
            uniq, first = np.unique(self._keys(kids[live]), return_index=True)
            at, new = _unseen(seen, uniq)
            seen = np.insert(seen, at[new], uniq[new])
            keep = np.zeros(len(kids), dtype=bool)
            keep[live[first[new]]] = True
            return keep

        for left in reversed(range(-1, max_depth)):  # gates a child may still add
            hit = np.flatnonzero(self.accepts(level))
            if hit.size:
                return [self.gates[gate] for gate in words[hit[0]].tolist()]
            if left < 0 or not len(level):
                return None
            level, words = self._step(level, words, left, fresh if left else self.accepts)
        return None

    def _step(self, level: np.ndarray, words: np.ndarray, left: int,
              keep: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The children of the level's tableaux, in word order, that keep(kids)
        marks, with their uint8 words: each parent's word in `words`, then
        the child's gate.  A child whose image of S alone is more than `left`
        gates from weight 1 is dropped before its other rows are looked up;
        with no gates left, only the first kept child is."""
        follows = words[:, -1] + 1 if words.shape[1] else np.zeros(1, dtype=np.uint8)
        chunk = max(1, _CHUNK_CHILDREN // len(self.gates))
        kept_rows, kept_words = [], []
        for start in range(0, len(level), chunk):
            parent, gate = np.nonzero(self.allowed[follows[start:start + chunk]])
            rows = level[start:start + chunk]
            live = self.dist[self.tables[gate, rows[parent, 0]]] <= left
            parent, gate = parent[live], gate[live]
            kids = self.tables[gate[:, None], rows[parent]]
            live = np.flatnonzero(keep(kids))
            kept_rows.append(kids[live])
            kept_words.append(np.column_stack([words[start + parent[live]],
                                               gate[live].astype(np.uint8)]))
            if left == 0 and live.size:  # the first kept child ends the walk
                return kept_rows[-1][:1], kept_words[-1][:1]
        return np.concatenate(kept_rows), np.concatenate(kept_words)


@lru_cache(maxsize=None)
def _registered_extension(n: int, value: AuxValue) -> tuple[Gate, ...]:
    """The registered decoder of canonical_case(n, value) after the receiver
    prefix: the program without the prefix where it starts with it, else
    the prefix undone (its gates are involutions) and then the program."""
    program, prefix = canonical_case(n, value).bob_program, tuple(bob_prefix(n))
    if program[:len(prefix)] == prefix:
        return program[len(prefix):]
    return prefix[::-1] + program


def solve_bob_program(
    channel_count: int,
    aux_channel: int,
    aux_value: AuxValue,
    max_gates: int = 10,
    target: Optional[Mapping] = None,
) -> Optional[list[Gate]]:
    """Find a decoding program for one (auxiliary channel, value) case.

    Returns the gate list to append after bob_prefix, or None if nothing
    was found within the bound.  With target=None any product output that
    returns every message is accepted (layout discovered); passing an
    expected layout restricts the search to programs reproducing exactly
    that arrangement and residue.  A target with a block word is refused:
    the bound h holds only for product outputs.
    """
    n = require_integer("channel count", channel_count)
    if not 3 <= n <= 6:
        raise UnsupportedSize(f"search supports 3..6 channels, got {n}")
    aux_channel = require_integer("auxiliary channel", aux_channel)
    if not 1 <= aux_channel <= n:
        raise ChannelOutOfRange(f"auxiliary channel {aux_channel} outside 1..{n}")
    if not isinstance(aux_value, AuxValue):
        raise InvalidInput(f"aux_value must be an AuxValue, got {aux_value!r}")
    max_gates = require_integer("max_gates", max_gates)
    if not 0 <= max_gates <= 14:
        raise InvalidInput("max_gates must lie in 0..14")
    target = None if target is None else Layout.of(target, n)
    if target is not None and target.block:
        raise InvalidInput("the search reaches product layouts only; the target has a block")
    if target is not None:
        residue = int(layout_rows(n, target)[0])
        if residue == 0 or (residue & (residue >> n) & ((1 << n) - 1)).bit_count() % 2:
            return None  # unreachable (module docstring)

    horizon = _DEPTH_HORIZON[n]
    depth, task = min(max_gates, horizon), None
    if target is None and n <= _BALL_CHANNELS:
        found = _ball_walk(n, *_root_class(n, aux_channel, aux_value), depth)
    else:
        task = _Task(n, aux_channel, aux_value, target)
        found = task._general_walk(depth)
    if found is not None:
        return found

    if max_gates > horizon and aux_channel == CANONICAL_AUX_CHANNEL.get(n):
        ext = list(_registered_extension(n, aux_value))
        task = task or _Task(n, aux_channel, aux_value, target)  # the ball walk builds none
        if len(ext) <= max_gates and task.verify(ext):
            return ext
    return None

