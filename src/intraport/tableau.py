"""Stabilizer tableaux of H/CNOT circuits (Aaronson and Gottesman,
quant-ph/0406196).

Every circuit here is Clifford: conjugation by H or CNOT, P -> U P U^dagger,
maps each Pauli operator to a Pauli operator.  A Pauli on n channels is
packed into one integer row: bit k-1 is the x bit and bit n+k-1 the z bit
of channel k, and bit 2n is the sign, so a row stands for (-1)^sign times
the product over channels of X^x Z^z, with x = z = 1 read as the Hermitian
Y = iXZ.  Rows are numpy int arrays of any shape; uint16 holds n <= 7
channels and int64 n <= 31.  The XOR of two rows' x and z bits is their
product up to a sign, and conjugation acts linearly on those bits.
multiply gives the sign too, by the Aaronson-Gottesman phase rule: the
product of the channel factors (x1, z1)(x2, z2) carries i^g, with g = +1
for XY, YZ and ZX, g = -1 for YX, ZY and XZ and g = 0 otherwise, and two
commuting rows multiply to (-1)^(sign1 + sign2 + (sum of g) / 2) times the
XOR row.

conjugate applies the Aaronson-Gottesman update of one gate to every row:

    H_k:      sign ^= x_k z_k;  swap x_k and z_k
    CN(c,t):  sign ^= x_c z_t (x_t ^ z_c ^ 1);  x_t ^= x_c;  z_c ^= z_t

A protocol input is described by its input rows: the stabilizer S of the
auxiliary state (+Z, -Z or +X on its channel), then X_c for each message
channel c and then Z_c, in message order; protocol.layout_rows builds the
rows of any layout.  A circuit maps them to its tableau, and accepts tells
exactly whether the circuit decodes: it does iff the image S' of S is a
single-qubit Pauli on one channel r, which then holds the residue (the +1
eigenstate of S'), and each message's X and Z images, reduced modulo S',
are +X_p and +Z_p on one channel p, where that message reappears.  Given
target rows (the input rows of the wanted layout), S' and every reduced
message row must equal the target's.

Two H/CNOT circuits U and V on n channels are equal up to a global phase
iff they map X_1..X_n and Z_1..Z_n to the same signed rows.  Then V^dagger U
commutes with every Pauli; the Paulis span all 2^n x 2^n matrices, so
V^dagger U is a multiple of the identity, and a unitary one.

Rows evolve independently, so each gate of the alphabet is also one lookup
table over all 2^(2n+1) packed rows (row_tables), conjugate applied once per
row.  A gate word's tables compose into one more (pull_back): P -> U^dagger
P U, the Heisenberg picture of the word U.  H and CNOT are self-inverse, so
that is P conjugated by U's gates last first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .qsim import ControlledNot, Gate, Hadamard


def gate_alphabet(channel_count: int) -> list[Gate]:
    """Canonical gate order: H_1..H_N, then CN(c,t) lexicographic."""
    gates: list[Gate] = [Hadamard(k) for k in range(1, channel_count + 1)]
    for c in range(1, channel_count + 1):
        for t in range(1, channel_count + 1):
            if c != t:
                gates.append(ControlledNot(c, t))
    return gates


def conjugate(rows: np.ndarray, n: int, gate: Gate) -> np.ndarray:
    """Every packed row's image under one gate (the update above)."""
    sign = 1 << (2 * n)
    if isinstance(gate, Hadamard):
        k = gate.channel - 1
        x, z = (rows >> k) & 1, (rows >> (n + k)) & 1
        return rows ^ ((x & z) * sign) ^ ((x ^ z) * ((1 << k) | (1 << (n + k))))
    c, t = gate.control - 1, gate.target - 1
    xc, zc = (rows >> c) & 1, (rows >> (n + c)) & 1
    xt, zt = (rows >> t) & 1, (rows >> (n + t)) & 1
    return rows ^ ((xc & zt & (xt ^ zc ^ 1)) * sign) ^ (xc << t) ^ (zt << (n + c))


@lru_cache(maxsize=None)
def row_tables(n: int) -> np.ndarray:
    """(g, 2^(2n+1)) uint16, read-only: every packed row's image under each
    gate of gate_alphabet(n), in that order (n <= 7)."""
    row = np.arange(1 << (2 * n + 1), dtype=np.uint16)
    tables = np.stack([conjugate(row, n, g) for g in gate_alphabet(n)])
    tables.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _gate_rows(n: int) -> dict[Gate, int]:
    """Each alphabet gate's row in row_tables(n)."""
    return {gate: i for i, gate in enumerate(gate_alphabet(n))}


def pull_back(n: int, gates: Sequence[Gate]) -> np.ndarray:
    """(2^(2n+1),) uint16: entry P is the packed row U^dagger P U for the
    gate word U (first gate first), one gather over row_tables per gate."""
    tables, rows = row_tables(n), _gate_rows(n)
    out = np.arange(1 << (2 * n + 1), dtype=np.uint16)
    for gate in gates:
        # out[P] was the pull-back through the gates before this one, so
        # out[T[P]] conjugates P by this gate first
        out = np.take(out, tables[rows[gate]])
    return out


def pauli(n: int, channel: int, x: int, z: int, sign: int = 0) -> int:
    """The packed single-channel Pauli (-1)^sign X^x Z^z on `channel`."""
    return (x << (channel - 1)) | (z << (n + channel - 1)) | (sign << (2 * n))


def multiply(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The packed product a b of commuting rows, elementwise with numpy
    broadcasting (the phase rule above).  For anticommuting rows the
    product is i times a Pauli, which no row holds; its sign bit is then
    meaningless."""
    mask = (1 << n) - 1
    x1, z1, x2, z2 = a & mask, (a >> n) & mask, b & mask, (b >> n) & mask
    y1, y2 = x1 & z1, x2 & z2
    xo1, zo1, xo2, zo2 = x1 ^ y1, z1 ^ y1, x2 ^ y2, z2 ^ y2
    plus = (xo1 & y2) | (y1 & zo2) | (zo1 & xo2)
    minus = (y1 & xo2) | (zo1 & y2) | (xo1 & zo2)
    # the sum of g mod 4, counting each -1 as 3 so nothing goes negative
    g = sum(((plus >> k) & 1) + 3 * ((minus >> k) & 1) for k in range(n))
    return a ^ b ^ (((g >> 1) & 1) << (2 * n))


def apply_word(rows: np.ndarray, n: int, gates: Sequence[Gate]) -> np.ndarray:
    """The rows' images under a gate word, first gate first."""
    for gate in gates:
        rows = conjugate(rows, n, gate)
    return rows


def input_rows(n: int, stabilizer: int, message_channels: Sequence[int]) -> np.ndarray:
    """(2m+1,) int64: the stabilizer row, then X_c and then Z_c for each
    of the m message channels c."""
    return np.array([stabilizer]
                    + [1 << (c - 1) for c in message_channels]
                    + [1 << (n + c - 1) for c in message_channels], dtype=np.int64)


def one_bit(v: np.ndarray) -> np.ndarray:
    """Which entries have exactly one bit set."""
    return (v != 0) & ((v & (v - 1)) == 0)


def support(rows: np.ndarray, n: int) -> np.ndarray:
    """The channels each packed Pauli acts on, as bits 0..n-1."""
    return (rows | (rows >> n)) & ((1 << n) - 1)


def accepts(rows: np.ndarray, n: int, target: Optional[np.ndarray] = None) -> np.ndarray:
    """(K,) bool: which of the (K, 2m+1) tableaux decode (exact test).
    With `target`, only those reaching its layout."""
    s = rows[:, 0]
    supp = support(s, n)
    ok = one_bit(supp)  # S' acts on one channel r
    if target is not None:
        ok &= s == target[0]
    hits = np.flatnonzero(ok)
    s, msg, supp = s[hits, None], rows[hits, 1:], supp[hits, None]
    on_res = supp | (supp << n)
    # reduce modulo S': multiply by S' where the r-parts agree (the
    # Paulis commute and square to I, so the signs just add)
    red = np.where((msg & on_res) == (s & on_res), msg ^ s, msg)
    if target is not None:
        good = red == target[1:]
    else:
        # one +X_p off the residue channel, and +Z_p on the same p
        m = msg.shape[1] // 2
        x, z = red[:, :m], red[:, m:]
        good = one_bit(x) & (x <= (1 << n) - 1) & ((x & supp) == 0) & (z == x << n)
    out = np.zeros(len(rows), dtype=bool)
    out[hits[good.all(axis=1)]] = True
    return out
