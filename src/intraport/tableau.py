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

conjugate applies the Aaronson-Gottesman update of one gate to every row:

    H_k:      sign ^= x_k z_k;  swap x_k and z_k
    CN(c,t):  sign ^= x_c z_t (x_t ^ z_c ^ 1);  x_t ^= x_c;  z_c ^= z_t

A protocol input is described by its input rows: the stabilizer S of the
auxiliary state (+Z, -Z or +X on its channel), then X_c for each message
channel c and then Z_c, in message order.  A circuit maps them to its
tableau, and accepts tells exactly whether the circuit decodes: it does iff
the image S' of S is a single-qubit Pauli on one channel r, which then holds
the residue (the +1 eigenstate of S'), and each message's X and Z images,
reduced modulo S', are +X_p and +Z_p on one channel p, where that message
reappears.  Given target rows (the input rows of the wanted layout), S' and
every reduced message row must equal the target's.

Two H/CNOT circuits U and V on n channels are equal up to a global phase
iff they map X_1..X_n and Z_1..Z_n to the same signed rows.  Then V^dagger U
commutes with every Pauli; the Paulis span all 2^n x 2^n matrices, so
V^dagger U is a multiple of the identity, and a unitary one.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .qsim import Gate, Hadamard


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
