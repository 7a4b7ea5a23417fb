"""Independent oracles used to pin expected values.

Everything here recomputes results through a different route than the
package (explicit basis-index bookkeeping and dense matrices), so tests
compare two independent derivations.
"""

import itertools
from dataclasses import replace

import numpy as np

from intraport.protocol import MessageOut, ResidueOut, builtin_scenario
from intraport.qsim import ControlledNot, Hadamard, SingleQubit


def basis_index(bits):
    """Index of |b1 b2 ... bN> with channel 1 as the most significant bit."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


def product_oracle(qubit_arrays):
    """Tensor product computed entry by entry from basis indices."""
    n = len(qubit_arrays)
    out = np.zeros(2**n, dtype=complex)
    for idx in range(2**n):
        amp = 1.0 + 0j
        for k in range(n):
            bit = (idx >> (n - 1 - k)) & 1
            amp *= qubit_arrays[k][bit]
        out[idx] = amp
    return out


def gate_matrix_oracle(n, gate):
    """Dense 2^n x 2^n matrix built from the gate's basis action."""
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    if isinstance(gate, Hadamard):
        k = gate.channel
        s = 1 / np.sqrt(2)
        for col in range(dim):
            bit = (col >> (n - k)) & 1
            u[col, col] += s * (1.0 if bit == 0 else -1.0)
            u[col ^ (1 << (n - k)), col] += s
    elif isinstance(gate, ControlledNot):
        for col in range(dim):
            if (col >> (n - gate.control)) & 1:
                u[col ^ (1 << (n - gate.target)), col] = 1.0
            else:
                u[col, col] = 1.0
    else:
        raise TypeError(f"unknown gate {gate!r}")
    return u


def circuit_matrix_oracle(n, gates):
    u = np.eye(2**n, dtype=complex)
    for g in gates:
        u = gate_matrix_oracle(n, g) @ u
    return u


def apply_circuit_oracle(amps, n, gates):
    return circuit_matrix_oracle(n, gates) @ amps


def permute_channels_oracle(amps, n, perm):
    """Amplitudes after moving channel i's content to channel perm[i].

    perm maps 1-based source channel -> 1-based destination channel.
    """
    out = np.zeros_like(amps)
    for idx in range(2**n):
        new_idx = 0
        for ch in range(1, n + 1):
            bit = (idx >> (n - ch)) & 1
            new_idx |= bit << (n - perm[ch])
        out[new_idx] = amps[idx]
    return out


def random_state_vector(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def haar_qubit_array(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def decoder_layout_oracle(n, aux_channel, aux_qubit, gates):
    """The output layout of a circuit run on the protocol input, or None.

    The input carries m = n-1 messages on the channels other than
    aux_channel (in channel order) and the array `aux_qubit` on it.  The
    circuit decodes iff its isometry from the messages is, up to one global
    phase, a channel assignment of the messages times one fixed residue
    qubit.  Every residue channel and assignment is tried against the dense
    matrix; the result is a layout of MessageOut and ResidueOut entries.
    """
    m = n - 1
    message_channels = [c for c in range(1, n + 1) if c != aux_channel]
    basis = np.eye(2, dtype=complex)
    columns = []
    for i in range(2**m):
        bits = [(i >> (m - 1 - j)) & 1 for j in range(m)]
        qubits = [aux_qubit if c == aux_channel else basis[bits[message_channels.index(c)]]
                  for c in range(1, n + 1)]
        columns.append(product_oracle(qubits))
    isometry = circuit_matrix_oracle(n, gates) @ np.array(columns).T
    tensor = isometry.reshape((2,) * n + (2**m,))
    for res in range(1, n + 1):
        others = [c for c in range(1, n + 1) if c != res]
        for perm in itertools.permutations(others):
            w = np.moveaxis(tensor, [p - 1 for p in perm] + [res - 1], list(range(n)))
            w = w.reshape(2**m, 2, 2**m)
            residue = w[0, :, 0]
            if np.allclose(w, np.einsum("ai,b->abi", np.eye(2**m), residue), atol=1e-9):
                layout = {p: MessageOut(j) for j, p in enumerate(perm)}
                layout[res] = ResidueOut(SingleQubit.from_array(residue))
                return layout
    return None


def nearly_product_case(theta=1e-4):
    """(case, messages): figure 2 with one more CN from message 0's output
    channel to message 1's, and message 0 at angle theta from |0>.  The
    output is entangled, but each purity falls short of 1 by only
    2 sin^2 cos^2 (1 - <m1|X|m1>^2), about 1.6e-9 here: not a product at
    the default tolerance of 1e-10, a product at 1e-6."""
    case = builtin_scenario(2)
    out = {entry.index: ch for ch, entry in case.expected_layout.items()
           if isinstance(entry, MessageOut)}
    case = replace(case, bob_program=case.bob_program + (ControlledNot(out[0], out[1]),))
    return case, [SingleQubit(np.cos(theta), np.sin(theta)), SingleQubit(0.6, 0.8)]


def y_parity(rows, n):
    """Each packed row's Y count mod 2, the quadratic form q(x, z) = x . z
    that every H and CNOT keeps, counted channel by channel."""
    y = np.asarray(rows, dtype=np.int64)
    y = y & (y >> n)
    return sum((y >> k) & 1 for k in range(n)) % 2


def commutes(a, b, n):
    """Whether the packed Paulis a and b commute, elementwise: the channels
    on which one has an x bit and the other a z bit, counted channel by
    channel, are even in number."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    form = sum((((a >> k) & (b >> (n + k))) ^ ((a >> (n + k)) & (b >> k))) & 1 for k in range(n))
    return form % 2 == 0
