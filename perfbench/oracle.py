"""Dense-matrix oracle for the benchmark's output checks.

Independent of intraport's kernels: every circuit is turned into its full
2^n x 2^n unitary with numpy.kron, and checks compare whole linear maps, so
one complex phase is shared by every input (a check per input up to its own
phase would accept wrong relative phases).  Gates are plain tuples,
("h", k) or ("cn", control, target); channel 1 is the most significant bit
of the basis index, as in the paper's |b1 b2 ... bN> labels.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

TOL = 1e-9
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

AUX_STATES = {
    "zero": np.array([1.0, 0.0], dtype=complex),
    "one": np.array([0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
}


def gate_tuple(gate) -> tuple:
    """intraport gate object -> oracle tuple."""
    if hasattr(gate, "control"):
        return ("cn", gate.control, gate.target)
    return ("h", gate.channel)


def parse_gate_text(text: str) -> tuple:
    """'h K' or 'cn C T' (the CLI's gate text) -> oracle tuple."""
    word, *args = text.split()
    if word == "h" and len(args) == 1:
        return ("h", int(args[0]))
    if word == "cn" and len(args) == 2:
        return ("cn", int(args[0]), int(args[1]))
    raise ValueError(f"not a gate: {text!r}")


def parse_qc(source: str) -> tuple[int, list[tuple]]:
    """Channel count and gate list of .qc text; other directives are skipped."""
    n = None
    gates = []
    for raw in source.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, *args = line.split()
        if word == "channels":
            n = int(args[0])
        elif word in ("h", "cn"):
            gates.append(parse_gate_text(line))
    if n is None:
        raise ValueError("no channels directive")
    return n, gates


@lru_cache(maxsize=None)
def gate_matrix(n: int, gate: tuple) -> np.ndarray:
    dim = 1 << n
    if gate[0] == "h":
        k = gate[1]
        return np.kron(np.kron(np.eye(1 << (k - 1)), _H), np.eye(1 << (n - k)))
    _, c, t = gate
    u = np.zeros((dim, dim))
    for idx in range(dim):
        out = idx ^ (1 << (n - t)) if (idx >> (n - c)) & 1 else idx
        u[out, idx] = 1.0
    return u


def unitary(n: int, gates: Sequence[tuple]) -> np.ndarray:
    u = np.eye(1 << n)
    for g in gates:
        u = gate_matrix(n, g) @ u
    return u


def kron_all(vectors: Sequence[np.ndarray]) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for v in vectors:
        out = np.kron(out, v)
    return out


def encoder(n: int) -> list[tuple]:
    """Sender ladder: H_{N-1}, CN(N-1,N), ..., H_2, CN(2,3), CN(1,2), H_1."""
    gates: list[tuple] = []
    for k in range(n - 1, 1, -1):
        gates += [("h", k), ("cn", k, k + 1)]
    return gates + [("cn", 1, 2), ("h", 1)]


def prefix(n: int) -> list[tuple]:
    """Receiver's universal first five gates."""
    return [("cn", n - 1, n), ("h", n), ("cn", 1, n), ("h", 1), ("h", n)]


def _basis(bit: int) -> np.ndarray:
    return np.array([1.0, 0.0] if bit == 0 else [0.0, 1.0], dtype=complex)


def _message_map(n: int, aux_channel: int, aux: np.ndarray, decoder: Sequence[tuple]):
    """Columns: the decoded output for each computational basis message tuple."""
    m = n - 1
    u = unitary(n, encoder(n) + list(decoder))
    cols = []
    for bits in itertools.product((0, 1), repeat=m):
        it = iter(bits)
        cols.append(kron_all([aux if ch == aux_channel else _basis(next(it))
                              for ch in range(1, n + 1)]))
    return u @ np.stack(cols, axis=1)


def _layout_map(n: int, layout: dict) -> np.ndarray:
    """Expected output columns: layout maps channel -> ('m', j) or ('r', vec)."""
    cols = []
    for bits in itertools.product((0, 1), repeat=n - 1):
        cols.append(kron_all([_basis(bits[out[1]]) if out[0] == "m" else out[1]
                              for _, out in sorted(layout.items())]))
    return np.stack(cols, axis=1)


def _same_map_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    c = np.vdot(b[:, 0], a[:, 0])
    return abs(abs(c) - 1.0) <= TOL and float(np.max(np.abs(a - c * b))) <= TOL


def _discover_layout(n: int, a: np.ndarray) -> Optional[dict]:
    """Guess channel -> content from the zero-message column and the single
    excitations; _same_map_up_to_phase then decides exactly."""
    def p1(col):
        t = np.abs(col.reshape((2,) * n)) ** 2
        return np.array([t.take(1, axis=ch).sum() for ch in range(n)])

    base = p1(a[:, 0])
    layout: dict = {}
    for j in range(n - 1):
        col = a[:, 1 << (n - 2 - j)]
        ch = int(np.argmax(p1(col) - base)) + 1
        if ch in layout:
            return None
        layout[ch] = ("m", j)
    rest = [ch for ch in range(1, n + 1) if ch not in layout]
    if len(rest) != 1:
        return None
    r = rest[0]
    # all-zero messages: only the residue channel's axis is non-zero
    res = a[:, 0].reshape(1 << (r - 1), 2, 1 << (n - r))[0, :, 0]
    norm = np.linalg.norm(res)
    if norm < 0.5:
        return None
    layout[r] = ("r", res / norm)
    return layout


def decoder_layout(n: int, aux_channel: int, aux_value: str, decoder: Sequence[tuple],
                   layout: Optional[dict] = None) -> Optional[dict]:
    """Layout reached by encoder + `decoder`, or None if it is not a decoder.

    A decoder must return every message unchanged on some channel and leave
    a single known residue: the whole map from message tuples to outputs
    equals one fixed product layout up to one global phase.  With `layout`
    given, only that layout is accepted.
    """
    a = _message_map(n, aux_channel, AUX_STATES[aux_value], decoder)
    want = layout if layout is not None else _discover_layout(n, a)
    if want is None or not _same_map_up_to_phase(a, _layout_map(n, want)):
        return None
    return want


def permutation_ok(n: int, gates: Sequence[tuple], moves_to: Sequence[int]) -> bool:
    """True iff the gates move channel ch's content to channel moves_to[ch-1]."""
    p = np.zeros((1 << n, 1 << n))
    for bits in itertools.product((0, 1), repeat=n):
        out = [0] * n
        for ch in range(n):
            out[moves_to[ch] - 1] = bits[ch]
        p[int("".join(map(str, out)), 2), int("".join(map(str, bits)), 2)] = 1.0
    return float(np.max(np.abs(unitary(n, gates) - p))) <= TOL


def bell_branches(a: complex, b: complex, e: complex, f: complex) -> list[tuple[float, np.ndarray]]:
    """(probability, normalized 2-channel state) for measuring channel 3 as 0
    and 1 just before the last decoder gate, inputs a|1>+b|0> and e|1>+f|0>."""
    psi = unitary(3, encoder(3) + prefix(3)) @ kron_all(
        [np.array([b, a]), AUX_STATES["plus"], np.array([f, e])])
    t = psi.reshape(4, 2)
    out = []
    for outcome in (0, 1):
        branch = t[:, outcome]
        prob = float(np.vdot(branch, branch).real)
        out.append((prob, branch / math.sqrt(prob) if prob > 1e-12 else None))
    return out


@lru_cache(maxsize=None)
def binomial_accept(trials: int, p_num: int, p_den: int, alpha: float = 1e-9) -> tuple[int, int]:
    """Success counts k with P(X <= k) > alpha and P(X >= k) > alpha for
    X ~ Binomial(trials, p_num/p_den): a two-sided bound whose false-alarm
    rate for a correct implementation is at most 2 * alpha."""
    p = p_num / p_den
    pmf = [math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)]
    lo = next(k for k in range(trials + 1) if sum(pmf[: k + 1]) > alpha)
    hi = next(k for k in range(trials, -1, -1) if sum(pmf[k:]) > alpha)
    return lo, hi
