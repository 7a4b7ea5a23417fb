"""Command-line front end.

Every subcommand writes one JSON document to stdout.  Exit codes: 0 for a
pass, 1 for a conformance failure, 2 for usage or parse errors.  All
randomness flows from explicit --seed flags; the INTRAPORT_TOL environment
variable overrides the default conformance tolerance of 1e-10.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

from .circuit import (
    MAX_CHANNELS,
    Circuit,
    CircuitParseError,
    decimal_float,
    decimal_int,
    gate_text,
    parse_circuit,
)
from .eavesdrop import DetectionMode, EveStrategy, run_experiment
from .errors import ImpossibleBranch, IntraportError
from .protocol import (
    DEFAULT_TOL,
    AuxValue,
    ProtocolCase,
    bell_byproduct,
    builtin_scenario,
    protocol_table,
    post_swap_plan,
    run_scenario,
)
from .qsim import (
    PureState,
    Segment,
    SingleQubit,
    channel_fidelity,
    factor_all,
    make_state,
    project,
    random_qubit,
    run_circuit,
)
from .search import solve_bob_program


def _tolerance(text: str) -> float:
    """A conformance tolerance: a number in [0, 1] (so never NaN, which
    would fail every check and is not valid JSON), read by
    circuit.decimal_float."""
    try:
        value = decimal_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance is not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"tolerance must lie in [0, 1], got {text!r}")
    return value


def _tol(args) -> float:
    """--tol, else INTRAPORT_TOL, else DEFAULT_TOL."""
    if args.tol is not None:
        return args.tol
    raw = os.environ.get("INTRAPORT_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return _tolerance(raw)
    except argparse.ArgumentTypeError as exc:
        raise IntraportError(f"INTRAPORT_TOL: {exc}") from None


def _parse_complex(text: str) -> complex:
    """An amplitude, 're' or 're,im', each part read by circuit.decimal_float,
    refused in those words."""
    parts = text.split(",")
    try:
        if len(parts) <= 2:
            return complex(*map(decimal_float, parts))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"an amplitude is 're' or 're,im' in decimal numbers, got {text!r}")


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _qubit_json(q: SingleQubit) -> dict:
    return {"coeff1": _pair(q.coeff1), "coeff0": _pair(q.coeff0)}


def _amplitudes_json(state: PureState) -> list[list[float]]:
    return [_pair(z) for z in state.amplitudes]


def _state_json(q: SingleQubit) -> list[list[float]]:
    return [_pair(q.coeff0), _pair(q.coeff1)]


# How json writes the floats that repr writes as nan, inf and -inf.
_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _key_json(key) -> str:
    """A dict key as json.dumps writes it: a string as itself, a number,
    bool or None as its JSON text in quotes, anything else a TypeError."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (float, int)) or key is None:  # bool is an int
        parts: list[str] = []
        _write_json(key, "", parts.append)
        return '"' + parts[0] + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(value, newline: str, out) -> None:
    """Pass the pieces of json.dumps(value, indent=2) to `out`, one
    nesting level deeper than `newline` (a newline and the enclosing
    indent).  str, float, list/tuple, dict and int exclude one another, so
    testing them in order of frequency decides as json's own order does."""
    if isinstance(value, float):
        text = float.__repr__(value)
        out(_FLOAT_SPECIALS.get(text, text))
    elif isinstance(value, str):
        out(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out(sep)
            out(encode_basestring_ascii(key) if type(key) is str else _key_json(key))
            out(": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _json_text(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte, TypeErrors included."""
    parts: list[str] = []
    _write_json(doc, "\n", parts.append)
    return "".join(parts)


def _emit(doc: dict) -> None:
    """Write doc to stdout as two-space indented, ASCII-escaped JSON and one
    newline, byte-identical to json.dumps(doc, indent=2) + "\\n".

    json.dumps is not called because CPython runs its C encoder only when
    indent is None; with an indent it falls back to a pure-Python generator
    chain that took a third to a half of a short call such as run-figure or
    table.  _json_text writes the same bytes in about half that time.
    """
    sys.stdout.write(_json_text(doc) + "\n")


def _error(message: str, **extra) -> int:
    _emit({"error": {"message": message, **extra}})
    return 2


def _messages_from_args(args, case: ProtocolCase) -> Optional[list[SingleQubit]]:
    """Build message qubits from --a..--f, or None if none were given.

    Each message takes the flag pair of its input channel: --a/--b for
    channel 1, --c/--d for channel 2, --e/--f for channel 3.  A flag of a
    channel that carries no message is refused, not ignored.
    """
    flags = tuple(("ab", "cd", "ef")[ch - 1] for ch in case.message_channels)
    given = {name: getattr(args, name) for name in "abcdef" if getattr(args, name) is not None}
    if not given:
        return None
    messages = []
    for pair in flags:
        hi, lo = pair[0], pair[1]
        if hi not in given or lo not in given:
            raise IntraportError(
                f"figure {case.figure_id} needs --{hi}/--{lo} (messages use flags {flags})"
            )
        messages.append(SingleQubit(coeff0=given[lo], coeff1=given[hi]))
    unused = [f"--{name}" for name in given if name not in "".join(flags)]
    if unused:
        raise IntraportError(f"figure {case.figure_id} does not use {', '.join(unused)} "
                             f"(messages use flags {flags})")
    return messages


def _claim_json(layout, ch: int) -> dict:
    """A layout's claim for one channel: a message index or the residue."""
    if ch == layout.residue_channel:
        return {"kind": "residue", "state": _state_json(layout.residue)}
    return {"kind": "message", "index": layout.columns[ch - 1]}


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_run_figure(args) -> int:
    t0 = time.perf_counter()
    figure = args.figure
    case = builtin_scenario(figure)
    tol = _tol(args)
    messages = _messages_from_args(args, case)
    if messages is None:
        if args.seed is None:
            return _error("provide message amplitudes or --seed")
        rng = np.random.default_rng(args.seed)
        messages = [random_qubit(rng) for _ in case.message_channels]
    elif args.seed is not None:
        return _error("provide message amplitudes or --seed, not both")

    report = run_scenario(figure, messages, tol)
    channels = []
    block = case.psi_block or ()
    for ch in range(1, case.channel_count + 1):
        if ch in block:
            claimed = {"kind": "psi-block", "channels": list(block)}
        else:
            claimed = _claim_json(case.expected_layout, ch)
            if claimed["kind"] == "message":
                claimed["state"] = _state_json(messages[claimed["index"]])
        factor = report.factors[ch - 1]
        observed = None if factor is None else _state_json(factor)
        channels.append({
            "channel": ch,
            "claimed": claimed,
            "observed_factor": observed,
            "fidelity": report.per_channel_fidelity[ch - 1],
        })
    _emit({
        "command": "run-figure",
        "figure": figure,
        "tolerance": tol,
        "inputs": {"messages": [_qubit_json(m) for m in messages],
                   "aux_value": case.aux_value.value,
                   "aux_channel": case.aux_channel},
        "channels": channels,
        "product_ok": report.product_ok,
        "entangled_block_fidelity": report.entangled_block_fidelity,
        "relative_phase": _pair(report.relative_phase),
        "passed": report.passed,
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    })
    return 0 if report.passed else 1


def _cmd_fuzz(args) -> int:
    t0 = time.perf_counter()
    case = builtin_scenario(args.figure)
    if args.trials < 1:
        return _error("--trials must be >= 1")
    tol = _tol(args)
    rng = np.random.default_rng(args.seed)
    failures = 0
    min_fid = 1.0
    min_block = None
    for _ in range(args.trials):
        messages = [random_qubit(rng) for _ in case.message_channels]
        report = run_scenario(args.figure, messages, tol)
        if not report.passed:
            failures += 1
        min_fid = min(min_fid, min(report.per_channel_fidelity))
        if report.entangled_block_fidelity is not None:
            min_block = (report.entangled_block_fidelity if min_block is None
                         else min(min_block, report.entangled_block_fidelity))
    _emit({
        "command": "fuzz",
        "figure": args.figure,
        "trials": args.trials,
        "seed": args.seed,
        "tolerance": tol,
        "failures": failures,
        "min_fidelity": min_fid,
        "min_block_fidelity": min_block,
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    })
    return 0 if failures == 0 else 1


def _cmd_table(args) -> int:
    if args.channels != 3:
        return _error("the protocol table is enumerated for --channels 3 only")
    cases = protocol_table(3, reduced=args.reduced)
    rows = []
    for case in cases:
        rows.append({
            "case_id": case.case_id,
            "aux_channel": case.aux_channel,
            "aux_value": case.aux_value.value,
            "message_channels": list(case.message_channels),
            "bob_program": [gate_text(g) for g in case.bob_program],
            "expected_layout": {str(ch): _claim_json(case.expected_layout, ch)
                                for ch in case.expected_layout},
        })
    _emit({
        "command": "table",
        "channels": 3,
        "reduced": bool(args.reduced),
        "case_count": len(rows),
        "cases": rows,
    })
    return 0


def _complex_pair(pair) -> complex:
    """A JSON [re, im] pair of two numbers (int or float, not bool)."""
    if type(pair) is not list or len(pair) != 2 or any(type(x) not in (int, float) for x in pair):
        raise IntraportError(f"expected a pair of numbers [re, im], got {pair!r}")
    return complex(*pair)


def _load_input_state(path: str, channel_count: int) -> PureState:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "basis" in doc:
        bits = doc["basis"]
        if type(bits) is not str or len(bits) != channel_count or any(b not in "01" for b in bits):
            raise IntraportError(f"basis string must be {channel_count} bits of 0/1")
        qubits = [SingleQubit(1.0, 0.0) if b == "0" else SingleQubit(0.0, 1.0) for b in bits]
        return make_state(qubits)
    if "qubits" in doc:
        qubits = [SingleQubit(_complex_pair(c0), _complex_pair(c1)) for c0, c1 in doc["qubits"]]
        if len(qubits) != channel_count:
            raise IntraportError(f"expected {channel_count} qubits, got {len(qubits)}")
        return make_state(qubits)
    if "amplitudes" in doc:
        amps = np.array([_complex_pair(pair) for pair in doc["amplitudes"]])
        return PureState(channel_count, amps)
    raise IntraportError("input file needs one of: basis, qubits, amplitudes")


def _cmd_exec(args) -> int:
    try:
        with open(args.circuit, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _error(f"cannot read circuit file: {exc}")
    try:
        circuit = parse_circuit(source)
    except CircuitParseError as exc:
        return _error(str(exc), line=exc.line_number, kind=exc.kind.value)
    try:
        state = _load_input_state(args.input, circuit.channel_count)
    except (IntraportError, OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        return _error(f"bad input state: {exc}")
    out = run_circuit(state, circuit, Segment.ALL)
    factors = factor_all(out)
    measurements = []
    for ch, label in circuit.measurements:
        try:
            p1, _ = project(out, ch, 1)
        except ImpossibleBranch:
            p1 = 0.0
        measurements.append({"channel": ch, "label": label,
                             "p0": 1.0 - p1, "p1": p1})
    _emit({
        "command": "exec",
        "circuit": args.circuit,
        "channels": circuit.channel_count,
        "gate_count": len(circuit.gates),
        "amplitudes": _amplitudes_json(out),
        "factors": None if factors is None else
            [_state_json(f) for f in factors],
        "measurements": measurements,
    })
    return 0


def _cmd_swap(args) -> int:
    t0 = time.perf_counter()
    n = args.channels
    if not 2 <= n <= MAX_CHANNELS:
        # the demonstration holds a 2^n state vector
        return _error(f"--channels must lie in 2..{MAX_CHANNELS}")
    not_permutation = f"--to must be a permutation of 1..{n}"
    try:
        targets = ([decimal_int(x) for x in args.to.split(",")] if args.to is not None
                   else list(range(2, n + 1)) + [1])
    except ValueError:
        return _error(not_permutation)
    if sorted(targets) != list(range(1, n + 1)):
        return _error(not_permutation)
    current = {ch: ("slot", ch) for ch in range(1, n + 1)}
    desired = {targets[ch - 1]: ("slot", ch) for ch in range(1, n + 1)}
    gates = post_swap_plan(current, desired)
    rng = np.random.default_rng(args.seed)
    qubits = [random_qubit(rng) for _ in range(n)]
    state = make_state(qubits)
    out = run_circuit(state, Circuit(n, tuple(gates)), Segment.ALL)
    expected = [None] * n
    for ch in range(1, n + 1):
        expected[targets[ch - 1] - 1] = qubits[ch - 1]
    fids = []
    for ch in range(1, n + 1):
        fids.append(channel_fidelity(out, ch, expected[ch - 1]))
    passed = min(fids) >= 1 - _tol(args)
    _emit({
        "command": "swap",
        "channels": n,
        "content_moves_to": targets,
        "seed": args.seed,
        "gates": [gate_text(g) for g in gates],
        "per_channel_fidelity": fids,
        "passed": bool(passed),
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    })
    return 0 if passed else 1


def _cmd_solve_bob(args) -> int:
    t0 = time.perf_counter()
    value = AuxValue.parse(args.aux_value)
    program = solve_bob_program(args.channels, args.aux_channel, value, args.max_gates)
    _emit({
        "command": "solve-bob",
        "channels": args.channels,
        "aux_channel": args.aux_channel,
        "aux_value": value.value,
        "max_gates": args.max_gates,
        "found": program is not None,
        "program": None if program is None else [gate_text(g) for g in program],
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    })
    return 0 if program is not None else 1


# Each tail of the eavesdrop exit-code check: a correct implementation exits 1
# with probability at most twice this.
_EVE_TAIL_ALPHA = 1e-9
_EVE_HELP = (
    "run the interception Monte-Carlo experiment; exits 1 when Eve's success "
    "count lies outside the exact two-sided binomial region of the analytic "
    "rate (false-alarm rate at most 2e-9 for a correct implementation)"
)


def _binomial_consistent(successes: int, trials: int, p: float) -> bool:
    """True iff P(X <= successes) > alpha and P(X >= successes) > alpha for
    X ~ Binomial(trials, p), alpha = _EVE_TAIL_ALPHA.  For p = 0 or 1 that
    leaves exactly 0 or `trials` successes.

    The pmf is summed in log space (math.lgamma), because math.comb(trials, k)
    times a float overflows beyond about 1,030 trials.
    """
    if p <= 0.0:
        return successes == 0
    if p >= 1.0:
        return successes == trials
    log_p, log_q, log_norm = math.log(p), math.log1p(-p), math.lgamma(trials + 1)

    def pmf(k: int) -> float:
        return math.exp(log_norm - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                        + k * log_p + (trials - k) * log_q)

    below = math.fsum(pmf(k) for k in range(successes + 1))
    above = math.fsum(pmf(k) for k in range(successes, trials + 1))
    return below > _EVE_TAIL_ALPHA and above > _EVE_TAIL_ALPHA


def _cmd_eavesdrop(args) -> int:
    if args.strategy != "fixed" and (args.fixed_channel, args.fixed_value) != (None, None):
        return _error("--fixed-channel and --fixed-value need --strategy fixed")
    if args.strategy == "uniform":
        strategy = EveStrategy.uniform_guess(args.strategy_seed)
    elif args.strategy == "absent":
        strategy = None
    else:
        if args.fixed_channel is None or args.fixed_value is None:
            return _error("fixed strategy needs --fixed-channel and --fixed-value")
        value = AuxValue.parse(args.fixed_value)
        strategy = EveStrategy.fixed_guess(args.fixed_channel, value, args.strategy_seed)
    mode = DetectionMode(args.mode)
    stats = run_experiment(args.channels, args.trials, strategy, args.seed, mode)
    _emit(dataclasses.asdict(stats))
    successes = round(stats.eve_success_rate * stats.trials)
    return 0 if _binomial_consistent(successes, stats.trials, stats.analytic_success_rate) else 1


def _cmd_bell(args) -> int:
    if args.seed is not None:
        if (args.a, args.b, args.e, args.f) != (None,) * 4:
            return _error("provide --a --b --e --f or --seed, not both")
        rng = np.random.default_rng(args.seed)
        m1, m3 = random_qubit(rng), random_qubit(rng)
        a, b = m1.coeff1, m1.coeff0
        e, f = m3.coeff1, m3.coeff0
    else:
        if None in (args.a, args.b, args.e, args.f):
            return _error("provide --a --b --e --f or --seed")
        a, b, e, f = args.a, args.b, args.e, args.f
    branches = []
    total = 0.0
    for outcome in (0, 1):
        try:
            prob, state = bell_byproduct(a, b, e, f, outcome)
            branches.append({"outcome": outcome, "probability": prob,
                             "state": _amplitudes_json(state)})
        except ImpossibleBranch:
            branches.append({"outcome": outcome, "probability": 0.0, "state": None})
            prob = 0.0
        total += prob
    _emit({
        "command": "bell",
        "inputs": {"a": _pair(a), "b": _pair(b), "e": _pair(e), "f": _pair(f)},
        "branches": branches,
        "probability_sum": total,
    })
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _integer(text: str) -> int:
    """An integer argument, by the .qc files' rule (circuit.decimal_int),
    refused in argparse's words for type=int."""
    try:
        return decimal_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _rng_seed(text: str) -> int:
    """A --seed for numpy's default_rng, which refuses negative seeds."""
    try:
        value = decimal_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _trial_seed(text: str) -> int:
    """An eavesdrop seed.  Trial seeds are masked to 64 bits, so a seed of
    2^64 or more would silently repeat a smaller seed's trials."""
    value = _rng_seed(text)
    if value >= 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be < 2^64, got {value}")
    return value


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing them to stderr and exiting,
    so that main can report them as the JSON error document."""

    def error(self, message):
        raise _UsageError(message, self.format_usage().strip())


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing does not change it."""
    parser = _Parser(
        prog="intraport",
        description="Simulate and verify multi-state transmission over a "
                    "Hadamard/CNOT network split between sender and receiver.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_amp_flags(p, names):
        for name in names:
            p.add_argument(f"--{name}", type=_parse_complex, default=None,
                           help=f"amplitude {name} as 're' or 're,im'")

    p = sub.add_parser("run-figure", help="run one builtin figure scenario")
    p.add_argument("figure", type=_integer)
    p.add_argument("--seed", type=_rng_seed, default=None)
    p.add_argument("--tol", type=_tolerance, default=None)
    add_amp_flags(p, "abcdef")
    p.set_defaults(func=_cmd_run_figure)

    p = sub.add_parser("fuzz", help="random-input conformance fuzzing of a figure")
    p.add_argument("--figure", type=_integer, required=True)
    p.add_argument("--trials", type=_integer, default=100)
    p.add_argument("--seed", type=_rng_seed, default=0)
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("table", help="print the three-channel protocol table")
    p.add_argument("--channels", type=_integer, default=3)
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("exec", help="execute a .qc circuit file on an input state")
    p.add_argument("circuit")
    p.add_argument("--in", dest="input", required=True, help="JSON input state file")
    p.set_defaults(func=_cmd_exec)

    p = sub.add_parser("swap", help="demonstrate channel-content permutation via CN triples")
    p.add_argument("--channels", type=_integer, default=3)
    p.add_argument("--to", type=str, default=None,
                   help="comma list: content of channel i moves to the i-th entry")
    p.add_argument("--seed", type=_rng_seed, default=0)
    p.add_argument("--tol", type=_tolerance, default=None)
    p.set_defaults(func=_cmd_swap)

    p = sub.add_parser("solve-bob", help="search for a receiver decoding program")
    p.add_argument("--channels", type=_integer, required=True)
    p.add_argument("--aux-channel", type=_integer, required=True)
    p.add_argument("--aux-value", type=str, required=True)
    p.add_argument("--max-gates", type=_integer, default=10)
    p.set_defaults(func=_cmd_solve_bob)

    p = sub.add_parser("eavesdrop", help=_EVE_HELP, description=_EVE_HELP)
    p.add_argument("--channels", type=_integer, default=3)
    p.add_argument("--trials", type=_integer, default=1000)
    p.add_argument("--seed", type=_trial_seed, default=0)
    p.add_argument("--mode", choices=[m.value for m in DetectionMode],
                   default="omniscient")
    p.add_argument("--strategy", choices=["uniform", "fixed", "absent"],
                   default="uniform")
    p.add_argument("--strategy-seed", type=_trial_seed, default=0)
    p.add_argument("--fixed-channel", type=_integer, default=None)
    p.add_argument("--fixed-value", type=str, default=None)
    p.set_defaults(func=_cmd_eavesdrop)

    p = sub.add_parser("bell", help="entangled byproduct of measuring channel 3 early")
    p.add_argument("--seed", type=_rng_seed, default=None)
    add_amp_flags(p, "abef")
    p.set_defaults(func=_cmd_bell)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        return _error(str(exc), usage=exc.usage)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except IntraportError as exc:
        return _error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
