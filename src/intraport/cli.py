"""Command-line front end.

Every subcommand writes one JSON document to stdout.  Exit codes: 0 for a
pass, 1 for a conformance failure, 2 for usage or parse errors.  All
randomness flows from explicit --seed flags; the INTRAPORT_TOL environment
variable overrides the default conformance tolerance of 1e-10.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .circuit import Circuit, CircuitParseError, parse_circuit
from .eavesdrop import DetectionMode, EveStrategy, run_experiment
from .errors import IntraportError
from .protocol import (
    AuxValue,
    MessageOut,
    bell_byproduct,
    builtin_scenario,
    protocol_table,
    post_swap_plan,
    run_scenario,
    scenario_input,
)
from .qsim import (
    Hadamard,
    PureState,
    Segment,
    SingleQubit,
    channel_fidelity,
    factor_all,
    factor_channel,
    make_state,
    project,
    random_qubit,
    run_circuit,
)
from .search import solve_bob_program

DEFAULT_TOL = 1e-10

# Which amplitude-flag pairs feed each figure's message slots.
_FIGURE_FLAGS = {
    1: ("ab", "ef"),
    2: ("ab", "ef"),
    3: ("ab", "ef"),
    4: ("ab", "cd"),
    6: ("cd", "ef"),
    7: ("ab", "cd", "ef"),
    8: ("ab", "cd", "ef"),
    9: ("ab", "cd", "ef"),
}


def _tol_default() -> float:
    raw = os.environ.get("INTRAPORT_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        raise IntraportError(f"INTRAPORT_TOL is not a number: {raw!r}") from None


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"expected 're' or 're,im', got {text!r}")


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _qubit_json(q: SingleQubit) -> dict:
    return {"coeff1": _pair(q.coeff1), "coeff0": _pair(q.coeff0)}


def _amplitudes_json(state: PureState) -> list[list[float]]:
    return [_pair(z) for z in state.amplitudes]


def _gate_text(g) -> str:
    if isinstance(g, Hadamard):
        return f"h {g.channel}"
    return f"cn {g.control} {g.target}"


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _error(message: str, **extra) -> int:
    _emit({"error": {"message": message, **extra}})
    return 2


def _messages_from_args(args, figure: int) -> Optional[list[SingleQubit]]:
    """Build message qubits from --a..--f, or None if none were given."""
    flags = _FIGURE_FLAGS[figure]
    given = {name: getattr(args, name) for name in "abcdef" if getattr(args, name) is not None}
    if not given:
        return None
    messages = []
    for pair in flags:
        hi, lo = pair[0], pair[1]
        if hi not in given or lo not in given:
            raise IntraportError(
                f"figure {figure} needs --{hi}/--{lo} (messages use flags {flags})"
            )
        messages.append(SingleQubit(coeff0=given[lo], coeff1=given[hi]))
    return messages


def _layout_json(layout) -> dict:
    out = {}
    for ch in sorted(layout):
        entry = layout[ch]
        if isinstance(entry, MessageOut):
            out[str(ch)] = {"kind": "message", "index": entry.index}
        else:
            out[str(ch)] = {
                "kind": "residue",
                "state": [_pair(entry.state.coeff0), _pair(entry.state.coeff1)],
            }
    return out


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_run_figure(args) -> int:
    t0 = time.perf_counter()
    figure = args.figure
    if figure == 5:
        return _error("figure 5 is the swap demonstration; use 'swap'")
    if figure not in _FIGURE_FLAGS:
        return _error(f"no scenario for figure {figure} (valid: 1-4, 6-9)")
    tol = args.tol if args.tol is not None else _tol_default()

    try:
        messages = _messages_from_args(args, figure)
    except (IntraportError, ValueError) as exc:
        return _error(str(exc))
    scenario = builtin_scenario(figure)
    if messages is None:
        if args.seed is None:
            return _error("provide message amplitudes or --seed")
        rng = np.random.default_rng(args.seed)
        messages = [random_qubit(rng) for _ in range(scenario.message_count)]
    elif len(messages) != scenario.message_count:
        return _error(f"figure {figure} takes {scenario.message_count} messages")

    report = run_scenario(figure, messages, tol)
    state = run_circuit(scenario_input(scenario, messages), scenario.circuit, Segment.ALL)
    channels = []
    for ch in range(1, scenario.circuit.channel_count + 1):
        if scenario.psi_block is not None and ch in scenario.psi_block:
            claimed = {"kind": "psi-block", "channels": list(scenario.psi_block)}
        else:
            entry = scenario.claimed_outputs[ch]
            if isinstance(entry, MessageOut):
                claimed = {"kind": "message", "index": entry.index,
                           "state": [_pair(messages[entry.index].coeff0),
                                     _pair(messages[entry.index].coeff1)]}
            else:
                claimed = {"kind": "residue",
                           "state": [_pair(entry.state.coeff0), _pair(entry.state.coeff1)]}
        split = factor_channel(state, ch) if state.channel_count >= 2 else None
        observed = None if split is None else [_pair(split[0].coeff0), _pair(split[0].coeff1)]
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
                   "aux_value": scenario.aux_value.value,
                   "aux_channel": scenario.aux_channel},
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
    if args.figure == 5 or args.figure not in _FIGURE_FLAGS:
        return _error(f"no scenario for figure {args.figure} (valid: 1-4, 6-9)")
    if args.trials < 1:
        return _error("--trials must be >= 1")
    tol = args.tol if args.tol is not None else _tol_default()
    scenario = builtin_scenario(args.figure)
    rng = np.random.default_rng(args.seed)
    failures = 0
    min_fid = 1.0
    min_block = None
    for _ in range(args.trials):
        messages = [random_qubit(rng) for _ in range(scenario.message_count)]
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
            "bob_program": [_gate_text(g) for g in case.bob_program],
            "expected_layout": _layout_json(case.expected_layout),
        })
    _emit({
        "command": "table",
        "channels": 3,
        "reduced": bool(args.reduced),
        "case_count": len(rows),
        "cases": rows,
    })
    return 0


def _load_input_state(path: str, channel_count: int) -> PureState:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "basis" in doc:
        bits = doc["basis"]
        if len(bits) != channel_count or any(b not in "01" for b in bits):
            raise IntraportError(f"basis string must be {channel_count} bits of 0/1")
        qubits = [SingleQubit(1.0, 0.0) if b == "0" else SingleQubit(0.0, 1.0) for b in bits]
        return make_state(qubits)
    if "qubits" in doc:
        qubits = [SingleQubit(complex(*c0), complex(*c1)) for c0, c1 in doc["qubits"]]
        if len(qubits) != channel_count:
            raise IntraportError(f"expected {channel_count} qubits, got {len(qubits)}")
        return make_state(qubits)
    if "amplitudes" in doc:
        amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
        return PureState(channel_count, amps)
    raise IntraportError("input file needs one of: basis, qubits, amplitudes")


def _cmd_exec(args) -> int:
    try:
        with open(args.circuit, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        return _error(f"cannot read circuit file: {exc}")
    try:
        circuit = parse_circuit(source)
    except CircuitParseError as exc:
        return _error(str(exc), line=exc.line_number, kind=exc.kind.value)
    try:
        state = _load_input_state(args.input, circuit.channel_count)
    except (IntraportError, OSError, ValueError, KeyError, TypeError) as exc:
        return _error(f"bad input state: {exc}")
    out = run_circuit(state, circuit, Segment.ALL)
    factors = factor_all(out)
    measurements = []
    for ch, label in circuit.measurements:
        try:
            p1, _ = project(out, ch, 1)
        except IntraportError:
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
            [[_pair(f.coeff0), _pair(f.coeff1)] for f in factors],
        "measurements": measurements,
    })
    return 0


def _cmd_swap(args) -> int:
    t0 = time.perf_counter()
    n = args.channels
    if n < 2:
        return _error("--channels must be >= 2")
    not_permutation = f"--to must be a permutation of 1..{n}"
    try:
        targets = [int(x) for x in args.to.split(",")] if args.to else list(range(2, n + 1)) + [1]
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
    passed = min(fids) >= 1 - (args.tol if args.tol is not None else _tol_default())
    _emit({
        "command": "swap",
        "channels": n,
        "content_moves_to": targets,
        "seed": args.seed,
        "gates": [_gate_text(g) for g in gates],
        "per_channel_fidelity": fids,
        "passed": bool(passed),
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    })
    return 0 if passed else 1


def _cmd_solve_bob(args) -> int:
    t0 = time.perf_counter()
    try:
        value = AuxValue.parse(args.aux_value)
    except IntraportError as exc:
        return _error(str(exc))
    try:
        program = solve_bob_program(args.channels, args.aux_channel, value, args.max_gates)
    except IntraportError as exc:
        return _error(str(exc))
    _emit({
        "command": "solve-bob",
        "channels": args.channels,
        "aux_channel": args.aux_channel,
        "aux_value": value.value,
        "max_gates": args.max_gates,
        "found": program is not None,
        "program": None if program is None else [_gate_text(g) for g in program],
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    })
    return 0 if program is not None else 1


def _cmd_eavesdrop(args) -> int:
    if args.trials < 1:
        return _error("--trials must be >= 1")
    if args.strategy == "uniform":
        strategy = EveStrategy.uniform_guess(args.strategy_seed)
    elif args.strategy == "absent":
        strategy = None
    elif args.strategy == "fixed":
        if args.fixed_channel is None or args.fixed_value is None:
            return _error("fixed strategy needs --fixed-channel and --fixed-value")
        try:
            value = AuxValue.parse(args.fixed_value)
        except IntraportError as exc:
            return _error(str(exc))
        strategy = EveStrategy.fixed_guess(args.fixed_channel, value, args.strategy_seed)
    else:
        return _error(f"unknown strategy '{args.strategy}'")
    mode = DetectionMode(args.mode)
    try:
        stats = run_experiment(args.channels, args.trials, strategy, args.seed, mode)
    except IntraportError as exc:
        return _error(str(exc))
    _emit({
        "channel_count": stats.channel_count,
        "trials": stats.trials,
        "mode": stats.mode,
        "strategy": stats.strategy,
        "eve_success_rate": stats.eve_success_rate,
        "detection_rate": stats.detection_rate,
        "analytic_success_rate": stats.analytic_success_rate,
        "ci95_halfwidth": stats.ci95_halfwidth,
        "base_seed": stats.base_seed,
    })
    within = abs(stats.eve_success_rate - stats.analytic_success_rate) <= stats.ci95_halfwidth
    return 0 if within else 1


def _cmd_bell(args) -> int:
    if args.seed is not None:
        rng = np.random.default_rng(args.seed)
        m1, m3 = random_qubit(rng), random_qubit(rng)
        a, b = m1.coeff1, m1.coeff0
        e, f = m3.coeff1, m3.coeff0
    else:
        if None in (args.a, args.b, args.e, args.f):
            return _error("provide --a --b --e --f or --seed")
        a, b, e, f = args.a, args.b, args.e, args.f
    try:
        SingleQubit(b, a), SingleQubit(f, e)
    except IntraportError as exc:
        return _error(str(exc))
    branches = []
    total = 0.0
    for outcome in (0, 1):
        try:
            prob, state = bell_byproduct(a, b, e, f, outcome)
            branches.append({"outcome": outcome, "probability": prob,
                             "state": _amplitudes_json(state)})
        except IntraportError:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intraport",
        description="Simulate and verify multi-state transmission over a "
                    "Hadamard/CNOT network split between sender and receiver.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_amp_flags(p):
        for name in "abcdef":
            p.add_argument(f"--{name}", type=_parse_complex, default=None,
                           help=f"amplitude {name} as 're' or 're,im'")

    p = sub.add_parser("run-figure", help="run one builtin figure scenario")
    p.add_argument("figure", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    add_amp_flags(p)
    p.set_defaults(func=_cmd_run_figure)

    p = sub.add_parser("fuzz", help="random-input conformance fuzzing of a figure")
    p.add_argument("--figure", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("table", help="print the three-channel protocol table")
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("exec", help="execute a .qc circuit file on an input state")
    p.add_argument("circuit")
    p.add_argument("--in", dest="input", required=True, help="JSON input state file")
    p.set_defaults(func=_cmd_exec)

    p = sub.add_parser("swap", help="demonstrate channel-content permutation via CN triples")
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--to", type=str, default=None,
                   help="comma list: content of channel i moves to the i-th entry")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_swap)

    p = sub.add_parser("solve-bob", help="search for a receiver decoding program")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--aux-channel", type=int, required=True)
    p.add_argument("--aux-value", type=str, required=True)
    p.add_argument("--max-gates", type=int, default=10)
    p.set_defaults(func=_cmd_solve_bob)

    p = sub.add_parser("eavesdrop", help="run the interception Monte-Carlo experiment")
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[m.value for m in DetectionMode],
                   default="omniscient")
    p.add_argument("--strategy", choices=["uniform", "fixed", "absent"],
                   default="uniform")
    p.add_argument("--strategy-seed", type=int, default=0)
    p.add_argument("--fixed-channel", type=int, default=None)
    p.add_argument("--fixed-value", type=str, default=None)
    p.set_defaults(func=_cmd_eavesdrop)

    p = sub.add_parser("bell", help="entangled byproduct of measuring channel 3 early")
    p.add_argument("--seed", type=int, default=None)
    add_amp_flags(p)
    p.set_defaults(func=_cmd_bell)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except IntraportError as exc:
        return _error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
