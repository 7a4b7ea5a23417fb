"""Print one JSON object of sha256 digests of the package's outputs, one per
section, to show that a change keeps the outputs of its parent commit.

    python tools/same_outputs.py [section ...]      (default: every section)

Run it on two trees and compare the objects; a section whose digest differs
holds some output that changed.  It imports only public names, so it runs
against any tree of the package:

    PYTHONPATH=<tree>/src python tools/same_outputs.py

Sections:
    cli              the JSON document and exit code of every subcommand on
                     fixed seeds and inputs, elapsed_ms dropped
    cli-errors       the error documents of bad CLI arguments
    exec             exec of every bundled .qc on every basis input
    exec-bad-states  exec of fig1.qc on malformed input state files
    solve            every n <= 4 solve_bob_program case at max_gates 0..14,
                     the n=6 miss (6, 1, plus) and fallback (6, 6, plus)
    experiment       run_experiment at n=3..6, 64 trials, for each strategy
                     in both detection modes
    parse-errors     parse_circuit of a fixed set of bad texts
    parse-tokens     parse_circuit of texts whose integers are not ASCII
                     decimal
    numpy-integers   search and experiment calls given numpy integers

An exception a call raises is recorded as its type name and message.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from importlib import resources

import numpy as np

from intraport import (
    AuxValue,
    CircuitParseError,
    DetectionMode,
    EveStrategy,
    parse_circuit,
    run_experiment,
    solve_bob_program,
)
from intraport.cli import main as cli_main
from intraport.circuit import gate_text

_FIGURES = (1, 2, 3, 4, 6, 7, 8, 9)
_VALUES = ("plus", "zero", "one")
_CANONICAL_AUX = {3: 2, 4: 4, 5: 5, 6: 6}


def _cli(argv: list[str]) -> list:
    """[argv, exit code, document without elapsed_ms], or [argv, None,
    [type name, message]] of what the CLI raised."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
    except Exception as exc:  # a tree whose CLI raises prints a traceback
        return [argv, None, [type(exc).__name__, str(exc)]]
    doc = json.loads(buf.getvalue())
    doc.pop("elapsed_ms", None)
    return [argv, code, doc]


def _raised(call) -> object:
    """call()'s result, or [type name, message] of what it raised."""
    try:
        return call()
    except Exception as exc:  # every outcome is an output to compare
        return [type(exc).__name__, str(exc)]


def _bundled(name: str) -> str:
    return str(resources.files("intraport") / "figures" / name)


def cli_documents() -> list:
    calls = [["run-figure", str(f), "--seed", "7"] for f in _FIGURES]
    calls += [["run-figure", "3", "--a", "1", "--b", "0", "--e", "0", "--f", "1"]]
    calls += [["fuzz", "--figure", str(f), "--trials", "5", "--seed", "1"] for f in _FIGURES]
    calls += [["table"], ["table", "--reduced"]]
    calls += [["swap", "--channels", str(n), "--seed", "4"] for n in range(2, 7)]
    calls += [["swap", "--channels", "5", "--to", "3,1,5,2,4"]]
    calls += [["solve-bob", "--channels", str(n), "--aux-channel", str(aux), "--aux-value", v]
              for n in (3, 4) for aux in range(1, n + 1) for v in _VALUES]
    calls += [["bell", "--seed", "3"], ["bell", "--a", "1", "--b", "0", "--e", "1", "--f", "0"]]
    for n in (3, 4, 5, 6):
        for strategy in (["--strategy", "uniform"], ["--strategy", "absent"],
                         ["--strategy", "fixed", "--fixed-channel", str(_CANONICAL_AUX[n]),
                          "--fixed-value", "one"]):
            calls.append(["eavesdrop", "--channels", str(n), "--trials", "64", "--seed", "9",
                          *strategy])
    return [_cli(argv) for argv in calls]


def cli_errors() -> list:
    amps = ["--a", "1", "--b", "0", "--e", "1", "--f", "0"]
    calls = [
        ["run-figure", "5"], ["run-figure", "10"], ["run-figure", "1"],
        ["run-figure", "1", "--a", "1", "--b", "1", "--e", "1", "--f", "0"],
        ["run-figure", "6", "--a", "1", "--b", "0"],
        ["fuzz", "--figure", "5"], ["fuzz", "--figure", "0", "--trials", "0"],
        ["fuzz", "--figure", "1", "--trials", "0"],
        ["table", "--channels", "4"], ["swap", "--channels", "1"], ["swap", "--to", "1,1,2"],
        ["solve-bob", "--channels", "7", "--aux-channel", "1", "--aux-value", "plus"],
        ["solve-bob", "--channels", "3", "--aux-channel", "4", "--aux-value", "plus"],
        ["solve-bob", "--channels", "3", "--aux-channel", "1", "--aux-value", "minus"],
        ["eavesdrop", "--trials", "0"], ["eavesdrop", "--channels", "7"],
        ["eavesdrop", "--strategy", "fixed"], ["eavesdrop", "--fixed-channel", "2"],
        ["bell", "--a", "1", "--b", "1", "--e", "1", "--f", "0"],
        ["bell", "--seed", "2", *amps], ["frobnicate"],
        ["run-figure", "1", "--a", "1e200", "--b", "0", "--c", "1", "--d", "0"],
        ["run-figure", "1", "--a", "1e308", "--b", "1e308"],
        ["bell", "--a", "1e200", "--b", "0", "--e", "1", "--f", "0"],
    ]
    return [_cli(argv) for argv in calls]


def exec_documents() -> list:
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(p.name for p in (resources.files("intraport") / "figures").iterdir()
                           if p.name.endswith(".qc")):
            with open(_bundled(name), encoding="utf-8") as fh:
                n = parse_circuit(fh.read()).channel_count
            for index in range(1 << n):
                bits = format(index, f"0{n}b")
                path = os.path.join(tmp, "in.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"basis": bits}, fh)
                argv, code, doc = _cli(["exec", _bundled(name), "--in", path])
                doc["circuit"] = name  # the path differs between trees
                records.append([name, bits, code, doc])
    return records


def exec_bad_states() -> list:
    zero = [[1, 0], [0, 0]]
    states = [
        {"basis": ["", "", ""]}, {"basis": ["01", "0", "1"]}, {"basis": "0 1"}, {"basis": "01"},
        {"qubits": [[["1+0j"], []], zero, zero]},
        {"qubits": [[[True, 0], [False, 0]], zero, zero]},
        {"qubits": [zero, zero]},
        {"amplitudes": [[True, False]] + [[0, 0]] * 7},
        {"amplitudes": [[1, 0]] + [[0, 0]] * 7}, {"amplitudes": [[1, 0]]}, {"nothing": 1},
        {"qubits": [[[1e200, 0], [0, 0]], zero, zero]},
        "[" * 100_000 + "]" * 100_000,  # text: json.dump would recurse too deep
    ]
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        for state in states:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(state if isinstance(state, str) else json.dumps(state))
            argv, code, doc = _cli(["exec", _bundled("fig1.qc"), "--in", path])
            if isinstance(doc, dict):
                doc.pop("circuit", None)
            records.append([state, code, doc])
    return records


def _word(program) -> object:
    return None if program is None else [gate_text(g) for g in program]


def solve_results() -> list:
    cases = [(n, aux, v, depth) for n in (3, 4) for aux in range(1, n + 1)
             for v in _VALUES for depth in range(15)]
    cases += [(6, 1, "plus", 10), (6, 6, "plus", 10)]
    return [[list(case), _word(solve_bob_program(*case[:2], AuxValue(case[2]), case[3]))]
            for case in cases]


def _stats(*args) -> dict:
    return dataclasses.asdict(run_experiment(*args))


def experiment_results() -> list:
    records = []
    for n in (3, 4, 5, 6):
        strategies = [None, EveStrategy.uniform_guess(5),
                      EveStrategy.fixed_guess(_CANONICAL_AUX[n], AuxValue.ZERO),
                      EveStrategy.fixed_guess(1, AuxValue.ONE, 3)]
        for strategy in strategies:
            for mode in DetectionMode:
                records.append(_stats(n, 64, strategy, 11, mode))
    return records


def _parsed(text: str) -> object:
    try:
        c = parse_circuit(text)
    except CircuitParseError as exc:
        return [exc.line_number, exc.kind.value, exc.message]
    return [c.channel_count, [gate_text(g) for g in c.gates], c.border_index,
            [list(m) for m in c.measurements]]


_BAD_TEXTS = [
    "", "# only a comment\n", "h 1\nchannels 2\n", "channels\n", "channels two\n",
    "channels 0\n", "channels 17\n", "channels 64\nh 1\n", "channels 2\nchannels 3\n",
    "channels 2\nfoo 1\n", "channels 2\nh\n", "channels 2\nh 1 2\n", "channels 3\nh 5\n",
    "channels 2\nh -1\n", "channels 2\nh +2\nh 02\n", "channels 2\ncn 1\n", "channels 2\ncn 1 x\n",
    "channels 3\ncn 0 2\n", "channels 2\ncn 2 2\n", "channels 3\ncn +1 -2\n",
    "channels 2\nborder now\n", "channels 2\nborder\nborder\n", "channels 2\nmeasure 1\n",
    "channels 2\nmeasure 9 out\n", "channels 2\nmeasure 1 a b\n",
    "channels 2\nmeasure 1 a\nmeasure 2 a\n", "channels 2 # c\n\n  h 1 # x\nborder\n",
]

_NON_ASCII_TEXTS = [
    "channels 1_0\n", "channels ３\n", "channels 2\nh ２\n", "channels 3\ncn 1 2_0\n",
    "channels 3\nmeasure ٢ out\n",
]


def parse_errors() -> list:
    return [[text, _parsed(text)] for text in _BAD_TEXTS]


def parse_tokens() -> list:
    return [[text, _parsed(text)] for text in _NON_ASCII_TEXTS]


def numpy_integers() -> list:
    wide = np.int64
    calls = [
        lambda: _word(solve_bob_program(wide(3), 2, AuxValue.ZERO)),
        lambda: _word(solve_bob_program(4, wide(3), AuxValue.ONE, wide(6))),
        lambda: _word(solve_bob_program(wide(5), 5, AuxValue.ZERO, 3)),
        lambda: _stats(3, 10, EveStrategy.uniform_guess(wide(7)), 1),
        lambda: _stats(wide(3), wide(10), None, wide(1)),
    ]
    return [_raised(call) for call in calls]


SECTIONS = {
    "cli": cli_documents,
    "cli-errors": cli_errors,
    "exec": exec_documents,
    "exec-bad-states": exec_bad_states,
    "solve": solve_results,
    "experiment": experiment_results,
    "parse-errors": parse_errors,
    "parse-tokens": parse_tokens,
    "numpy-integers": numpy_integers,
}


def digest(records) -> str:
    """The sha256 of the records' JSON text, keys sorted; a value JSON
    cannot hold (a numpy integer, say) is written as its repr."""
    text = json.dumps(records, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    names = argv or list(SECTIONS)
    unknown = [name for name in names if name not in SECTIONS]
    if unknown:
        print(f"unknown sections {unknown}; known: {list(SECTIONS)}", file=sys.stderr)
        return 2
    print(json.dumps({name: digest(SECTIONS[name]()) for name in names}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
