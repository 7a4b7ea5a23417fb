"""The benchmark's three workloads and the checks on their outputs.

Each workload makes its inputs from the workload seed alone and hands the
program only those inputs.  A workload is a list of operations repeated in
passes; every pass has the same composition (same keys, same counts), so
per-key medians and percentiles over whole passes do not depend on how
many passes fit in a run.  Calls go through module attributes
(`eavesdrop.run_experiment`, `search.solve_bob_program`, `cli.main`) so
that the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

import numpy as np
from intraport import AuxValue, DetectionMode, EveStrategy
from intraport import cli, eavesdrop, search

import oracle

SIZES = (3, 4, 5, 6)
VALUES = ("plus", "zero", "one")
# Auxiliary channel of the case run_experiment runs against, per size.
CANONICAL_AUX = {3: 2, 4: 4, 5: 5, 6: 6}

# Minimal decoder-extension lengths returned by solve_bob_program(max_gates=10),
# keyed (channels, aux channel, aux value).
PINNED_LENGTH = {
    (3, 1, "plus"): 3, (3, 1, "zero"): 2, (3, 1, "one"): 3,
    (3, 2, "plus"): 2, (3, 2, "zero"): 1, (3, 2, "one"): 2,
    (3, 3, "plus"): 3, (3, 3, "zero"): 2, (3, 3, "one"): 3,
    (4, 1, "plus"): 5, (4, 1, "zero"): 5, (4, 1, "one"): 6,
    (4, 2, "plus"): 3, (4, 2, "zero"): 5, (4, 2, "one"): 5,
    (4, 3, "plus"): 5, (4, 3, "zero"): 4, (4, 3, "one"): 5,
    (4, 4, "plus"): 5, (4, 4, "zero"): 5, (4, 4, "one"): 6,
}
# Nothing within the search horizon: the exhaustive n=6 miss.
MISS_CASE = (6, 1, "plus")
# Past the horizon on the canonical channel: the registered decoder (9 gates).
FALLBACK_CASE, FALLBACK_LENGTH = (6, 6, "plus"), 9
MAX_GATES = 10


@dataclass(frozen=True)
class Failure:
    detail: str


@dataclass(frozen=True)
class Op:
    key: str
    n: int
    work: int  # trials, cases or fuzz checks the call performs (0: none)
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[Failure]]
    digest: Callable[[object], object]


# ---------------------------------------------------------------------------
# eve-mc: run_experiment over sizes and strategies

EVE_TRIALS = 200


def _eve_check(name: str, n: int, trials: int):
    lo, hi = oracle.binomial_accept(trials, 1, n)

    def check(stats) -> Optional[Failure]:
        if stats.trials != trials or stats.channel_count != n:
            return Failure(f"{name}: wrong size {stats.channel_count}/{stats.trials}")
        wins = round(stats.eve_success_rate * trials)
        det = stats.detection_rate
        if name == "absent" and (wins or det):
            return Failure(f"absent: success {wins}, detection {det}")
        if name == "fixed-correct" and (wins != trials or det):
            return Failure(f"fixed-correct: success {wins}/{trials}, detection {det}")
        if name == "fixed-wrong" and wins:
            return Failure(f"fixed-wrong: success {wins}")
        if name.startswith("uniform") and not lo <= wins <= hi:
            return Failure(f"{name} n={n}: {wins} successes outside [{lo}, {hi}]")
        return None
    return check


def _eve_op(name, n, trials, strategy, mode, base_seed) -> Op:
    return Op(
        key=f"n{n}/{name}", n=n, work=trials, kind="experiment",
        call=lambda: eavesdrop.run_experiment(n, trials, strategy, base_seed, mode),
        check=_eve_check(name, n, trials),
        digest=dataclasses.asdict,
    )


class EveMC:
    name = "eve-mc"

    def __init__(self, trials: int = EVE_TRIALS):
        self.trials = trials

    def _ops(self, rng: random.Random, trials: int) -> list[Op]:
        ops = []
        for n in SIZES:
            strat_seed = rng.getrandbits(32)
            value = AuxValue(rng.choice(VALUES))
            wrong = rng.choice([c for c in range(1, n + 1) if c != CANONICAL_AUX[n]])
            om, sa = DetectionMode.OMNISCIENT, DetectionMode.SAMPLED
            plan = (
                ("uniform-omniscient", EveStrategy.uniform_guess(strat_seed), om),
                ("uniform-sampled", EveStrategy.uniform_guess(strat_seed), sa),
                ("fixed-wrong", EveStrategy.fixed_guess(wrong, value, strat_seed), om),
                ("fixed-correct", EveStrategy.fixed_guess(CANONICAL_AUX[n], value, strat_seed), om),
                ("absent", None, om),
            )
            for name, strategy, mode in plan:
                ops.append(_eve_op(name, n, trials, strategy, mode, rng.getrandbits(63)))
        return ops

    def setup(self, seed: int, out_dir: str):
        # Every case Eve can guess, then every strategy once.
        for n in SIZES:
            for ch in range(1, n + 1):
                for v in VALUES:
                    eavesdrop.run_experiment(n, 1, EveStrategy.fixed_guess(ch, AuxValue(v)), 0)
        for op in self._ops(random.Random(seed), 2):
            op.call()
        return seed

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        return self._ops(random.Random(f"{self.name}/{seed}/{index}"), self.trials)


# ---------------------------------------------------------------------------
# decoder-search: solve_bob_program over a fixed case list

N3_REPEATS = 4


def _program_tuples(program) -> Optional[list[tuple]]:
    return None if program is None else [oracle.gate_tuple(g) for g in program]


def _solve_check(case):
    """Check on a returned extension given as oracle gate tuples (or None)."""
    n, aux, value = case

    def check(program) -> Optional[Failure]:
        if case == MISS_CASE:
            return None if program is None else Failure(f"{case}: expected a miss")
        if program is None:
            return Failure(f"{case}: no program found")
        if case == FALLBACK_CASE:
            if len(program) > FALLBACK_LENGTH:
                return Failure(f"{case}: length {len(program)} > {FALLBACK_LENGTH}")
        elif len(program) != PINNED_LENGTH[case]:
            return Failure(f"{case}: length {len(program)}, pinned {PINNED_LENGTH[case]}")
        if oracle.decoder_layout(n, aux, value, oracle.prefix(n) + program) is None:
            return Failure(f"{case}: program is not a decoder")
        return None
    return check


def _solve_op(case) -> Op:
    n, aux, value = case
    check = _solve_check(case)
    return Op(
        key=f"n{n}/aux{aux}/{value}", n=n, work=1, kind="solve",
        call=lambda: search.solve_bob_program(n, aux, AuxValue(value), MAX_GATES),
        check=lambda p: check(_program_tuples(p)),
        digest=_program_tuples,
    )


class DecoderSearch:
    name = "decoder-search"

    def __init__(self, cases=None, n3_repeats: int = N3_REPEATS):
        self.cases = list(cases if cases is not None else
                          list(PINNED_LENGTH) + [MISS_CASE, FALLBACK_CASE])
        self.n3_repeats = n3_repeats

    def setup(self, seed: int, out_dir: str):
        search.solve_bob_program(3, 2, AuxValue.PLUS, MAX_GATES)
        return seed

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        cases = [c for c in self.cases for _ in range(self.n3_repeats if c[0] == 3 else 1)]
        random.Random(f"{self.name}/{seed}/{index}").shuffle(cases)
        return [_solve_op(c) for c in cases]


# ---------------------------------------------------------------------------
# cli-conformance: in-process cli.main calls, stdout captured and parsed

FIGURES = (1, 2, 3, 4, 6, 7, 8, 9)
FUZZ_TRIALS = 40
CLI_EVE_TRIALS = 64


def _cli_call(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_digest(out):
    code, text = out
    doc = json.loads(text)
    doc.pop("elapsed_ms", None)
    return [code, doc]


def _near(x, y) -> bool:
    return abs(complex(*x) - complex(y)) <= oracle.TOL


def _cli_check(argv, verify):
    def check(out) -> Optional[Failure]:
        code, text = out
        try:
            doc = json.loads(text)
        except ValueError:
            return Failure(f"{argv}: stdout is not JSON")
        try:
            return verify(code, doc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return Failure(f"{argv}: malformed output ({exc!r})")
    return check


def _ok(cond: bool, what: str) -> Optional[Failure]:
    return None if cond else Failure(what)


def _verify_fuzz(trials):
    def verify(code, doc):
        return _ok(code == 0 and doc["failures"] == 0 and doc["trials"] == trials,
                   f"fuzz figure {doc['figure']}: exit {code}, failures {doc['failures']}")
    return verify


def _verify_run_figure(code, doc):
    fids = [c["fidelity"] for c in doc["channels"]]
    return _ok(code == 0 and doc["passed"] is True and min(fids) >= 1 - oracle.TOL,
               f"run-figure {doc['figure']}: exit {code}, passed {doc['passed']}")


def _layout_from_json(doc) -> dict:
    return {int(ch): ("m", e["index"]) if e["kind"] == "message"
            else ("r", np.array([complex(*z) for z in e["state"]]))
            for ch, e in doc.items()}


def _verify_table(reduced):
    def verify(code, doc):
        if code != 0 or doc["case_count"] != (3 if reduced else 9):
            return Failure(f"table: exit {code}, {doc['case_count']} cases")
        for row in doc["cases"]:
            decoder = [oracle.parse_gate_text(g) for g in row["bob_program"]]
            layout = _layout_from_json(row["expected_layout"])
            if oracle.decoder_layout(3, row["aux_channel"], row["aux_value"], decoder,
                                     layout) is None:
                return Failure(f"table: case {row['case_id']} fails the oracle")
        return None
    return verify


def _verify_swap(n, moves):
    def verify(code, doc):
        gates = [oracle.parse_gate_text(g) for g in doc["gates"]]
        return _ok(code == 0 and doc["passed"] is True and doc["content_moves_to"] == moves
                   and oracle.permutation_ok(n, gates, moves),
                   f"swap --channels {n}: exit {code}, passed {doc['passed']}")
    return verify


def _verify_exec(n, gates, bits):
    def verify(code, doc):
        basis = np.zeros(1 << n, dtype=complex)
        basis[int(bits, 2)] = 1.0
        want = oracle.unitary(n, gates) @ basis
        got = doc["amplitudes"]
        return _ok(code == 0 and len(got) == len(want) and doc["gate_count"] == len(gates)
                   and all(_near(g, w) for g, w in zip(got, want)),
                   f"exec {doc.get('circuit')}: amplitudes disagree with the oracle")
    return verify


def _verify_bell(code, doc):
    a, b, e, f = (complex(*doc["inputs"][k]) for k in "abef")
    for want, got in zip(oracle.bell_branches(a, b, e, f), doc["branches"]):
        prob, state = want
        if abs(prob - got["probability"]) > oracle.TOL:
            return Failure(f"bell: branch {got['outcome']} probability")
        if state is not None and not all(_near(g, w) for g, w in zip(got["state"], state)):
            return Failure(f"bell: branch {got['outcome']} state")
    return _ok(code == 0 and abs(doc["probability_sum"] - 1) <= oracle.TOL, "bell: exit code")


def _verify_solve(case):
    check = _solve_check(case)

    def verify(code, doc):
        if code != 0 or not doc["found"]:
            return Failure(f"solve-bob {case}: exit {code}")
        return check([oracle.parse_gate_text(g) for g in doc["program"]])
    return verify


def _verify_eavesdrop(name):
    # Strategies with exact outcomes, so the exit code is a sharp check; the
    # uniform strategy is checked against a binomial bound in eve-mc.
    def verify(code, doc):
        wins = round(doc["eve_success_rate"] * doc["trials"])
        want = doc["trials"] if name == "fixed-correct" else 0
        detected = name != "fixed-wrong" and doc["detection_rate"] > 0
        return _ok(code == 0 and doc["trials"] == CLI_EVE_TRIALS and wins == want
                   and not detected,
                   f"eavesdrop {name} seed {doc['base_seed']}: exit {code}, "
                   f"{wins}/{doc['trials']} successes, detection {doc['detection_rate']}")
    return verify


def _cli_op(key, argv, n, verify, work=0) -> Op:
    return Op(key=key, n=n, work=work, kind="cli", call=lambda: _cli_call(argv),
              check=_cli_check(argv, verify), digest=_cli_digest)


class CliConformance:
    name = "cli-conformance"

    def __init__(self, fuzz_trials: int = FUZZ_TRIALS):
        self.fuzz_trials = fuzz_trials

    def setup(self, seed: int, out_dir: str):
        """Write one basis input per bundled circuit, then call every subcommand."""
        rng = random.Random(f"{self.name}/{seed}/inputs")
        inputs_dir = os.path.join(out_dir, "inputs")
        os.makedirs(inputs_dir, exist_ok=True)
        figures = resources.files("intraport").joinpath("figures")
        execs = []
        for entry in sorted(figures.iterdir(), key=lambda p: p.name):
            if not entry.name.endswith(".qc"):
                continue
            n, gates = oracle.parse_qc(entry.read_text(encoding="utf-8"))
            bits = "".join(rng.choice("01") for _ in range(n))
            path = os.path.join(inputs_dir, f"{entry.name[:-3]}-{bits}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"basis": bits}, fh)
            execs.append((os.path.relpath(str(entry)), os.path.relpath(path), n, gates, bits))
        ctx = (seed, execs)
        for op in self._ops(ctx, random.Random(seed), 1, 2):
            op.call()
        return ctx

    def _ops(self, ctx, rng: random.Random, fuzz_trials: int, eve_trials: int) -> list[Op]:
        _, execs = ctx

        def seed() -> str:
            return str(rng.getrandbits(32))

        ops = []
        for fig in FIGURES:
            n = 4 if fig >= 7 else 3
            ops.append(_cli_op(f"fuzz/{fig}", ["fuzz", "--figure", str(fig), "--trials",
                                               str(fuzz_trials), "--seed", seed()],
                               n, _verify_fuzz(fuzz_trials), work=fuzz_trials))
            ops.append(_cli_op(f"run-figure/{fig}", ["run-figure", str(fig), "--seed", seed()],
                               n, _verify_run_figure))
        ops.append(_cli_op("table", ["table"], 3, _verify_table(False)))
        ops.append(_cli_op("table-reduced", ["table", "--reduced"], 3, _verify_table(True)))
        for n in SIZES:
            moves = list(range(1, n + 1))
            rng.shuffle(moves)
            ops.append(_cli_op(f"swap/{n}", ["swap", "--channels", str(n), "--to",
                                             ",".join(map(str, moves)), "--seed", seed()],
                               n, _verify_swap(n, moves)))
        for qc, inp, n, gates, bits in execs:
            ops.append(_cli_op(f"exec/{os.path.basename(qc)}", ["exec", qc, "--in", inp],
                               n, _verify_exec(n, gates, bits)))
        ops.append(_cli_op("bell", ["bell", "--seed", seed()], 3, _verify_bell))
        case = rng.choice([c for c in PINNED_LENGTH if c[0] == 3])
        ops.append(_cli_op("solve-bob", ["solve-bob", "--channels", "3", "--aux-channel",
                                         str(case[1]), "--aux-value", case[2]],
                           3, _verify_solve(case)))
        value = rng.choice(VALUES)
        wrong = rng.choice([c for c in range(1, 4) if c != CANONICAL_AUX[3]])
        for name, flags in (("absent", ["--strategy", "absent"]),
                            ("fixed-correct", ["--strategy", "fixed", "--fixed-channel",
                                               str(CANONICAL_AUX[3]), "--fixed-value", value]),
                            ("fixed-wrong", ["--strategy", "fixed", "--fixed-channel",
                                             str(wrong), "--fixed-value", value])):
            ops.append(_cli_op(f"eavesdrop/{name}",
                               ["eavesdrop", "--channels", "3", "--trials", str(eve_trials),
                                "--seed", seed(), "--strategy-seed", seed(), *flags],
                               3, _verify_eavesdrop(name)))
        return ops

    def pass_ops(self, ctx, index: int) -> list[Op]:
        seed, _ = ctx
        return self._ops(ctx, random.Random(f"{self.name}/{seed}/{index}"),
                         self.fuzz_trials, CLI_EVE_TRIALS)


WORKLOADS = {w.name: w for w in (EveMC, DecoderSearch, CliConformance)}

WHY = {
    "eve-mc": "run_experiment at n=3..6 under five Eve strategies: per-trial glue and "
              "per-gate kernel calls dominate; search is never called",
    "decoder-search": "solve_bob_program over all n=3 and n=4 cases plus an n=6 "
                      "exhaustive miss and fallback: DFS, screening and verify dominate",
    "cli-conformance": "many short in-process cli.main calls with JSON checked: parsing, "
                       "factorisation, fidelity and JSON output dominate, not long gate lists",
}
