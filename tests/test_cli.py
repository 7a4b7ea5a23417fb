"""CLI behaviour: exit codes, JSON schemas frozen by golden files."""

import copy
import io
import itertools
import json
import contextlib
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from intraport import cli, protocol, qsim
from intraport.circuit import Circuit, parse_circuit
from intraport.eavesdrop import ExperimentStats

from helpers import nearly_product_case

GOLDEN_DIR = Path(__file__).parent / "golden"
FIG1_PATH = str(
    Path(__file__).parent.parent / "src" / "intraport" / "figures" / "fig1.qc"
)


def assert_indented_json(out):
    """out is json.dumps(doc, indent=2) and one newline, byte for byte."""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = buf.getvalue()
    if not out.strip():
        return code, None
    assert_indented_json(out)
    return code, json.loads(out)


def normalize(doc):
    doc = copy.deepcopy(doc)
    if isinstance(doc, dict):
        if "elapsed_ms" in doc:
            doc["elapsed_ms"] = 0.0
        return {k: normalize(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [normalize(v) for v in doc]
    if isinstance(doc, float):
        return round(doc, 9)
    return doc


def golden(name):
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


def assert_matches_golden(doc, name):
    assert json.loads(json.dumps(normalize(doc), sort_keys=True)) == golden(name)


# ---------------------------------------------------------------------------
# run-figure


def test_run_figure_seeded_passes_and_matches_golden():
    code, doc = run_cli(["run-figure", "1", "--seed", "7"])
    assert code == 0
    assert doc["passed"] is True
    assert_matches_golden(doc, "run_figure_1_seed7.json")


def test_run_figure_3_quoted_residue():
    code, doc = run_cli(["run-figure", "3", "--a", "1", "--b", "0", "--e", "0", "--f", "1"])
    assert code == 0
    ch2 = doc["channels"][1]
    assert ch2["claimed"]["kind"] == "residue"
    assert ch2["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert_matches_golden(doc, "run_figure_3_basis.json")


def test_run_figure_5_is_rejected():
    code, doc = run_cli(["run-figure", "5"])
    assert code == 2
    assert "swap" in doc["error"]["message"]


def test_run_figure_rejects_malformed_amplitudes():
    code, doc = run_cli(["run-figure", "1", "--a", "2", "--b", "0", "--e", "1", "--f", "0"])
    assert code == 2
    code, doc = run_cli(["run-figure", "1", "--a", "1", "--b", "0"])
    assert code == 2
    code, doc = run_cli(["run-figure", "1"])
    assert code == 2


@pytest.mark.parametrize("figure, flags", [(4, "abcd"), (6, "cdef"), (7, "abcdef")])
def test_run_figure_takes_each_message_from_its_channel_flags(figure, flags):
    # --a/--b feed channel 1, --c/--d channel 2, --e/--f channel 3
    amps = {"a": "0.6", "b": "0.8", "c": "0,1", "d": "0", "e": "0.8", "f": "0,-0.6"}
    argv = ["run-figure", str(figure)]
    for name in flags:
        argv += [f"--{name}", amps[name]]
    code, doc = run_cli(argv)
    assert code == 0
    assert doc["passed"] is True

    def pair(text):
        return [float(x) for x in (text.split(",") + ["0"])[:2]]

    assert doc["inputs"]["messages"] == [
        {"coeff1": pair(amps[hi]), "coeff0": pair(amps[lo])}
        for hi, lo in zip(flags[::2], flags[1::2])
    ]


def test_run_figure_names_the_flags_it_needs():
    code, doc = run_cli(["run-figure", "6", "--a", "1", "--b", "0"])
    assert code == 2
    assert doc["error"]["message"] == (
        "figure 6 needs --c/--d (messages use flags ('cd', 'ef'))"
    )


def test_run_figure_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("INTRAPORT_TOL", "0.5")
    code, doc = run_cli(["run-figure", "2", "--seed", "3"])
    assert code == 0
    assert doc["tolerance"] == 0.5


def test_run_figure_tolerance_reaches_product_ok(monkeypatch):
    """--tol and INTRAPORT_TOL also set the purity test behind product_ok:
    figure 2, run with one extra CN, leaves a nearly product output."""
    case, msgs = nearly_product_case()
    monkeypatch.setattr(protocol, "builtin_scenario", lambda figure: case)
    m0, m1 = ([repr(float(c.real)) for c in (q.coeff1, q.coeff0)] for q in msgs)
    argv = ["run-figure", "2", "--a", m0[0], "--b", m0[1], "--e", m1[0], "--f", m1[1]]
    code, doc = run_cli(argv)
    assert (code, doc["product_ok"], doc["passed"]) == (1, False, False)
    code, doc = run_cli(argv + ["--tol", "1e-6"])
    assert (code, doc["product_ok"], doc["passed"]) == (0, True, True)
    monkeypatch.setenv("INTRAPORT_TOL", "1e-6")
    code, doc = run_cli(argv)
    assert (code, doc["product_ok"], doc["passed"]) == (0, True, True)


def test_run_figure_accepts_a_slightly_short_message():
    """|coeff1|^2 = 1 - 4e-10 is within the input tolerance of 1e-9; the
    message is rescaled where it enters, so figure 2 still passes at the
    default tolerance of 1e-10 (it printed product_ok false and exited 1)."""
    code, doc = run_cli(["run-figure", "2", "--a", "0.9999999998", "--b", "0",
                         "--e", "0.6", "--f", "0.8"])
    assert (code, doc["product_ok"], doc["passed"]) == (0, True, True)
    assert all(abs(ch["fidelity"] - 1) < 1e-12 for ch in doc["channels"])


@pytest.mark.parametrize("raw", ["x", "nan", "-1e-3", "2", "０.５", "1_0e-3"])
def test_run_figure_refuses_a_bad_tolerance_env(monkeypatch, raw):
    monkeypatch.setenv("INTRAPORT_TOL", raw)
    code, doc = run_cli(["run-figure", "2", "--seed", "3"])
    assert code == 2
    assert doc["error"]["message"].startswith("INTRAPORT_TOL: tolerance ")


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_figure_1():
    code, doc = run_cli(["fuzz", "--figure", "1", "--trials", "50", "--seed", "1"])
    assert code == 0
    assert doc["failures"] == 0
    assert doc["min_fidelity"] >= 1 - 1e-10


def test_fuzz_figure_6_tracks_block_fidelity():
    code, doc = run_cli(["fuzz", "--figure", "6", "--trials", "25", "--seed", "2"])
    assert code == 0
    assert doc["min_block_fidelity"] >= 1 - 1e-10


def test_fuzz_single_trial():
    code, doc = run_cli(["fuzz", "--figure", "2", "--trials", "1", "--seed", "9"])
    assert code == 0
    assert doc["trials"] == 1


# ---------------------------------------------------------------------------
# table


def test_table_default_has_nine_cases():
    code, doc = run_cli(["table"])
    assert code == 0
    assert doc["case_count"] == 9
    assert all(len(case["bob_program"]) > 0 for case in doc["cases"])


def test_table_reduced_matches_golden():
    code, doc = run_cli(["table", "--reduced"])
    assert code == 0
    assert doc["case_count"] == 3
    assert_matches_golden(doc, "table_reduced.json")


def test_table_rejects_other_sizes():
    code, doc = run_cli(["table", "--channels", "4"])
    assert code == 2


# ---------------------------------------------------------------------------
# exec


def test_exec_fig1_on_basis_input(tmp_path):
    infile = tmp_path / "basis.json"
    infile.write_text(json.dumps({"basis": "110"}), encoding="utf-8")
    code, doc = run_cli(["exec", FIG1_PATH, "--in", str(infile)])
    assert code == 0
    doc["circuit"] = "FIG1"
    assert_matches_golden(doc, "exec_fig1_basis110.json")


def test_exec_empty_circuit_echoes_input(tmp_path):
    qc = tmp_path / "empty.qc"
    qc.write_text("channels 2\n", encoding="utf-8")
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps({"qubits": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}),
                      encoding="utf-8")
    code, doc = run_cli(["exec", str(qc), "--in", str(infile)])
    assert code == 0
    assert doc["amplitudes"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_exec_reports_measurement_probabilities(tmp_path):
    qc = tmp_path / "m.qc"
    qc.write_text("channels 1\nh 1\nmeasure 1 out\n", encoding="utf-8")
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps({"basis": "0"}), encoding="utf-8")
    code, doc = run_cli(["exec", str(qc), "--in", str(infile)])
    assert code == 0
    assert doc["measurements"][0]["p0"] == pytest.approx(0.5, abs=1e-12)
    assert doc["measurements"][0]["p1"] == pytest.approx(0.5, abs=1e-12)


def test_exec_parse_error_reports_line(tmp_path):
    qc = tmp_path / "bad.qc"
    qc.write_text("channels 3\nh 9\n", encoding="utf-8")
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps({"basis": "000"}), encoding="utf-8")
    code, doc = run_cli(["exec", str(qc), "--in", str(infile)])
    assert code == 2
    assert doc["error"]["line"] == 2
    assert doc["error"]["kind"] == "ChannelOutOfRange"


def test_exec_reports_a_circuit_file_that_is_not_utf8(tmp_path):
    qc = tmp_path / "bad.qc"
    qc.write_bytes(b"channels 3\nh 1 \xff\n")
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps({"basis": "000"}), encoding="utf-8")
    code, doc = run_cli(["exec", str(qc), "--in", str(infile)])
    assert code == 2
    assert doc["error"]["message"].startswith("cannot read circuit file:")


_ZERO_QUBIT = [[1, 0], [0, 0]]


@pytest.mark.parametrize("state", [
    {"basis": ["", "", ""]},  # a list of strings, each "in" "01"
    {"basis": ["01", "0", "1"]},
    {"qubits": [[["1+0j"], []], _ZERO_QUBIT, _ZERO_QUBIT]},  # read as (1, 0)
    {"qubits": [[[True, 0], [False, 0]], _ZERO_QUBIT, _ZERO_QUBIT]},
    {"amplitudes": [[True, False]] + [[0, 0]] * 7},
    {"qubits": [[[1e200, 0], [0, 0]], _ZERO_QUBIT, _ZERO_QUBIT]},  # |1e200|^2 overflows
    # past json.load's recursion limit, so written as text, not by json.dumps
    pytest.param("[" * 100_000 + "]" * 100_000, id="arrays-nested-100000-deep"),
])
def test_exec_refuses_malformed_input_states(tmp_path, state):
    """A basis is a string of one 0 or 1 per channel, and each complex
    number a pair of JSON numbers; anything else is a bad input state."""
    infile = tmp_path / "in.json"
    infile.write_text(state if isinstance(state, str) else json.dumps(state), encoding="utf-8")
    code, doc = run_cli(["exec", FIG1_PATH, "--in", str(infile)])
    assert code == 2
    assert doc["error"]["message"].startswith("bad input state: ")


def test_exec_refuses_oversized_circuit(tmp_path):
    qc = tmp_path / "big.qc"
    qc.write_text("channels 64\nh 1\n", encoding="utf-8")
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps({"basis": "0" * 64}), encoding="utf-8")
    code, doc = run_cli(["exec", str(qc), "--in", str(infile)])
    assert code == 2
    assert doc["error"]["line"] == 1
    assert doc["error"]["kind"] == "ChannelOutOfRange"


# ---------------------------------------------------------------------------
# swap


def test_swap_default_cycle():
    code, doc = run_cli(["swap", "--seed", "4"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["content_moves_to"] == [2, 3, 1]
    assert len(doc["gates"]) == 6


def test_swap_rejects_bad_permutation():
    code, doc = run_cli(["swap", "--to", "1,1,2"])
    assert code == 2
    code, doc = run_cli(["swap", "--channels", "3", "--to", "1,x"])
    assert code == 2
    assert doc["error"]["message"] == "--to must be a permutation of 1..3"
    # an explicitly empty --to is not the default rotation
    code, doc = run_cli(["swap", "--channels", "3", "--to", ""])
    assert code == 2
    assert doc["error"]["message"] == "--to must be a permutation of 1..3"


def test_swap_plans_leave_no_matrix_behind():
    """Each --to makes a new word, which runs through the gate kernels and
    keeps no matrix: 300 distinct six-channel plans add less than 1 MiB of traced
    memory, where keeping their 64 KiB matrices would add about 19 MiB."""
    plans = itertools.islice(itertools.permutations(range(1, 7)), 301)
    argv = [["swap", "--channels", "6", "--to", ",".join(map(str, p))] for p in plans]
    assert run_cli(argv[0])[0] == 0  # parser, imports and caches made before tracing
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for args in argv[1:]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(args) == 0
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1 << 20


def test_one_off_words_build_no_matrix(monkeypatch, tmp_path):
    """A word applied once runs through the gate kernels: with word_matrix
    refusing every call, swap, exec of every bundled .qc, bell, run_circuit
    and apply_gate all still succeed."""
    def refuse(*args, **kwargs):
        raise AssertionError("a word applied once built its matrix")

    monkeypatch.setattr(qsim, "word_matrix", refuse)
    monkeypatch.setattr(protocol, "word_matrix", refuse)
    assert run_cli(["swap", "--channels", "6"])[0] == 0
    figures = resources.files("intraport") / "figures"
    infile = tmp_path / "in.json"
    names = sorted(p.name for p in figures.iterdir() if p.name.endswith(".qc"))
    assert names
    for name in names:
        n = parse_circuit((figures / name).read_text(encoding="utf-8")).channel_count
        infile.write_text(json.dumps({"basis": "0" * n}), encoding="utf-8")
        assert run_cli(["exec", str(figures / name), "--in", str(infile)])[0] == 0, name
    assert run_cli(["bell", "--seed", "3"])[0] == 0
    state = qsim.make_state([qsim.QUBIT_PLUS, qsim.QUBIT_ONE, qsim.QUBIT_ZERO])
    gates = (qsim.Hadamard(1), qsim.ControlledNot(1, 3), qsim.Hadamard(2))
    out = qsim.run_circuit(state, Circuit(3, gates))
    for gate in gates:
        state = qsim.apply_gate(state, gate)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


@pytest.mark.parametrize("channels", ["1", "17", "60"])
def test_swap_refuses_sizes_outside_the_channel_cap(channels):
    code, doc = run_cli(["swap", "--channels", channels])
    assert code == 2
    assert doc["error"]["message"] == "--channels must lie in 2..16"


# ---------------------------------------------------------------------------
# solve-bob


def test_solve_bob_found():
    code, doc = run_cli(["solve-bob", "--channels", "3", "--aux-channel", "2",
                         "--aux-value", "plus", "--max-gates", "6"])
    assert code == 0
    assert doc["found"] is True
    assert doc["program"] == ["cn 1 3", "cn 2 3"]


def test_solve_bob_not_found_within_bound():
    code, doc = run_cli(["solve-bob", "--channels", "3", "--aux-channel", "2",
                         "--aux-value", "plus", "--max-gates", "1"])
    assert code == 1
    assert doc["found"] is False


def test_solve_bob_rejects_bad_value():
    code, doc = run_cli(["solve-bob", "--channels", "3", "--aux-channel", "2",
                         "--aux-value", "minus"])
    assert code == 2


# ---------------------------------------------------------------------------
# eavesdrop


def test_eavesdrop_schema_and_exit():
    code, doc = run_cli(["eavesdrop", "--channels", "3", "--trials", "200",
                         "--seed", "42"])
    assert code == 0
    assert set(doc) == {
        "channel_count", "trials", "mode", "strategy", "eve_success_rate",
        "detection_rate", "analytic_success_rate", "ci95_halfwidth", "base_seed",
    }
    assert_matches_golden(doc, "eavesdrop_n3.json")


@pytest.mark.parametrize("seed", [6, 47, 48, 53, 71, 88, 91, 99])
def test_eavesdrop_uniform_exits_zero_where_a_95_percent_interval_misses(seed):
    # these seeds put the success rate outside its 95% interval
    code, doc = run_cli(["eavesdrop", "--channels", "3", "--trials", "200",
                         "--seed", str(seed), "--strategy-seed", "0"])
    assert code == 0
    assert abs(doc["eve_success_rate"] - doc["analytic_success_rate"]) > doc["ci95_halfwidth"]


def _stub_stats(n, trials, successes, analytic):
    return ExperimentStats(
        channel_count=n, trials=trials, mode="omniscient", strategy="stub",
        eve_success_rate=successes / trials, detection_rate=0.0,
        analytic_success_rate=analytic, ci95_halfwidth=0.0, base_seed=0,
    )


@pytest.mark.parametrize(
    "n,successes,analytic,code",
    [(3, 67, 1 / 3, 0), (3, 150, 1 / 3, 1), (3, 5, 1 / 3, 1),
     (3, 200, 1.0, 0), (3, 199, 1.0, 1), (3, 0, 0.0, 0), (3, 1, 0.0, 1)],
)
def test_eavesdrop_exit_code_follows_the_binomial_region(
    monkeypatch, n, successes, analytic, code
):
    stats = _stub_stats(n, 200, successes, analytic)
    monkeypatch.setattr(cli, "run_experiment", lambda *args: stats)
    got, doc = run_cli(["eavesdrop", "--channels", str(n), "--trials", "200"])
    assert got == code
    assert doc["eve_success_rate"] == stats.eve_success_rate


def _comb_region(trials, p, alpha=1e-9):
    pmf = [math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)]
    return {k for k in range(trials + 1)
            if sum(pmf[: k + 1]) > alpha and sum(pmf[k:]) > alpha}


@pytest.mark.parametrize("trials", [1, 10, 64, 200, 1000])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_binomial_region_matches_math_comb(trials, n):
    region = {k for k in range(trials + 1) if cli._binomial_consistent(k, trials, 1 / n)}
    assert region == _comb_region(trials, 1 / n)


def test_binomial_region_handles_many_trials():
    # math.comb(trials, k) times a float overflows here; log space does not
    assert cli._binomial_consistent(33_333, 100_000, 1 / 3)
    assert not cli._binomial_consistent(35_000, 100_000, 1 / 3)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_eavesdrop_runs_at_both_ends_of_the_seed_range(seed):
    code, doc = run_cli(["eavesdrop", "--trials", "16", "--seed", str(seed),
                         "--strategy-seed", str(seed)])
    assert code == 0
    assert doc["base_seed"] == seed


def test_eavesdrop_fixed_needs_flags():
    code, doc = run_cli(["eavesdrop", "--strategy", "fixed", "--trials", "10"])
    assert code == 2


@pytest.mark.parametrize("strategy", [[], ["--strategy", "uniform"], ["--strategy", "absent"]])
@pytest.mark.parametrize("fixed", [["--fixed-channel", "2"], ["--fixed-value", "plus"],
                                   ["--fixed-channel", "2", "--fixed-value", "plus"]])
def test_eavesdrop_fixed_flags_need_the_fixed_strategy(strategy, fixed):
    """A fixed guess given with another strategy is refused; it silently
    ran that strategy and exited 0."""
    code, doc = run_cli(["eavesdrop", "--trials", "10", *strategy, *fixed])
    assert code == 2
    assert doc == {"error": {"message": "--fixed-channel and --fixed-value need --strategy fixed"}}


def test_eavesdrop_absent_strategy():
    code, doc = run_cli(["eavesdrop", "--strategy", "absent", "--trials", "50",
                         "--seed", "3"])
    assert code == 0
    assert doc["detection_rate"] == 0.0


# ---------------------------------------------------------------------------
# bell


def test_bell_matches_golden():
    amp = "0.7071067811865476"
    code, doc = run_cli(["bell", "--a", amp, "--b", amp, "--e", amp, "--f", amp])
    assert code == 0
    assert doc["probability_sum"] == pytest.approx(1.0, abs=1e-12)
    assert_matches_golden(doc, "bell_uniform.json")


def test_bell_impossible_branch_reported_as_zero():
    code, doc = run_cli(["bell", "--a", "1", "--b", "0", "--e", "1", "--f", "0"])
    assert code == 0
    branches = {b["outcome"]: b for b in doc["branches"]}
    assert branches[1]["probability"] == 0.0
    assert branches[1]["state"] is None
    assert branches[0]["probability"] == pytest.approx(1.0, abs=1e-12)


def test_bell_requires_inputs_or_seed():
    code, doc = run_cli(["bell"])
    assert code == 2


_FIG1_AMPS = ["--a", "1", "--b", "0", "--e", "1", "--f", "0"]


@pytest.mark.parametrize("argv, message", [
    (["bell", *_FIG1_AMPS, "--c", "5", "--d", "7"], "unrecognized arguments: --c 5 --d 7"),
    (["bell", "--seed", "2", "--a", "1", "--b", "0"],
     "provide --a --b --e --f or --seed, not both"),
    (["run-figure", "1", *_FIG1_AMPS, "--seed", "3"],
     "provide message amplitudes or --seed, not both"),
    (["run-figure", "1", *_FIG1_AMPS, "--c", "1", "--d", "0"],
     "figure 1 does not use --c, --d (messages use flags ('ab', 'ef'))"),
    (["run-figure", "6", "--a", "1", "--c", "1", "--d", "0", "--e", "1", "--f", "0"],
     "figure 6 does not use --a (messages use flags ('cd', 'ef'))"),
])
def test_amplitude_flags_are_never_dropped(argv, message):
    """Amplitudes that a call would not read are refused: bell has no
    --c/--d, a seed and amplitudes exclude each other, and run-figure takes
    only its figure's message flags.  Each of these exited 0."""
    code, doc = run_cli(argv)
    assert code == 2
    assert doc["error"]["message"] == message


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_subcommand_exits_2():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["run-figure", "abc"], "argument figure: invalid int value: 'abc'"),
    (["fuzz", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
    (["frobnicate"], "argument subcommand: invalid choice: 'frobnicate'"),
    (["eavesdrop", "--mode", "bogus"], "argument --mode: invalid choice: 'bogus'"),
    ([], "the following arguments are required: subcommand"),
    (["bell", "--seed", "-1"], "argument --seed: seed must be >= 0, got -1"),
    (["swap", "--seed", "x"], "argument --seed: invalid seed: 'x'"),
    (["run-figure", "1", "--seed", "1", "--tol", "nan"],
     "argument --tol: tolerance must lie in [0, 1], got 'nan'"),
    (["swap", "--tol", "-1"], "argument --tol: tolerance must lie in [0, 1], got '-1'"),
    (["eavesdrop", "--seed", "-1"], "argument --seed: seed must be >= 0, got -1"),
    (["eavesdrop", "--seed", str(2**64)], f"argument --seed: seed must be < 2^64, got {2**64}"),
    (["eavesdrop", "--strategy-seed", "-1"],
     "argument --strategy-seed: seed must be >= 0, got -1"),
    (["eavesdrop", "--strategy-seed", str(2**64)],
     f"argument --strategy-seed: seed must be < 2^64, got {2**64}"),
    # integers follow the .qc rule: ASCII decimal digits, which int() alone is not
    (["run-figure", "３"], "argument figure: invalid int value: '３'"),
    (["run-figure", "1", "--seed", "３"], "argument --seed: invalid seed: '３'"),
    (["solve-bob", "--channels", "３", "--aux-channel", "1", "--aux-value", "zero"],
     "argument --channels: invalid int value: '３'"),
    (["eavesdrop", "--trials", "５"], "argument --trials: invalid int value: '５'"),
    (["fuzz", "--figure", "1", "--trials", "1_0"], "argument --trials: invalid int value: '1_0'"),
    # floats follow the same rule (circuit.decimal_float), which float() alone is not
    (["run-figure", "1", "--a", "０.６", "--b", "0.8", "--e", "1", "--f", "0"],
     "argument --a: an amplitude is 're' or 're,im' in decimal numbers, got '０.６'"),
    (["bell", "--a", "0.6,０", "--b", "0.8", "--e", "1", "--f", "0"],
     "argument --a: an amplitude is 're' or 're,im' in decimal numbers, got '0.6,０'"),
    (["bell", "--a", "1", "--b", "0", "--e", "1_0.5", "--f", "0"],
     "argument --e: an amplitude is 're' or 're,im' in decimal numbers, got '1_0.5'"),
    (["run-figure", "1", "--seed", "1", "--tol", "０.５"],
     "argument --tol: tolerance is not a number: '０.５'"),
    (["fuzz", "--figure", "1", "--tol", "1_0e-3"],
     "argument --tol: tolerance is not a number: '1_0e-3'"),
    # an amplitude is refused in its own words, not by the parsing function's name
    (["bell", "--a", "x", "--b", "0", "--e", "1", "--f", "0"],
     "argument --a: an amplitude is 're' or 're,im' in decimal numbers, got 'x'"),
    (["run-figure", "1", "--a", "1,2,3"],
     "argument --a: an amplitude is 're' or 're,im' in decimal numbers, got '1,2,3'"),
])
def test_usage_errors_are_json(argv, message):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 2
    assert err.getvalue() == ""
    doc = json.loads(buf.getvalue())
    assert doc["error"]["message"].startswith(message)
    assert doc["error"]["usage"].startswith("usage: intraport")


@pytest.mark.parametrize("argv, message", [
    (["solve-bob", "--channels", "3", "--aux-channel", "2", "--aux-value", "minus"],
     "unknown auxiliary value 'minus'"),
    (["solve-bob", "--channels", "7", "--aux-channel", "1", "--aux-value", "plus"],
     "search supports 3..6 channels, got 7"),
    (["eavesdrop", "--strategy", "fixed", "--fixed-channel", "1", "--fixed-value", "minus"],
     "unknown auxiliary value 'minus'"),
    (["eavesdrop", "--channels", "7"], "no canonical case registered for 7 channels"),
    (["bell", "--a", "1", "--b", "1", "--e", "1", "--f", "0"],
     "|coeff0|^2 + |coeff1|^2 = 2.0, expected 1"),
    (["run-figure", "1", "--a", "1", "--b", "1", "--e", "1", "--f", "0"],
     "|coeff0|^2 + |coeff1|^2 = 2.0, expected 1"),
    # builtin_scenario checks the figure, before anything else
    (["run-figure", "5"],
     "figure 5 is the swap demonstration, not a scenario (valid: 1, 2, 3, 4, 6, 7, 8, 9)"),
    (["run-figure", "10"], "no builtin scenario for figure 10 (valid: 1, 2, 3, 4, 6, 7, 8, 9)"),
    (["fuzz", "--figure", "0", "--trials", "0"],
     "no builtin scenario for figure 0 (valid: 1, 2, 3, 4, 6, 7, 8, 9)"),
    (["fuzz", "--figure", "1", "--trials", "0"], "--trials must be >= 1"),
    (["eavesdrop", "--trials", "0"], "trials must be >= 1"),
    # a square past the float range is an infinite norm, not an OverflowError
    (["run-figure", "1", "--a", "1e200", "--b", "0", "--c", "1", "--d", "0"],
     "|coeff0|^2 + |coeff1|^2 = inf, expected 1"),
    (["run-figure", "1", "--a", "1e308", "--b", "1e308"],
     "|coeff0|^2 + |coeff1|^2 = inf, expected 1"),
    (["bell", "--a", "1e200", "--b", "0", "--e", "1", "--f", "0"],
     "|coeff0|^2 + |coeff1|^2 = inf, expected 1"),
    (["swap", "--to", "２,3,1"], "--to must be a permutation of 1..3"),
])
def test_invalid_values_print_the_exact_error_document(argv, message):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 2
    assert buf.getvalue() == json.dumps({"error": {"message": message}}, indent=2) + "\n"


# Each subcommand's flags (--help left out), an amplitude pair as one unit,
# since a message needs both of its flags.  Drawn sizes stay small, so that
# no drawn call runs long or asks for a large register, while amplitudes and
# other integers reach the edges of the float and int ranges.
_CLI_FLAGS = {
    "run-figure": ["--seed", "--tol", ("--a", "--b"), ("--c", "--d"), ("--e", "--f")],
    "fuzz": ["--figure", "--trials", "--seed", "--tol"],
    "table": ["--channels", "--reduced"],
    "exec": ["--in"],
    "swap": ["--channels", "--to", "--seed", "--tol"],
    "solve-bob": ["--channels", "--aux-channel", "--aux-value", "--max-gates"],
    "eavesdrop": ["--channels", "--trials", "--seed", "--mode", "--strategy",
                  "--strategy-seed", "--fixed-channel", "--fixed-value"],
    "bell": ["--seed", ("--a", "--b"), ("--e", "--f")],
}
# Integers, and digits that int() takes but the CLI, like a .qc file, refuses
_CLI_INTS = st.one_of(st.integers(-1, 7).map(str), st.sampled_from(["３", "٣", "1_0", "-２"]))
# Huge integers go everywhere but --trials and --max-gates, whose valid
# values can run long.
_CLI_WIDE_INTS = st.one_of(_CLI_INTS, st.sampled_from([2**64, -(2**64), 10**30, 10**400]).map(str))
# Mostly a figure that runs, so that its amplitude flags are read
_CLI_FIGURES = st.one_of(st.sampled_from(["1", "2", "3", "4", "6", "7", "8", "9"]), _CLI_WIDE_INTS)
_CLI_PATHS = st.sampled_from([FIG1_PATH, "missing.qc", str(GOLDEN_DIR / "bell_uniform.json")])
# Amplitudes, past the float range too, and digits that float() takes but the CLI refuses
_CLI_AMPS = st.sampled_from(["0", "1", "0.6", "0.8", "0,1", "0.6,0.8", "2", "1e308", "-1e308",
                             "1e308,1e308", "5e-324", "1e200", "1e-200", "1e200,0",
                             "０.６", "0.6,０.８", "1_0.5", "٠.٨"])
_CLI_VALUES = {
    "--trials": _CLI_INTS,
    "--max-gates": _CLI_INTS,
    "--tol": st.sampled_from(["1e-3", "0.5", "-1", "nan", "０.５", "1_0e-3"]),
    "--to": st.sampled_from(["2,3,1", "1,2", "3,1,2,4", "1,1,2"]),
    "--in": _CLI_PATHS,
    "--aux-value": st.sampled_from(["plus", "zero", "one", "minus"]),
    "--fixed-value": st.sampled_from(["plus", "zero", "one", "minus"]),
    "--mode": st.sampled_from(["omniscient", "sampled"]),
    "--strategy": st.sampled_from(["uniform", "fixed", "absent"]),
    **{f"--{name}": _CLI_AMPS for name in "abcdef"},
}
_CLI_BAD = st.sampled_from(["x", "", "nan", "inf", "1,x", "bogus"])
# The flags a call needs before it reads its values: a figure and bell read
# no amplitude until every message has its pair.
_CLI_REQUIRED = {"fuzz": ["--figure"], "exec": ["--in"],
                 "solve-bob": ["--channels", "--aux-channel", "--aux-value"],
                 "run-figure": [("--a", "--b"), ("--c", "--d"), ("--e", "--f")],
                 "bell": [("--a", "--b"), ("--e", "--f")]}


@st.composite
def cli_argv(draw):
    """An argv of a subcommand (or none, or an unknown one), its positional
    argument and flags, mostly with values of the right kind: one unit in
    four, a flag or an amplitude pair, leads with a bad token."""
    def bad():
        return not draw(st.integers(0, 3))

    name = draw(st.sampled_from(sorted(_CLI_FLAGS) + ["frobnicate", None]))
    argv = [] if name is None else [name]
    if name in ("run-figure", "exec") and draw(st.integers(0, 3)):
        strategy = _CLI_FIGURES if name == "run-figure" else _CLI_PATHS
        argv.append(draw(_CLI_BAD if bad() else strategy))
    flags = _CLI_FLAGS.get(name, []) + ["--bogus"]
    required = _CLI_REQUIRED.get(name, []) if draw(st.integers(0, 3)) else []
    for unit in required + draw(st.lists(st.sampled_from(flags), max_size=4)):
        unit, spoilt = unit if isinstance(unit, tuple) else (unit,), bad()
        for i, flag in enumerate(unit):
            argv.append(flag)
            if flag != "--reduced" or draw(st.booleans()):
                strategy = _CLI_VALUES.get(flag, _CLI_WIDE_INTS)
                argv.append(draw(_CLI_BAD if spoilt and i == 0 else strategy))
    return argv


def _refuse_non_json(name):
    raise ValueError(f"{name} is not JSON")


@given(cli_argv())
@settings(max_examples=500)
def test_any_argv_prints_one_json_document(argv):
    """Every argv prints one indented JSON document and exits 0, 1 or 2, an
    error document exactly with 2.  It takes about 500 examples to reach
    run-figure and bell with every message's pair given and an amplitude
    past 1.3e154, whose square overflows a float."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    doc = json.loads(buf.getvalue(), parse_constant=_refuse_non_json)
    assert buf.getvalue() == json.dumps(doc, indent=2) + "\n"
    assert isinstance(doc, dict)
    assert code in (0, 1, 2)
    assert ("error" in doc) == (code == 2)


def test_python_dash_m_intraport_runs_the_cli():
    """python -m intraport runs cli.main, with its exit code."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "intraport", "table", "--reduced"],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert_indented_json(run.stdout)
    assert len(json.loads(run.stdout)["cases"]) == 3


# ---------------------------------------------------------------------------
# The JSON writer behind every document


_INF = float("inf")
_AWKWARD_STRINGS = ["", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", '"\\/', "\ud800"]
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, 2**64 + 1, -2**70, 10**30]),
    st.floats(),
    st.sampled_from([math.nan, _INF, -_INF, -0.0, 5e-324, 1e16, 1e-7]),
    st.text(),
    st.sampled_from(_AWKWARD_STRINGS),
)
_json_keys = st.one_of(st.text(), st.sampled_from(_AWKWARD_STRINGS), st.integers(),
                       st.floats(), st.booleans(), st.none())
json_trees = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_json_keys, inner, max_size=4)),
    max_leaves=20,
)


@given(json_trees)
@example([])
@example({})
@example(())
@example({"a": [], "b": {}, "c": [[{}]]})
@example([math.nan, _INF, -_INF, -0.0, 5e-324, 2**64 + 1])
@example({1: 0, 2.5: 1, True: 2, None: 3, math.nan: 4, -_INF: 5, 2**70: 6})
@example({"\u00e9\x00": ("\U0001f600", "\x1f")})
@settings(max_examples=300)
def test_json_text_writes_what_json_dumps_writes(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {1, 2},
    np.bool_(True),
    {(1, 2): 0},
    np.int64(3),
    b"bytes",
    {"a": [1, {"b": 2j}]},
    [frozenset()],
], ids=["set", "numpy-bool", "tuple-key", "numpy-int", "bytes", "nested-complex",
        "frozenset"])
def test_json_text_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as got:
        cli._json_text(doc)
    assert str(got.value) == str(expected.value)


def test_json_text_writes_subclasses_as_json_does():
    """A numpy float64 is a float, a namedtuple a tuple and an IntEnum
    member an int, as values and as keys: each is written by its base
    type's rule."""
    import collections
    import enum

    class Level(enum.IntEnum):
        LOW = 1

    Pair = collections.namedtuple("Pair", "re im")
    doc = {"x": np.float64(0.1), "p": Pair(1.5, -0.0), "level": Level.LOW,
           Level.LOW: np.float64("nan")}
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


def test_every_subcommand_avoids_the_pure_python_json_encoder(monkeypatch, tmp_path):
    """json.dumps(indent=...) builds its encoder with _make_iterencode, the
    slow pure-Python path.  Every document must be written without it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    infile = tmp_path / "basis.json"
    infile.write_text(json.dumps({"basis": "110"}), encoding="utf-8")
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps({"a": 1}, indent=2)  # the patch is in force
    calls = [
        (["run-figure", "1", "--seed", "7"], 0),
        (["fuzz", "--figure", "2", "--trials", "2"], 0),
        (["table", "--reduced"], 0),
        (["exec", FIG1_PATH, "--in", str(infile)], 0),
        (["swap", "--channels", "3"], 0),
        (["solve-bob", "--channels", "3", "--aux-channel", "2", "--aux-value", "plus"], 0),
        (["eavesdrop", "--channels", "3", "--trials", "20"], 0),
        (["bell", "--seed", "3"], 0),
        (["run-figure", "5"], 2),
        (["frobnicate"], 2),
    ]
    for argv, want in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        assert code == want, argv
        assert json.loads(buf.getvalue())
