"""CLI behaviour: exit codes, JSON schemas frozen by golden files."""

import copy
import io
import json
import contextlib
from pathlib import Path

import pytest

from intraport import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
FIG1_PATH = str(
    Path(__file__).parent.parent / "src" / "intraport" / "figures" / "fig1.qc"
)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = buf.getvalue()
    return code, json.loads(out) if out.strip() else None


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


def test_run_figure_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("INTRAPORT_TOL", "0.5")
    code, doc = run_cli(["run-figure", "2", "--seed", "3"])
    assert code == 0
    assert doc["tolerance"] == 0.5


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


def test_eavesdrop_fixed_needs_flags():
    code, doc = run_cli(["eavesdrop", "--strategy", "fixed", "--trials", "10"])
    assert code == 2


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


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_subcommand_exits_2():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["frobnicate"])
    assert code == 2
