"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

(The file name keeps it out of the repository's default test collection.)
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from intraport import (  # noqa: E402
    AuxValue, canonical_case, gate_alphabet, protocol_table, solve_bob_program)
from intraport.qsim import gates_commute  # noqa: E402

OUT = os.path.join(ROOT, run.OUT_DIR, "selftest")

SMALL = {
    "eve-mc": lambda: workloads.EveMC(trials=6),
    "decoder-search": lambda: workloads.DecoderSearch(
        cases=[c for c in workloads.PINNED_LENGTH if c[0] == 3] + [(4, 2, "plus")],
        n3_repeats=1),
    "cli-conformance": lambda: workloads.CliConformance(fuzz_trials=2),
}


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Workloads at their smallest size


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_runs_and_checks_pass(name):
    wl = SMALL[name]()
    ctx = wl.setup(7, OUT)
    records, digest, passes = run.measure(wl, ctx, 0, reference.Speedometer())
    assert passes == 1 and records
    bad = [fail for _, _, fail in records if fail is not None]
    assert not bad, [f.detail for f in bad]
    values = run.end_to_end(records, passes, [0.1, 0.2])
    assert set(values) == {m["name"] for m in _bench()["end_to_end"]}
    assert all(v > 0 for v in values.values())
    # same seed, same outputs
    assert run.measure(wl, ctx, 0, reference.Speedometer())[1] == digest


@pytest.mark.parametrize("name", sorted(SMALL))
def test_trace_run_reports_every_layer_and_restores(name):
    from intraport import eavesdrop, search

    originals = (eavesdrop.run_trial, eavesdrop._apply_gates, search._apply_gates,
                 search._Task.verify)
    wl = SMALL[name]()
    setup_tracer = tracer.Tracer()
    with setup_tracer.attached():
        ctx = wl.setup(3, OUT)
    values, failures, info, spans = run.trace_run(wl, ctx, setup_tracer, 0,
                                                  reference.Speedometer())
    assert set(values) == {m["name"] for m in _bench()["per_layer"]}
    assert info["counts_repeat"] and not info["absent"]
    assert spans
    assert (eavesdrop.run_trial, eavesdrop._apply_gates, search._apply_gates,
            search._Task.verify) == originals


# ---------------------------------------------------------------------------
# Oracle


def _ext(case):
    n, aux, value = case
    return oracle.prefix(n) + workloads._program_tuples(
        solve_bob_program(n, aux, AuxValue(value), 10))


def test_oracle_accepts_registered_and_searched_decoders():
    for value in ("plus", "zero", "one"):
        case = canonical_case(4, AuxValue(value))
        decoder = [oracle.gate_tuple(g) for g in case.bob_program]
        assert oracle.decoder_layout(4, 4, value, decoder) is not None
    assert oracle.decoder_layout(4, 1, "one", _ext((4, 1, "one"))) is not None


def test_oracle_rejects_decoder_with_last_gate_dropped():
    for case in [(3, 1, "plus"), (4, 3, "zero"), (4, 2, "plus")]:
        decoder = _ext(case)
        assert oracle.decoder_layout(case[0], case[1], case[2], decoder) is not None
        assert oracle.decoder_layout(case[0], case[1], case[2], decoder[:-1]) is None


def test_oracle_rejects_wrong_expected_layout():
    for case in protocol_table(3):
        decoder = [oracle.gate_tuple(g) for g in case.bob_program]
        layout = {ch: ("m", out.index) if hasattr(out, "index") else ("r", out.state.as_array())
                  for ch, out in case.expected_layout.items()}
        value = case.aux_value.value
        assert oracle.decoder_layout(3, 2, value, decoder, layout) is not None
        swapped = {ch: ("m", 1 - e[1]) if e[0] == "m" else e for ch, e in layout.items()}
        assert oracle.decoder_layout(3, 2, value, decoder, swapped) is None
        flipped = {ch: e if e[0] == "m" else ("r", e[1][::-1] * np.array([1, -1]))
                   for ch, e in layout.items()}
        assert oracle.decoder_layout(3, 2, value, decoder, flipped) is None


def test_oracle_encoder_and_prefix_match_the_paper_ladder():
    from intraport import alice_encoder, bob_prefix

    for n in (3, 4, 5, 6):
        assert oracle.encoder(n) == [oracle.gate_tuple(g) for g in alice_encoder(n)]
        assert oracle.prefix(n) == [oracle.gate_tuple(g) for g in bob_prefix(n)]


def test_permutation_oracle():
    assert oracle.permutation_ok(3, [("cn", 1, 2), ("cn", 2, 1), ("cn", 1, 2)], [2, 1, 3])
    assert not oracle.permutation_ok(3, [("cn", 1, 2), ("cn", 2, 1)], [2, 1, 3])


def test_binomial_bound_is_two_sided_and_negligible():
    lo, hi = oracle.binomial_accept(200, 1, 3)
    assert lo < 200 / 3 < hi and lo > 20 and hi < 110


def test_uniform_check_flags_a_biased_success_rate():
    check = workloads._eve_check("uniform-omniscient", 3, 200)

    class Stats:
        trials, channel_count, detection_rate = 200, 3, 0.5
        eve_success_rate = 0.9

    assert check(Stats) is not None
    Stats.eve_success_rate = 67 / 200
    assert check(Stats) is None


# ---------------------------------------------------------------------------
# Tracer and layer arithmetic


def test_self_time_on_synthetic_span_tree():
    #   root 0..100 ; a 10..40 (child x 20..30) ; b 35..60 overlaps a ; c 90..120 clipped
    spans = [
        (0, "root", "t", -1, 1, 0, 100, None),
        (1, "a", "t", 0, 1, 10, 40, None),
        (2, "x", "t", 1, 1, 20, 30, None),
        (3, "b", "t", 0, 1, 35, 60, None),
        (4, "c", "t", 0, 1, 90, 120, None),
    ]
    st = tracer.self_times(spans)
    assert st == {0: 100 - (50 + 10), 1: 30 - 10, 2: 10, 3: 25, 4: 30}


def test_tracer_reports_missing_names_and_restores_on_error():
    from intraport import eavesdrop

    original = eavesdrop.run_trial
    t = tracer.Tracer(tracer.TARGETS + (
        tracer.Target("intraport.eavesdrop", "no_such_entry", "x"),
        tracer.Target("intraport.no_such_module", "f", "y"),
    ))
    with pytest.raises(RuntimeError):
        with t.attached():
            assert eavesdrop.run_trial is not original
            raise RuntimeError("boom")
    assert eavesdrop.run_trial is original
    assert t.absent == ["intraport.eavesdrop.no_such_entry", "intraport.no_such_module.f"]


def test_rescale_scales_times_and_rates_only():
    units = {"a": "ms", "b": "1/s", "c": "count", "d": "us"}
    out = run.rescale({"a": 2.0, "b": 10.0, "c": 7, "d": 4.0}, units, 0.5)
    assert out == {"a": 1.0, "b": 20.0, "c": 7, "d": 2.0}


def test_canonical_word_counts():
    counts = {n: layers.canonical_words(gate_alphabet(n), gates_commute, 7) for n in (3, 6)}
    assert counts[3][7] == 506_560
    assert sum(counts[6][:5]) == 367_302
    assert layers.words_fully_searched(6, 10, None, counts) == 367_302
    assert layers.words_fully_searched(3, 10, 2, counts) == 1 + 9


# ---------------------------------------------------------------------------
# BENCHMARK.json


NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_use_the_allowed_charset():
    bench = _bench()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_harness():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"]) <= 0.25
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in layers.PER_LAYER] == \
        bench["per_layer"]
    # each per-layer metric names the end-to-end metric it should move
    e2e = {m["name"] for m in bench["end_to_end"]}
    for m in layers.PER_LAYER:
        assert set(m["targets"]) <= e2e, m
        assert m["targets"] or m["name"] == "trace.overhead_frac", m


def test_run_refuses_a_directory_without_the_program():
    empty = os.path.join(OUT, "empty")
    os.makedirs(empty, exist_ok=True)
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "eve-mc",
                          "--seed", "1", "--seconds", "1"], cwd=empty,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
