"""Per-layer metrics computed from a traced run.

PER_LAYER lists every metric with its unit, direction and the end-to-end
metrics (on one workload) it should move; BENCHMARK.json's schema has no
room for the targets, so they live here.  `op_ms_p90` is the per-call
tail, moved here because it does not hold steady within a tenth between
runs on a small shared machine; `trace.overhead_frac` moves nothing and is
there to read the other numbers with.  A layer a workload never calls reports
0 and is listed as not exercised.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import Tracer, self_times

SIZES = (3, 4, 5, 6)
# Depth horizon of solve_bob_program's exhaustive enumeration at the commit
# the benchmark was defined on; deeper lengths come from the fallback.
SEARCH_HORIZON = {3: 7, 4: 6, 5: 5, 6: 4}
SWEEP_DEPTHS = (0, 1, 2, 3, 4)

_CALLS = "qsim.kernel_calls"


def _m(name, unit, better, targets, workload):
    return {"name": name, "unit": unit, "better": better,
            "targets": targets, "workload": workload}


PER_LAYER = (
    [_m(_CALLS, "count", "lower", ("work_per_s", "op_ms_p50"), "eve-mc"),
     _m("qsim.gates_applied", "count", "lower", ("work_per_s", "op_ms_p50"), "eve-mc")]
    + [_m(f"qsim.gate_us.n{n}", "us", "lower", ("work_per_s", "op_ms_p50"), "eve-mc")
       for n in SIZES]
    + [_m("qsim.kernel_self_frac", "ratio", "lower", ("work_per_s", "op_ms_p50"), "eve-mc"),
       _m("qsim.bytes_moved_computed", "B", "lower", ("work_per_s",), "eve-mc"),
       _m("qsim.random_qubit_us", "us", "lower", ("work_per_s",), "eve-mc"),
       _m("qsim.make_state_us", "us", "lower", ("work_per_s",), "eve-mc")]
    + [_m(f"eavesdrop.trial_us.n{n}", "us", "lower", ("work_per_s",), "eve-mc") for n in SIZES]
    + [_m("eavesdrop.trial_self_us", "us", "lower", ("work_per_s",), "eve-mc"),
       _m("eavesdrop.swap_plan_calls_per_trial", "ratio", "lower", ("work_per_s",), "eve-mc"),
       _m("eavesdrop.case_builds", "count", "lower", ("setup_s", "work_per_s"), "eve-mc"),
       _m("search.words_covered", "count", "higher", ("pass_s",), "decoder-search"),
       _m("search.words_per_s", "1/s", "higher", ("pass_s",), "decoder-search")]
    + [_m(f"search.depth_s.n6.d{d}", "s", "lower", ("pass_s",), "decoder-search")
       for d in SWEEP_DEPTHS]
    + [_m("search.verify_kernel_calls", "count", "lower", ("op_ms_p50", "n3_op_ms_p50"),
          "decoder-search"),
       _m("search.verify_s", "s", "lower", ("op_ms_p50", "n3_op_ms_p50"), "decoder-search"),
       _m("search.solve_self_frac", "ratio", "lower", ("op_ms_p50", "n3_op_ms_p50"),
          "decoder-search"),
       _m("protocol.run_scenario_us", "us", "lower", ("work_per_s", "op_ms_p50"),
          "cli-conformance"),
       _m("qsim.factor_all_us", "us", "lower", ("work_per_s", "op_ms_p50"), "cli-conformance"),
       _m("qsim.fidelity_us", "us", "lower", ("work_per_s", "op_ms_p50"), "cli-conformance"),
       _m("protocol.relocated_case_us", "us", "lower", ("setup_s", "work_per_s"), "eve-mc"),
       _m("protocol.post_swap_plan_us", "us", "lower", ("setup_s", "work_per_s"), "eve-mc"),
       _m("circuit.parse_us", "us", "lower", ("setup_s", "op_ms_p50"), "cli-conformance"),
       _m("circuit.parse_calls", "count", "lower", ("setup_s", "op_ms_p50"), "cli-conformance"),
       _m("cli.self_frac", "ratio", "lower", ("op_ms_p50",), "cli-conformance"),
       _m("cli.json_bytes", "B", "lower", ("op_ms_p50",), "cli-conformance"),
       _m("op_ms_p90", "ms", "lower", ("op_ms_p50", "pass_s"), "all"),
       _m("trace.overhead_frac", "ratio", "lower", (), "all")]
)

def canonical_words(gates, commute, depth: int) -> list[int]:
    """Canonical words of each length 0..depth: no gate twice in a row, and
    adjacent commuting gates only in alphabet order (the search's pruning)."""
    g = len(gates)
    follows = [[j for j in range(g) if not (i == j or (commute(gates[i], gates[j]) and j < i))]
               for i in range(g)]
    counts = [1]
    ending = [1] * g
    for d in range(1, depth + 1):
        if d > 1:
            nxt = [0] * g
            for i, row in enumerate(follows):
                for j in row:
                    nxt[j] += ending[i]
            ending = nxt
        counts.append(sum(ending))
    return counts


def words_fully_searched(n: int, max_gates: int, found, word_counts) -> int:
    """Words in the depths a solve call enumerated completely: below the hit
    depth, or every depth up to the horizon for a miss or a fallback."""
    horizon = min(max_gates, SEARCH_HORIZON[n])
    last = found - 1 if found is not None and found <= horizon else horizon
    return sum(word_counts[n][: last + 1])


def _mean_us(spans):
    return statistics.fmean((s[6] - s[5]) / 1e3 for s in spans) if spans else 0.0


def unit_counts(spans, word_counts) -> dict:
    """Exact counts of one traced unit: equal inputs must give equal counts."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
    kernels = [s for s in by_name["qsim._apply_gates"] if s[7]]
    verify_ids = {s[0] for s in by_name["search.verify"]}
    trials = len(by_name["eavesdrop.run_trial"])
    swap_plans = sum(1 for s in by_name["protocol.post_swap_plan"] if s[2] == "eavesdrop")
    words = 0
    for s in by_name["search.solve_bob_program"]:
        if s[7] and s[7]["n"] in word_counts:
            words += words_fully_searched(s[7]["n"], s[7]["max_gates"], s[7]["found"],
                                          word_counts)
    return {
        _CALLS: len(by_name["qsim._apply_gates"]),
        "qsim.gates_applied": sum(s[7]["gates"] for s in kernels),
        "qsim.bytes_moved_computed": sum(2 * 16 * (1 << s[7]["n"]) * s[7]["gates"]
                                         for s in kernels),
        "search.words_covered": words,
        "search.verify_kernel_calls": sum(1 for s in by_name["qsim._apply_gates"]
                                          if s[3] in verify_ids),
        "eavesdrop.swap_plan_calls_per_trial": swap_plans / trials if trials else 0.0,
        "circuit.parse_calls": len(by_name["circuit.parse_circuit"]),
    }


def layer_metrics(setup_spans, unit_spans, counts, extra) -> tuple[dict, list[str]]:
    """Per-layer values from set-up spans, traced-unit spans and the counts
    of one unit.  `extra` carries values measured outside the trace."""
    spans = [s for unit in unit_spans for s in unit]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
    selfs = self_times(spans)
    out = dict(counts)

    kernels = [s for s in by_name["qsim._apply_gates"] if s[7]]
    for n in SIZES:
        ks = [s for s in kernels if s[7]["n"] == n]
        gates = sum(s[7]["gates"] for s in ks)
        out[f"qsim.gate_us.n{n}"] = (sum(s[6] - s[5] for s in ks) / 1e3 / gates) if gates else 0.0
    roots = by_name[Tracer.ROOT]
    root_ns = sum(s[6] - s[5] for s in roots)
    out["qsim.kernel_self_frac"] = (sum(selfs[s[0]] for s in by_name["qsim._apply_gates"])
                                    / root_ns) if root_ns else 0.0
    out["qsim.random_qubit_us"] = _mean_us(by_name["qsim.random_qubit"])
    out["qsim.make_state_us"] = _mean_us(by_name["qsim.make_state"])
    trials = by_name["eavesdrop.run_trial"]
    for n in SIZES:
        out[f"eavesdrop.trial_us.n{n}"] = _mean_us([s for s in trials if s[7] and s[7]["n"] == n])
    out["eavesdrop.trial_self_us"] = (statistics.fmean(selfs[s[0]] for s in trials) / 1e3
                                      if trials else 0.0)

    setup_and_first = list(setup_spans) + list(unit_spans[0])
    out["eavesdrop.case_builds"] = sum(1 for s in setup_and_first
                                       if s[1] == "protocol.relocated_case" and s[2] == "eavesdrop")
    out["search.words_per_s"] = extra["words_per_s"]
    for d in SWEEP_DEPTHS:
        out[f"search.depth_s.n6.d{d}"] = extra["depth_s"].get(d, 0.0)
    verify_ns = sum(s[6] - s[5] for s in by_name["search.verify"])
    out["search.verify_s"] = verify_ns / 1e9 / len(unit_spans)
    solves = by_name["search.solve_bob_program"]
    solve_ns = sum(s[6] - s[5] for s in solves)
    out["search.solve_self_frac"] = (sum(selfs[s[0]] for s in solves) / solve_ns
                                     if solve_ns else 0.0)

    out["protocol.run_scenario_us"] = _mean_us(by_name["protocol.run_scenario"])
    out["qsim.factor_all_us"] = _mean_us(by_name["qsim.factor_all"])
    out["qsim.fidelity_us"] = _mean_us(by_name["qsim.channel_fidelity"])
    relocs = [s for s in setup_and_first if s[1] == "protocol.relocated_case"]
    out["protocol.relocated_case_us"] = _mean_us(relocs)
    out["protocol.post_swap_plan_us"] = _mean_us(by_name["protocol.post_swap_plan"])
    setup_parses = [s for s in setup_spans if s[1] == "circuit.parse_circuit"]
    out["circuit.parse_us"] = _mean_us(setup_parses + by_name["circuit.parse_circuit"])
    out["circuit.parse_calls"] = counts["circuit.parse_calls"] + len(setup_parses)
    mains = by_name["cli.main"]
    main_ns = sum(s[6] - s[5] for s in mains)
    out["cli.self_frac"] = sum(selfs[s[0]] for s in mains) / main_ns if main_ns else 0.0
    out["cli.json_bytes"] = extra["json_bytes"]
    out["op_ms_p90"] = extra["op_ms_p90"]
    out["trace.overhead_frac"] = extra["overhead_frac"]

    names = [m["name"] for m in PER_LAYER]
    if set(out) != set(names):
        raise RuntimeError(f"per-layer metrics out of step: {sorted(set(out) ^ set(names))}")
    idle = [name for name in names if out[name] == 0]
    return {name: out[name] for name in names}, idle
