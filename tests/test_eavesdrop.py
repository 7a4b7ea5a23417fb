"""Interception Monte-Carlo: determinism, analytic rates, detection."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from intraport import eavesdrop
from intraport.eavesdrop import (
    DetectionMode,
    EveStrategy,
    run_experiment,
    run_trial,
    splitmix64,
    trial_seed,
)
from intraport.errors import InvalidInput
from intraport.protocol import (
    AuxValue,
    CANONICAL_AUX_CHANNEL,
    builtin_scenario,
    relocated_case,
)
from intraport.qsim import random_qubit


def test_splitmix64_reference_stream():
    # splitmix64 stream for seed 1234567 (independently computed from the
    # published finalizer constants)
    assert trial_seed(1234567, 0) == splitmix64(1234567)
    stream = [trial_seed(1234567, i) for i in range(3)]
    assert stream == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_is_64_bit():
    for x in (0, 1, 2**63, 2**64 - 1):
        assert 0 <= splitmix64(x) < 2**64


def test_trial_correct_fixed_guess_is_invisible():
    case = relocated_case(3, 2, AuxValue.PLUS)
    strategy = EveStrategy.fixed_guess(2, AuxValue.PLUS)
    outcome = run_trial(3, case, strategy, trial_seed(9, 0))
    assert outcome.eve_success
    assert not outcome.bob_detects
    assert outcome.guessed_case_id == outcome.true_case_id


def test_trial_wrong_channel_never_succeeds():
    case = relocated_case(3, 2, AuxValue.PLUS)
    for wrong in (1, 3):
        strategy = EveStrategy.fixed_guess(wrong, AuxValue.PLUS)
        for i in range(10):
            outcome = run_trial(3, case, strategy, trial_seed(10, i))
            assert not outcome.eve_success


def test_trial_success_implies_correct_guess():
    case = relocated_case(3, 2, AuxValue.ZERO)
    strategy = EveStrategy.uniform_guess(seed=3)
    for i in range(200):
        outcome = run_trial(3, case, strategy, trial_seed(11, i))
        if outcome.eve_success:
            assert outcome.guessed_case_id == outcome.true_case_id


def test_trial_absent_is_clean():
    case = relocated_case(4, 4, AuxValue.ONE)
    for i in range(20):
        outcome = run_trial(4, case, None, trial_seed(12, i))
        assert not outcome.eve_success
        assert not outcome.bob_detects
        assert outcome.guessed_case_id is None


def test_experiment_determinism():
    a = run_experiment(3, 300, EveStrategy.uniform_guess(), base_seed=5)
    b = run_experiment(3, 300, EveStrategy.uniform_guess(), base_seed=5)
    assert a == b


def test_experiment_uniform_rates_match_analytic():
    for n in (3, 4):
        stats = run_experiment(n, 3000, EveStrategy.uniform_guess(), base_seed=42)
        assert stats.analytic_success_rate == pytest.approx(1.0 / n)
        assert abs(stats.eve_success_rate - stats.analytic_success_rate) <= stats.ci95_halfwidth


def test_experiment_no_false_alarms_without_eve():
    for mode in DetectionMode:
        stats = run_experiment(3, 500, None, base_seed=7, detection_mode=mode)
        assert stats.detection_rate == 0.0
        assert stats.eve_success_rate == 0.0
        assert stats.analytic_success_rate == 0.0


def test_experiment_fixed_correct_guess():
    strategy = EveStrategy.fixed_guess(CANONICAL_AUX_CHANNEL[3], AuxValue.ONE)
    stats = run_experiment(3, 200, strategy, base_seed=8)
    assert stats.eve_success_rate == 1.0
    assert stats.detection_rate == 0.0
    assert stats.analytic_success_rate == 1.0


def test_experiment_fixed_wrong_channel():
    strategy = EveStrategy.fixed_guess(1, AuxValue.ONE)
    stats = run_experiment(3, 200, strategy, base_seed=9)
    assert stats.eve_success_rate == 0.0
    assert stats.analytic_success_rate == 0.0


def test_some_wrong_guesses_go_undetected():
    """A wrong channel guess never succeeds, but only some disturb the state:
    at three channels a guess of channel 1 re-encodes exactly what was sent,
    while a guess of channel 3 with value zero is caught every time."""
    unseen = run_experiment(3, 200, EveStrategy.fixed_guess(1, AuxValue.ZERO), base_seed=1)
    assert (unseen.eve_success_rate, unseen.detection_rate) == (0.0, 0.0)
    caught = run_experiment(3, 200, EveStrategy.fixed_guess(3, AuxValue.ZERO), base_seed=1)
    assert (caught.eve_success_rate, caught.detection_rate) == (0.0, 1.0)


def test_omniscient_detection_dominates_sampled():
    for n in (3, 4):
        omni = run_experiment(n, 1000, EveStrategy.uniform_guess(), base_seed=13,
                              detection_mode=DetectionMode.OMNISCIENT)
        sampled = run_experiment(n, 1000, EveStrategy.uniform_guess(), base_seed=13,
                                 detection_mode=DetectionMode.SAMPLED)
        assert omni.detection_rate >= sampled.detection_rate
        assert omni.eve_success_rate == sampled.eve_success_rate


def test_experiment_validates_trials():
    with pytest.raises(InvalidInput):
        run_experiment(3, 0, None, base_seed=1)


def test_ci_halfwidth_formula():
    stats = run_experiment(3, 400, EveStrategy.uniform_guess(), base_seed=21)
    p = stats.analytic_success_rate
    expected = 1.959963984540054 * np.sqrt(p * (1 - p) / 400)
    assert stats.ci95_halfwidth == pytest.approx(expected, rel=1e-12)


def test_trial_rejects_an_unregistered_true_case():
    # figure 1 shares channel 2 and value plus with the registered n=3 case
    # but carries its own program and case id
    figure = builtin_scenario(1)
    with pytest.raises(InvalidInput):
        run_trial(3, figure, None, trial_seed(14, 0))


def test_trials_reuse_compiled_cases():
    strategy = EveStrategy.uniform_guess(seed=4)
    first = run_experiment(4, 60, strategy, base_seed=15)

    def refuse(*args, **kwargs):
        raise AssertionError("a trial compiled a gate word")

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_apply_gates", "post_swap_plan", "relocated_case", "gate_unitary"):
            mp.setattr(eavesdrop, name, refuse)
        assert run_experiment(4, 60, strategy, base_seed=15) == first


def test_trials_build_no_generator():
    strategy = EveStrategy.uniform_guess(seed=4)
    first = run_experiment(4, eavesdrop.CHUNK + 1, strategy, base_seed=15)

    def refuse(*args, **kwargs):
        raise AssertionError("a trial built a generator")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", refuse)
        assert run_experiment(4, eavesdrop.CHUNK + 1, strategy, base_seed=15) == first


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
       strategy_seed=st.integers(0, 2**64 - 1),
       n=st.sampled_from(sorted(CANONICAL_AUX_CHANNEL)))
@example(seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1], strategy_seed=0, n=3)
@example(seeds=[2**64 - 1, 0], strategy_seed=2**64 - 1, n=6)
def test_chunk_draws_are_those_of_default_rng(seeds, strategy_seed, n):
    """The derived generator states, and every draw made from them with one
    reused generator, equal those of a fresh default_rng per seed."""
    chunk = np.array(seeds, dtype=np.uint64)
    assert eavesdrop._pcg64_states(chunk) == [np.random.default_rng(seed).bit_generator.state
                                              for seed in seeds]
    rng = np.random.Generator(np.random.PCG64(0))
    normals, uniforms = eavesdrop._draw(rng, chunk, n - 1, DetectionMode.SAMPLED)
    values = [AuxValue.ZERO] * len(seeds)
    guesses = eavesdrop._guesses(rng, EveStrategy.uniform_guess(strategy_seed), n, chunk, values)
    for j, seed in enumerate(seeds):
        own = np.random.default_rng(seed)
        assert normals[j].tobytes() == own.normal(size=4 * (n - 1)).tobytes()
        assert uniforms[j] == own.random()
        guess_rng = np.random.default_rng(splitmix64(seed ^ strategy_seed))
        assert guesses[j] == (int(guess_rng.integers(1, n + 1)), AuxValue.ZERO)


def test_seeds_are_masked_to_64_bits():
    low = run_experiment(4, 300, EveStrategy.uniform_guess(5), -1)
    high = run_experiment(4, 300, EveStrategy.uniform_guess(2**64 + 5), 2**64 - 1)
    assert (low.eve_success_rate, low.detection_rate) == (high.eve_success_rate,
                                                          high.detection_rate)
    case = relocated_case(4, CANONICAL_AUX_CHANNEL[4], AuxValue.ZERO)
    assert (run_trial(4, case, EveStrategy.uniform_guess(5), -1)
            == run_trial(4, case, EveStrategy.uniform_guess(2**64 + 5), 2**64 - 1))


def test_unknown_strategy_mode_is_refused():
    bogus = EveStrategy(mode="bogus")
    with pytest.raises(InvalidInput):
        run_experiment(3, 10, bogus, base_seed=1)
    case = relocated_case(3, CANONICAL_AUX_CHANNEL[3], AuxValue.PLUS)
    with pytest.raises(InvalidInput):
        run_trial(3, case, bogus, trial_seed(1, 0))


@pytest.mark.parametrize("m", [1, 2, 5])
def test_one_normal_draw_is_the_stream_of_m_random_qubits(m):
    """One rng.normal(size=4m) call, read as (re0, re1, im0, im1) per message,
    is the stream of m successive random_qubit calls, and leaves the
    generator where they leave it."""
    for seed in range(50):
        single = np.random.default_rng(seed)
        unnormalised = [single.normal(size=2) + 1j * single.normal(size=2) for _ in range(m)]
        single = np.random.default_rng(seed)
        qubits = [random_qubit(single) for _ in range(m)]

        batched = np.random.default_rng(seed)
        normals = batched.normal(size=4 * m)
        parts = normals.reshape(m, 2, 2)
        assert np.array_equal(parts[:, 0] + 1j * parts[:, 1], np.array(unnormalised))
        messages = eavesdrop._messages(normals[None])[0]
        expected = np.array([q.as_array() for q in qubits])
        assert np.abs(messages - expected).max() <= 1e-15
        assert batched.random() == single.random()


@st.composite
def _experiments(draw):
    n = draw(st.sampled_from(sorted(CANONICAL_AUX_CHANNEL)))
    strategy = draw(st.one_of(
        st.none(),
        st.integers(0, 2**32).map(EveStrategy.uniform_guess),
        st.builds(EveStrategy.fixed_guess, st.integers(1, n), st.sampled_from(AuxValue)),
    ))
    return n, strategy, draw(st.sampled_from(DetectionMode)), draw(st.integers(0, 2**64 - 1))


@pytest.mark.parametrize("trials", [1, eavesdrop.CHUNK - 1, eavesdrop.CHUNK,
                                    eavesdrop.CHUNK + 1, 2 * eavesdrop.CHUNK + 1])
@settings(max_examples=10)
@given(experiment=_experiments())
def test_experiment_counts_are_the_sum_of_its_single_trials(trials, experiment):
    n, strategy, mode, base = experiment
    stats = run_experiment(n, trials, strategy, base, mode)
    successes = detections = 0
    for i in range(trials):
        seed = trial_seed(base, i)
        if strategy is not None and strategy.mode == "fixed":
            value = strategy.fixed_value
        else:
            value = eavesdrop._AUX_CYCLE[splitmix64(seed) % 3]
        case = relocated_case(n, CANONICAL_AUX_CHANNEL[n], value)
        outcome = run_trial(n, case, strategy, seed, mode)
        successes += outcome.eve_success
        detections += outcome.bob_detects
    assert (stats.eve_success_rate, stats.detection_rate) == (successes / trials,
                                                              detections / trials)


def test_experiment_memory_does_not_grow_with_trials():
    strategy = EveStrategy.uniform_guess(seed=2)

    def peak(trials):
        run_experiment(6, trials, strategy, base_seed=3)  # warm every cache first
        tracemalloc.start()
        try:
            run_experiment(6, trials, strategy, base_seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * eavesdrop.CHUNK) <= 1.5 * peak(eavesdrop.CHUNK)


GRID_SEEDS = (11, 12)
GRID_TRIALS = 100


def _grid():
    for n in (3, 4, 5, 6):
        aux = CANONICAL_AUX_CHANNEL[n]
        om, sa = DetectionMode.OMNISCIENT, DetectionMode.SAMPLED
        strategies = {
            "uniform-omniscient": (EveStrategy.uniform_guess(seed=3), om),
            "uniform-sampled": (EveStrategy.uniform_guess(seed=3), sa),
            "fixed-wrong": (EveStrategy.fixed_guess(1, AuxValue.PLUS), om),
            "fixed-correct": (EveStrategy.fixed_guess(aux, AuxValue.ZERO), om),
            "absent": (None, sa),
        }
        for name, (strategy, mode) in strategies.items():
            for seed in GRID_SEEDS:
                stats = run_experiment(n, GRID_TRIALS, strategy, seed, mode)
                yield f"n{n}/{name}/seed{seed}", dataclasses.asdict(stats)


def test_experiment_grid_matches_golden():
    """Every statistic of a size x strategy x seed grid, pinned exactly."""
    path = Path(__file__).parent / "golden" / "eavesdrop_grid.json"
    assert dict(_grid()) == json.loads(path.read_text(encoding="utf-8"))


WIDE_SEEDS = (11, 12, 13)
WIDE_TRIALS = 200


def _all_guesses_grid():
    for n in (3, 4, 5, 6):
        strategies = [EveStrategy.uniform_guess(seed=3), None]
        strategies += [EveStrategy.fixed_guess(ch, value)
                       for ch in range(1, n + 1) for value in AuxValue]
        for strategy in strategies:
            for mode in DetectionMode:
                for seed in WIDE_SEEDS:
                    stats = run_experiment(n, WIDE_TRIALS, strategy, seed, mode)
                    yield (f"n{n}/{stats.strategy}/{mode.value}/seed{seed}",
                           dataclasses.asdict(stats))


def test_experiment_all_guesses_match_golden():
    """Every strategy Eve has (uniform, absent and each fixed guess), both
    detection modes and three seeds at every size, pinned exactly."""
    path = Path(__file__).parent / "golden" / "eavesdrop_all_guesses.json"
    assert dict(_all_guesses_grid()) == json.loads(path.read_text(encoding="utf-8"))
